"""Spectrum of the integral operator with kernel exp(-|x - y|) on L_2[0, 1].

Eigenvalues are 2 cos^2(theta_k) where theta_k is the unique root of
tan t = -2t + k pi in (0, pi/2). Bisection runs on the overflow-free form
sin t + (2t - k pi) cos t, which has the same roots with bounded arithmetic,
and stops once the bracket is two adjacent doubles (53-55 halvings; a
200-step cap stays as a guard). Large-k eigenvalues for the Schatten partial
sums come from a two-step Newton correction around arctan(k pi); its relative
error is O(k^-2), far below the tolerances of the divergence diagnostics.

The partial sums read the eigenvalues from one memoized, read-only table
(for the last k_max asked for), so several exponents over the same K grid
share one root solve and one Newton tail. ``analytic_eigenvalues`` and
``eigenfunction_residual`` solve, and bracket-check, their roots every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import InvariantViolation, _check_int

__all__ = [
    "KernelSpectrum",
    "solve_theta",
    "analytic_eigenvalues",
    "eigenfunction_residual",
    "nystrom_spectrum",
    "schatten_partial_sums",
    "eigenfunction_sup_ratio",
]

EXACT_ROOT_LIMIT = 1000  # bisection below, Newton tail above


@dataclass(frozen=True)
class KernelSpectrum:
    """Roots theta_k, slopes alpha_k = tan(theta_k), eigenvalues lambda_k."""

    k_max: int
    thetas: np.ndarray
    alphas: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float)
        lam = np.asarray(self.lambdas, dtype=float)
        if np.any(np.diff(th) <= 0) or th[0] <= 0 or th[-1] >= np.pi / 2:
            raise ValueError("roots must increase strictly inside (0, pi/2)")
        if np.any(np.diff(lam) >= 0) or lam[-1] <= 0:
            raise ValueError("eigenvalues must decrease strictly and stay positive")


def _scaled_tol(k: int) -> float:
    """Root-residual tolerance that grows with the float-spacing limit ~(k pi)^2."""
    return max(1e-10, 5e-14 * (k * math.pi) ** 2)


def _bracket_residual(t: float, k: int) -> float:
    return math.sin(t) + (2.0 * t - k * math.pi) * math.cos(t)


def solve_theta(k: int) -> float:
    """Unique root of tan t = -2t + k pi in (0, pi/2) by bisection.

    Bisection stops when the midpoint equals an end of the bracket, i.e.
    when lo and hi are adjacent doubles: no further halving can move either
    end, so the root is the one 200 full steps would give (the 200-step cap
    stays as a guard). The residual |tan t + 2t - k pi| at the returned root
    is limited by float spacing times the slope (~(k pi)^2), so it is
    checked against ``_scaled_tol(k)``, which grows at that rate; a larger
    residual raises InvariantViolation.
    """
    k = _check_int("k", k, 1)
    lo, hi = 1e-12, math.pi / 2 - 1e-15
    flo, fhi = _bracket_residual(lo, k), _bracket_residual(hi, k)
    if not (flo < 0 < fhi):
        raise InvariantViolation(f"bisection bracket failed for k={k}: ({flo}, {fhi})")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _bracket_residual(mid, k) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    residual = abs(math.tan(root) + 2.0 * root - k * math.pi)
    tol = _scaled_tol(k)
    if residual > tol:
        raise InvariantViolation(
            f"root residual {residual:.3e} exceeds {tol:.1e} for k={k}")
    return root


def _newton_thetas(ks: np.ndarray) -> np.ndarray:
    t = np.arctan(ks * np.pi)
    for _ in range(2):
        g = np.tan(t) + 2.0 * t - ks * np.pi
        t = t - g / (1.0 / np.cos(t) ** 2 + 2.0)
    return t


def _root_table(k_max: int) -> np.ndarray:
    """theta_k for k = 1..k_max: bisection roots up to EXACT_ROOT_LIMIT,
    Newton tail beyond."""
    thetas = np.empty(k_max)
    for k in range(1, min(k_max, EXACT_ROOT_LIMIT) + 1):
        thetas[k - 1] = solve_theta(k)
    tail_ks = np.arange(EXACT_ROOT_LIMIT + 1, k_max + 1, dtype=float)
    thetas[EXACT_ROOT_LIMIT:] = _newton_thetas(tail_ks)
    return thetas


def analytic_eigenvalues(k_max: int) -> KernelSpectrum:
    """First k_max eigenvalues 2 cos^2(theta_k), descending."""
    k_max = _check_int("k_max", k_max, 1)
    thetas = _root_table(k_max)
    alphas = np.tan(thetas)
    lambdas = 2.0 * np.cos(thetas) ** 2
    return KernelSpectrum(k_max=k_max, thetas=thetas, alphas=alphas, lambdas=lambdas)


def _composite_weights(m: int, h: float) -> np.ndarray:
    """Simpson weights on m uniform intervals (3/8 rule absorbs odd counts)."""
    w = np.zeros(m + 1)
    if m == 0:
        return w
    if m == 1:
        return np.array([0.5, 0.5]) * h
    start = 0
    if m % 2 == 1:
        if m == 3:
            return np.array([3, 9, 9, 3]) / 8.0 * h
        w[:4] += np.array([3, 9, 9, 3]) / 8.0 * h
        start = 3
    body = np.zeros(m - start + 1)
    body[0] = body[-1] = 1.0 / 3.0
    body[1:-1:2] = 4.0 / 3.0
    body[2:-1:2] = 2.0 / 3.0
    w[start:] += body * h
    return w


@lru_cache(maxsize=4)
def _kink_split_operator(n: int) -> np.ndarray:
    """Quadrature matrix of T on the n + 1 uniform nodes: kink-split Simpson
    weights (row i integrates over [0, x_i] and [x_i, 1] separately) times
    exp(-|x_i - x_j|). Read-only."""
    h = 1.0 / n
    weights = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        weights[i, : i + 1] += _composite_weights(i, h)
        weights[i, i:] += _composite_weights(n - i, h)
    x = np.linspace(0.0, 1.0, n + 1)
    operator = weights * np.exp(-np.abs(x[:, None] - x[None, :]))
    operator.setflags(write=False)
    return operator


def eigenfunction_residual(k: int, quadrature_points: int = 2048,
                           eigenvalue_scale: float = 1.0) -> float:
    """Relative L_2 residual ||T f - lambda f|| / ||f|| by kink-split Simpson.

    The eigenfunction is exp(i a x) - c exp(-i a x) with a = tan(theta_k) and
    c = (1 - i a)/(1 + i a); this c is the one that cancels both boundary
    terms of the integral identity (the same constant with flipped signs
    does not). ``eigenvalue_scale`` perturbs lambda for sensitivity probes.
    """
    n = _check_int("quadrature_points", quadrature_points, 256)
    theta = solve_theta(k)
    alpha = math.tan(theta)
    lam = 2.0 * math.cos(theta) ** 2 * eigenvalue_scale
    x = np.linspace(0.0, 1.0, n + 1)
    c = (1.0 - 1j * alpha) / (1.0 + 1j * alpha)
    f = np.exp(1j * alpha * x) - c * np.exp(-1j * alpha * x)
    h = 1.0 / n
    tf = _kink_split_operator(n) @ f
    trapz = np.full(n + 1, h)
    trapz[0] = trapz[-1] = 0.5 * h
    norm = lambda v: math.sqrt(float(np.sum(trapz * np.abs(v) ** 2)))
    return norm(tf - lam * f) / norm(f)


def eigenfunction_sup_ratio(k: int) -> float:
    """sup |f_k| / ||f_k||_2 on [0, 1] (uniform boundedness diagnostic)."""
    theta = solve_theta(k)
    alpha = math.tan(theta)
    x = np.linspace(0.0, 1.0, 4001)
    c = (1.0 - 1j * alpha) / (1.0 + 1j * alpha)
    f = np.exp(1j * alpha * x) - c * np.exp(-1j * alpha * x)
    sup = float(np.abs(f).max())
    l2 = math.sqrt(float(np.trapezoid(np.abs(f) ** 2, x)))
    return sup / l2


def nystrom_spectrum(n: int = 2000) -> np.ndarray:
    """Eigenvalues of the trapezoid discretization, descending.

    The symmetric form w_i^(1/2) K(x_i, x_j) w_j^(1/2) keeps the matrix
    Hermitian; its trace equals sum(w) = 1 exactly.
    """
    n = _check_int("n", n, 64)
    x = np.linspace(0.0, 1.0, n)
    w = np.full(n, 1.0 / (n - 1))
    w[0] = w[-1] = 0.5 / (n - 1)
    sq = np.sqrt(w)
    a = sq[:, None] * np.exp(-np.abs(x[:, None] - x[None, :])) * sq[None, :]
    return np.linalg.eigvalsh(a)[::-1]


@lru_cache(maxsize=1)
def _eigenvalue_table(k_max: int) -> np.ndarray:
    """2 cos^2(theta_k) for k = 1..k_max, read-only: exact bisection roots up
    to k = 1000, Newton-corrected tail beyond."""
    thetas = _root_table(k_max)
    lambdas = 2.0 * np.cos(thetas) ** 2
    lambdas.setflags(write=False)
    return lambdas


def schatten_partial_sums(p: float, K_list) -> np.ndarray:
    """Partial sums sum_{k <= K} lambda_k^p for each requested K.

    Exact bisection roots up to k = 1000, Newton-corrected tail beyond
    (asymptotic acceleration for K up to 10^6 and more). The eigenvalues
    come from a table memoized for the last max(K_list), shared by every p.
    """
    if not 0 < p < math.inf:
        raise ValueError("p must be positive and finite")
    ks = [_check_int(f"K_list[{i}]", k, 1) for i, k in enumerate(K_list)]
    if not ks:
        raise ValueError("K_list must name at least one K")
    csum = np.cumsum(_eigenvalue_table(max(ks)) ** p)
    return np.array([csum[k - 1] for k in ks])
