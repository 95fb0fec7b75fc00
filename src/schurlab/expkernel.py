"""Spectrum of the integral operator with kernel exp(-|x - y|) on L_2[0, 1].

Eigenvalues are 2 cos^2(theta_k) where theta_k is the unique root of
tan t = -2t + k pi in (0, pi/2). Bisection runs on the overflow-free form
sin t + (2t - k pi) cos t, which has the same roots with bounded arithmetic,
elementwise over every k asked for at once, and stops for each k once its
bracket is two adjacent doubles (53-55 halvings; a 200-step cap stays as a
guard). Large-k eigenvalues for the Schatten partial sums come from a
two-step Newton correction around arctan(k pi); its relative error is
O(k^-2), far below the tolerances of the divergence diagnostics.

The partial sums read the eigenvalues from one memoized, read-only table
(for the last k_max asked for), so several exponents over the same K grid
share one root solve and one Newton tail. ``analytic_eigenvalues`` and
``eigenfunction_residual`` solve, and bracket-check, their roots every call.

No step holds a second copy of its largest array: the Newton tail and the
partial sums run NEWTON_PIECE terms at a time, the eigenvalue table and the
Nystrom matrix are built in place, the quadrature operator one row at a
time, and the residual product casts RESIDUAL_ROWS rows of that operator to
complex at a time.
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
# Roots per pass of the elementwise Newton tail, and terms per piece of the
# partial sums; every piece size gives the same bits. Solved whole, the
# 10^6-root tail of `kernel-spectrum --sums-kmax 1000000` held about seven
# 8 MB temporaries at once and set the command's peak RSS (89.8 MB, against
# 64.9 MB in pieces). With the table built in place, the sums taken in
# pieces, the Nystrom matrix built in place and the residual product in
# blocks of RESIDUAL_ROWS operator rows, the command (`--kmax 1000
# --nystrom 1000 --quadrature 1024`) peaked at 50.7 MB instead of 64.1 MB
# (2-vCPU x86 VM, one BLAS thread); the Nystrom eigensolve alone takes a
# process that has imported the command line to 46.2 MB.
NEWTON_PIECE = 65536
# Operator rows cast to complex per block of the residual product. Cast
# whole, the float64 quadrature operator (8.4 MB at 1024 intervals) became a
# 16.8 MB complex copy on each of the ten residual calls. Blocks of 2 to
# 128 rows gave the bits of the whole product at 256, 1024 and 2048
# intervals for k = 1..10; blocks of one row did not.
RESIDUAL_ROWS = 64


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


def _scaled_tol(k):
    """Root-residual tolerance that grows with the float-spacing limit ~(k pi)^2."""
    return np.maximum(1e-10, 5e-14 * (k * np.pi) ** 2)


def _bracket_residual(t: np.ndarray, k_pi: np.ndarray) -> np.ndarray:
    return np.sin(t) + (2.0 * t - k_pi) * np.cos(t)


def _bisect_roots(ks: np.ndarray) -> np.ndarray:
    """Unique root of tan t = -2t + k pi in (0, pi/2) for each k in ``ks``
    (float64 integers >= 1), by one elementwise bisection.

    A root stops moving when its midpoint equals an end of its bracket, i.e.
    when lo and hi are adjacent doubles: no further halving can move either
    end, so the root is the one 200 full steps would give (the 200-step cap
    stays as a guard). Where np.sin and np.cos round as math.sin and
    math.cos do, each root has the bits of the scalar loop run on its k
    alone (the tests compare the two). The residual |tan t + 2t - k pi| at
    a root is limited by float spacing times the slope (~(k pi)^2), so it
    is checked against ``_scaled_tol(k)``, which grows at that rate; a
    larger residual raises InvariantViolation.
    """
    k_pi = ks * np.pi
    lo = np.full(ks.shape, 1e-12)
    hi = np.full(ks.shape, math.pi / 2 - 1e-15)
    flo, fhi = (np.broadcast_to(_bracket_residual(t, k_pi), ks.shape) for t in (lo, hi))
    bad = np.flatnonzero(~((flo < 0) & (fhi > 0)))
    if bad.size:
        i = bad[0]
        raise InvariantViolation(
            f"bisection bracket failed for k={int(ks[i])}: ({flo[i]}, {fhi[i]})")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        moving = (mid != lo) & (mid != hi)
        if not moving.any():
            break
        below = _bracket_residual(mid, k_pi) < 0
        lo = np.where(moving & below, mid, lo)
        hi = np.where(moving & ~below, mid, hi)
    roots = 0.5 * (lo + hi)
    residual = np.abs(np.tan(roots) + 2.0 * roots - k_pi)
    tol = np.broadcast_to(_scaled_tol(ks), ks.shape)
    bad = np.flatnonzero(~(residual <= tol))
    if bad.size:
        i = bad[0]
        raise InvariantViolation(
            f"root residual {residual[i]:.3e} exceeds {tol[i]:.1e} for k={int(ks[i])}")
    return roots


def solve_theta(k: int) -> float:
    """Unique root of tan t = -2t + k pi in (0, pi/2): the one entry of
    ``_bisect_roots`` for k."""
    k = _check_int("k", k, 1)
    return float(_bisect_roots(np.array([float(k)]))[0])


def _newton_thetas(ks: np.ndarray) -> np.ndarray:
    t = np.arctan(ks * np.pi)
    for _ in range(2):
        g = np.tan(t) + 2.0 * t - ks * np.pi
        t = t - g / (1.0 / np.cos(t) ** 2 + 2.0)
    return t


def _root_table(k_max: int) -> np.ndarray:
    """theta_k for k = 1..k_max: bisection roots up to EXACT_ROOT_LIMIT,
    Newton tail beyond, NEWTON_PIECE roots at a time."""
    thetas = np.empty(k_max)
    exact = min(k_max, EXACT_ROOT_LIMIT)
    thetas[:exact] = _bisect_roots(np.arange(1, exact + 1, dtype=float))
    for start in range(EXACT_ROOT_LIMIT, k_max, NEWTON_PIECE):
        stop = min(start + NEWTON_PIECE, k_max)
        thetas[start:stop] = _newton_thetas(np.arange(start + 1, stop + 1, dtype=float))
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
    exp(-|x_i - x_j|), built one row at a time. Read-only."""
    h = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)
    operator = np.empty((n + 1, n + 1))
    weights = np.empty(n + 1)
    for i, row in enumerate(operator):
        weights[:] = 0.0
        weights[: i + 1] += _composite_weights(i, h)
        weights[i:] += _composite_weights(n - i, h)
        np.subtract(x[i], x, out=row)
        np.abs(row, out=row)
        np.negative(row, out=row)
        np.exp(row, out=row)
        np.multiply(weights, row, out=row)
    operator.setflags(write=False)
    return operator


def _operator_product(operator: np.ndarray, f: np.ndarray) -> np.ndarray:
    """operator @ f for a float64 operator and a complex vector, with the
    bits of that product, but casting RESIDUAL_ROWS rows of the operator to
    complex at a time instead of all of it. A block of one row takes
    another BLAS path with other bits, so a one-row tail joins the block
    before it."""
    rows = len(operator)
    starts = list(range(0, rows, RESIDUAL_ROWS))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    out = np.empty(rows, dtype=complex)
    for start, stop in zip(starts, starts[1:] + [rows]):
        out[start:stop] = operator[start:stop].astype(complex) @ f
    return out


def eigenfunction_residual(k: int, quadrature_points: int = 2048) -> float:
    """Relative L_2 residual ||T f - lambda f|| / ||f|| by kink-split Simpson.

    The eigenfunction is exp(i a x) - c exp(-i a x) with a = tan(theta_k) and
    c = (1 - i a)/(1 + i a); this c is the one that cancels both boundary
    terms of the integral identity (the same constant with flipped signs
    does not).
    """
    n = _check_int("quadrature_points", quadrature_points, 256)
    theta = solve_theta(k)
    alpha = math.tan(theta)
    lam = 2.0 * math.cos(theta) ** 2
    x = np.linspace(0.0, 1.0, n + 1)
    c = (1.0 - 1j * alpha) / (1.0 + 1j * alpha)
    f = np.exp(1j * alpha * x) - c * np.exp(-1j * alpha * x)
    h = 1.0 / n
    tf = _operator_product(_kink_split_operator(n), f)
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
    # sq_i exp(-|x_i - x_j|) sq_j, built in place in one n x n array
    a = np.subtract.outer(x, x)
    np.abs(a, out=a)
    np.negative(a, out=a)
    np.exp(a, out=a)
    a *= sq[:, None]
    a *= sq[None, :]
    return np.linalg.eigvalsh(a)[::-1]


@lru_cache(maxsize=1)
def _eigenvalue_table(k_max: int) -> np.ndarray:
    """2 cos^2(theta_k) for k = 1..k_max, read-only: exact bisection roots up
    to k = 1000, Newton-corrected tail beyond."""
    lambdas = _root_table(k_max)
    np.cos(lambdas, out=lambdas)
    np.square(lambdas, out=lambdas)
    lambdas *= 2.0
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
    table = _eigenvalue_table(max(ks))
    # the running sum one NEWTON_PIECE of terms at a time, each piece's first
    # term carrying the sum before it: the bits of np.cumsum(table ** p)
    wanted = sorted(set(ks))
    sums, carry = {}, 0.0
    for start in range(0, wanted[-1], NEWTON_PIECE):
        piece = table[start:start + NEWTON_PIECE] ** p
        piece[0] += carry
        np.cumsum(piece, out=piece)
        carry = piece[-1]
        for k in wanted:
            if start < k <= start + piece.size:
                sums[k] = piece[k - 1 - start]
    return np.array([sums[k] for k in ks])
