"""Multiplier symbols acting in spectral coordinates.

A symbol m = (m_ij) indexed by the distinct spectra of two Hermitian operands
acts as T_m(z) = sum_ij m_ij P_i z Q_j. With the divided differences of f as
symbol this reproduces f(x) - f(y) = T_m(x - y) exactly on finite spectra;
the value at coincident eigenvalues is set to 0 because the paired block of
x - y vanishes identically.

Upper bounds come from rank-one sums (certified); lower bounds are witnessed
suprema of ||m o A||_p / ||A||_p over matrix test families, so they are valid
for matrix algebras only. Every estimate records that gap along with the seed
and trial count for exact reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .experiments import _complex_gaussian, _greedy_climb, trial_rng
from .operators import (HermitianOperand, SchattenIndex, SignedPowerFunction, _check_theta,
                        as_index, p_triangle_exponent, schatten_norms)
from . import serialize

__all__ = [
    "SymbolMatrix",
    "MultiplierNormEstimate",
    "divided_difference_symbol",
    "divided_difference_integral",
    "schur_apply",
    "multiplier_norm_lower",
    "rank_one_sum_bound",
    "restrict_symbol",
]

SPECTRUM_MATCH_ATOL = 1e-12
LOWER_BOUND_SCOPE = "witnessed over matrix algebras only; certified upper bounds hold for all algebras"


@dataclass(eq=False)
class SymbolMatrix:
    """A multiplier symbol (m_ij) indexed by two spectra."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.rows = np.atleast_1d(np.asarray(self.rows, dtype=float))
        self.cols = np.atleast_1d(np.asarray(self.cols, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.rows.size, self.cols.size):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"({self.rows.size}, {self.cols.size})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("symbol has non-finite values")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def transpose(self) -> "SymbolMatrix":
        return SymbolMatrix(self.cols.copy(), self.rows.copy(), self.values.T.copy())

    def to_json(self) -> dict:
        return serialize.symbol_to_json(self.rows, self.cols, self.values)

    @classmethod
    def from_json(cls, obj: dict) -> "SymbolMatrix":
        rows, cols, values = serialize.symbol_from_json(obj)
        return cls(rows, cols, values)


@dataclass
class MultiplierNormEstimate:
    """Sandwich record: witnessed lower bound, optional certified upper bound."""

    lower: float
    p: SchattenIndex
    witness: np.ndarray | None = None
    upper: float | None = None
    seed: int | None = None
    trials: int | None = None
    lower_scope: str = LOWER_BOUND_SCOPE

    def __post_init__(self):
        self.p = as_index(self.p)
        if self.lower < 0:
            raise ValueError("lower bound must be nonnegative")
        if self.upper is not None and self.lower > self.upper + 1e-9:
            raise ValueError(
                f"sandwich violated: lower {self.lower!r} exceeds upper {self.upper!r}"
            )


def divided_difference_symbol(spec_x, spec_y, f: SignedPowerFunction) -> SymbolMatrix:
    """(f(x_i) - f(y_j)) / (x_i - y_j), with 0 at exact coincidences."""
    x = np.atleast_1d(np.asarray(spec_x, dtype=float))
    y = np.atleast_1d(np.asarray(spec_y, dtype=float))
    dx = x[:, None] - y[None, :]
    df = np.asarray(f(x))[:, None] - np.asarray(f(y))[None, :]
    vals = np.divide(df, dx, out=np.zeros_like(df), where=dx != 0)
    return SymbolMatrix(x, y, vals)


def divided_difference_integral(x: float, y: float, theta: float,
                                quadrature_points: int = 64) -> float:
    """Gauss-Legendre value of  int_0^1 theta (t x + (1-t) y)^(theta-1) dt.

    Equals (x^theta - y^theta)/(x - y) for x != y and theta x^(theta-1) at
    x = y; both arguments must be positive (the integrand is singular
    otherwise).
    """
    _check_theta(theta)
    if not (x > 0 and y > 0):
        raise ValueError("divided-difference integral requires x > 0 and y > 0")
    if quadrature_points < 2:
        raise ValueError("need at least 2 quadrature points")
    nodes, weights = np.polynomial.legendre.leggauss(int(quadrature_points))
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    return float(np.sum(w * theta * (t * x + (1.0 - t) * y) ** (theta - 1.0)))


def _check_spectrum(sym_axis: np.ndarray, operand: HermitianOperand, which: str):
    spec = operand.distinct_eigenvalues
    scale = 1.0 + np.abs(spec).max(initial=0.0)
    if sym_axis.size != spec.size or np.abs(sym_axis - spec).max() > SPECTRUM_MATCH_ATOL * scale:
        raise ValueError(
            f"symbol {which} ({sym_axis}) do not enumerate the operand's "
            f"distinct spectrum ({spec})"
        )


def schur_apply(m: SymbolMatrix, x: HermitianOperand, y: HermitianOperand, z) -> np.ndarray:
    """sum_ij m_ij P_i z Q_j in the spectral coordinates of x and y.

    Evaluated as U_x (M o (U_x* z U_y)) U_y* where M expands the symbol over
    eigenvalue multiplicities; linear in z.
    """
    _check_spectrum(m.rows, x, "rows")
    _check_spectrum(m.cols, y, "cols")
    z = np.asarray(z, dtype=complex)
    if z.shape != (x.dim, y.dim):
        raise ValueError(f"z has shape {z.shape}, expected ({x.dim}, {y.dim})")
    big = m.values[np.ix_(x.group_index, y.group_index)]
    ux, uy = x.eigenvectors, y.eigenvectors
    return ux @ (big * (ux.conj().T @ z @ uy)) @ uy.conj().T


def rank_one_sum_bound(alphas, f_sups, g_sups, p) -> float:
    """Certified bound ||alpha||_p * max_k(f_sup_k * g_sup_k) for p <= 1."""
    pv = p_triangle_exponent(p)
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    fs = np.atleast_1d(np.asarray(f_sups, dtype=float))
    gs = np.atleast_1d(np.asarray(g_sups, dtype=float))
    if not (a.size == fs.size == gs.size):
        raise ValueError(
            f"length mismatch: {a.size} coefficients, {fs.size} f-sups, {gs.size} g-sups"
        )
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite")
    sups = np.concatenate([fs, gs])
    if not np.all(np.isfinite(sups) & (sups >= 0)):
        raise ValueError("sup-norms must be finite and nonnegative")
    lp = float(np.sum(np.abs(a) ** pv) ** (1.0 / pv))
    return lp * float(np.max(fs * gs))


def restrict_symbol(m: SymbolMatrix, row_subset, col_subset) -> SymbolMatrix:
    """Restriction to index subsets; never increases the multiplier norm."""
    r = np.atleast_1d(np.asarray(row_subset, dtype=int))
    c = np.atleast_1d(np.asarray(col_subset, dtype=int))
    if r.size == 0 or c.size == 0:
        raise ValueError("row and column subsets must be nonempty")
    return SymbolMatrix(m.rows[r], m.cols[c], m.values[np.ix_(r, c)])


def hadamard_ratio(m: SymbolMatrix, a: np.ndarray, p) -> float:
    """||m o a||_p / ||a||_p for one test matrix (0 on degenerate input)."""
    q = as_index(p)
    if not q.is_infinite and q.value == 2.0:
        # Frobenius keeps the p=2 isometry cases exact.
        num, den = np.linalg.norm(m.values * a), np.linalg.norm(a)
    else:
        num, den = schatten_norms(np.stack([m.values * a, a]), q)
    if den < 1e-300:
        return 0.0
    return float(num / den)


def _entry_step(a: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    """A copy of ``a`` with one entry moved by +-scale along 1 or i."""
    nr, nc = a.shape
    i = int(rng.integers(nr))
    j = int(rng.integers(nc))
    delta = scale * (1.0 if rng.integers(2) else -1.0)
    part = 1.0 if rng.integers(2) else 1.0j
    cand = a.copy()
    cand[i, j] += delta * part
    return cand


def multiplier_norm_lower(m: SymbolMatrix, p, trials: int = 16,
                          seed: int = 0) -> MultiplierNormEstimate:
    """Witnessed lower bound on the multiplier norm at index p.

    Deterministic for a fixed seed (per-trial seeds are derived from
    (seed, trial)), and monotone nondecreasing in ``trials`` because earlier
    trials are replayed identically. Test families: the single-entry matrix
    at the first largest |m_ij| in row-major order (always included; its
    ratio is exactly |m_ij|), random rank-one a b*, and dense complex
    Gaussians, each refined by 50 greedy coordinate steps with halving.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if m.values.size == 0:
        raise ValueError(f"cannot witness the norm of an empty symbol (shape {m.shape})")
    q = as_index(p)
    best_ratio = 0.0
    best_witness = None
    mag = np.abs(m.values)
    ij = np.unravel_index(np.argmax(mag), mag.shape)
    if mag[ij] > 0:
        best_ratio = float(mag[ij])
        best_witness = np.zeros(m.shape, dtype=complex)
        best_witness[ij] = 1.0
    for trial in range(int(trials)):
        rng = trial_rng(seed, trial)
        nr, nc = m.shape
        g = _complex_gaussian(rng, (nr, nc))
        u = _complex_gaussian(rng, nr)
        v = _complex_gaussian(rng, nc)
        for cand in (g, np.outer(u, v.conj())):
            a, r = _greedy_climb(cand, lambda w: hadamard_ratio(m, w, q), _entry_step, rng,
                                 50, 0.5 * max(np.abs(cand).max(), 1e-12), 1e-12)
            if r > best_ratio:
                best_ratio, best_witness = r, a
    return MultiplierNormEstimate(
        lower=float(best_ratio), p=q, witness=best_witness,
        seed=int(seed), trials=int(trials),
    )
