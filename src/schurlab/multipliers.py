"""Multiplier symbols acting in spectral coordinates.

A symbol m = (m_ij) indexed by the distinct spectra of two Hermitian operands
acts as T_m(z) = sum_ij m_ij P_i z Q_j. With the divided differences of f as
symbol this reproduces f(x) - f(y) = T_m(x - y) exactly on finite spectra;
the value at coincident eigenvalues is set to 0 because the paired block of
x - y vanishes identically.

Upper bounds come from rank-one sums (certified); lower bounds are witnessed
suprema of ||m o A||_p / ||A||_p over rank-one test matrices, so they are valid
for matrix algebras only. Every estimate records that scope along with the seed
and trial count for exact reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .experiments import _greedy_climb, trial_rng
from .operators import (SV_NOISE_RTOL, HermitianOperand, SchattenIndex, SignedPowerFunction,
                        _check_int, _check_theta, as_index, p_triangle_exponent, schatten_norms)
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
        # a float cast would drop the imaginary part with only a ComplexWarning
        if np.iscomplexobj(self.values):
            raise ValueError("symbol values must be real; complex symbols are not supported")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.rows.size, self.cols.size):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"({self.rows.size}, {self.cols.size})"
            )
        for name in ("rows", "cols", "values"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"symbol has non-finite {name}")

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
    """Witnessed lower bound, with the witness, seed and trial count behind it."""

    lower: float
    p: SchattenIndex
    witness: np.ndarray | None = None
    seed: int | None = None
    trials: int | None = None
    lower_scope: str = LOWER_BOUND_SCOPE

    def __post_init__(self):
        self.p = as_index(self.p)
        if self.lower < 0:
            raise ValueError("lower bound must be nonnegative")


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
    quadrature_points = _check_int("quadrature_points", quadrature_points, 2)
    nodes, weights = np.polynomial.legendre.leggauss(quadrature_points)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    return float(np.sum(w * theta * (t * x + (1.0 - t) * y) ** (theta - 1.0)))


def _check_spectrum(sym_axis: np.ndarray, operand: HermitianOperand, which: str):
    spec = operand.distinct_eigenvalues
    scale = 1.0 + np.abs(spec).max(initial=0.0)
    # written so that NaN fails too
    if (sym_axis.size != spec.size
            or not np.abs(sym_axis - spec).max() <= SPECTRUM_MATCH_ATOL * scale):
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


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _factor_step(values: np.ndarray, q: SchattenIndex, pair, scale: float):
    """Move unit vectors a, b >= 0 by ``scale`` along the normalised gradients
    of log||D_a m D_b||_q, clip at 0 and renormalise, so a b^T stays rank one.

    The gradient is G o m with G = U diag(w) V* from one SVD of D_a m D_b:
    w_i = s_i^(q-1) on the singular values above SV_NOISE_RTOL s_1 (smaller
    ones are roundoff, which q < 1 would amplify), or the top pair at q = inf.
    The climb steps only from points with D_a m D_b != 0, where
    <g b, a> = <g^T a, b> = sum_i w_i s_i > 0. So neither gradient is zero,
    and a step d along one has <a + scale d, a> > 1: the clipped vector keeps
    a positive entry and renormalises.
    """
    a, b = pair
    u, s, vh = np.linalg.svd(values * np.outer(a, b), full_matrices=False)
    w = np.zeros_like(s)
    if q.is_infinite:
        w[0] = 1.0
    else:
        keep = s > SV_NOISE_RTOL * s[0]
        w[keep] = s[keep] ** (q.value - 1.0)
    g = ((u * w) @ vh) * values
    return (_unit(np.maximum(a + scale * _unit(g @ b), 0.0)),
            _unit(np.maximum(b + scale * _unit(g.T @ a), 0.0)))


def multiplier_norm_lower(m: SymbolMatrix, p, trials: int = 16,
                          seed: int = 0) -> MultiplierNormEstimate:
    """Witnessed lower bound on the multiplier norm at index p.

    Deterministic for a fixed seed (per-trial seeds are derived from
    (seed, trial)), and monotone nondecreasing in ``trials`` because earlier
    trials are replayed identically. Test matrices are rank one, a b^T with
    a, b >= 0, which attain the norm at p <= 1 (the multiplier lemma in the
    README; above p = 1 they may fall short of it): the single entry at the
    first largest |m_ij| in row-major order (always included; its ratio is
    exactly |m_ij|), and per trial a, b = |standard normal| normalised,
    climbed by 50 gradient steps along the factors.
    """
    trials = _check_int("trials", trials, 1)
    seed = _check_int("seed", seed, 0)
    if m.values.size == 0:
        raise ValueError(f"cannot witness the norm of an empty symbol (shape {m.shape})")
    q = as_index(p)
    mag = np.abs(m.values)
    ij = np.unravel_index(np.argmax(mag), mag.shape)
    best_ratio = float(mag[ij])
    best_witness = None
    if best_ratio > 0:
        best_witness = np.zeros(m.shape)
        best_witness[ij] = 1.0
        for trial in range(trials):
            rng = trial_rng(seed, trial)
            start = (_unit(np.abs(rng.standard_normal(m.shape[0]))),
                     _unit(np.abs(rng.standard_normal(m.shape[1]))))
            (a, b), r = _greedy_climb(
                start, lambda ab: hadamard_ratio(m, np.outer(*ab), q),
                lambda ab, scale, _: _factor_step(m.values, q, ab, scale), rng, 50, 1.0, 1e-9)
            if r > best_ratio:
                best_ratio, best_witness = r, np.outer(a, b)
    return MultiplierNormEstimate(
        lower=best_ratio, p=q, witness=best_witness,
        seed=seed, trials=trials,
    )
