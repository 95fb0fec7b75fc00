"""Decreasing rearrangements, Lorentz quasi-norms, and K-functionals.

The rearrangement of a finite matrix is the step function of its singular
values with unit step width, so every Lorentz integral reduces to an exact
finite sum. K-functionals are evaluated on the rearrangement side only (the
operator/profile equivalence constants are not reproduced) by a grid search
over coordinatewise splits: both quasi-norms are absolute and monotone, so
nonnegative aligned splits are optimal. Reported values are upper bounds that
converge to the infimum as the grid refines; a call at grid g internally
evaluates the whole dyadic ladder of coarser grids and returns the minimum,
which makes refinement monotone by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .experiments import RatioBlock, RatioSample, _as_stack, _single_sample, index_label
from .operators import (
    SchattenIndex,
    SignedPowerFunction,
    SpectralStack,
    _check_int,
    _schatten_from_singular,
    as_index,
    calculus_stack,
    singular_values,
    spectral_decompose,
)

__all__ = [
    "RearrangementProfile",
    "KFunctionalQuery",
    "rearrangement",
    "lorentz_norm",
    "k_functional",
    "selfadjoint_k_gap",
    "kfonc_check",
    "kfonc_ratios",
    "weak_lp_check",
    "weak_lp_ratios",
]

MIN_GRID = 16


@dataclass(eq=False)
class RearrangementProfile:
    """Nonincreasing singular-value step function mu_t with unit step width."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.values.size == 0:
            raise ValueError("profile must be nonempty")
        if not np.all(np.isfinite(self.values) & (self.values >= -1e-15)):
            raise ValueError("singular values must be finite and nonnegative")
        self.values = np.maximum(self.values, 0.0)
        if np.any(np.diff(self.values) > 1e-12 * max(1.0, self.values[0])):
            raise ValueError("profile must be nonincreasing")

    def schatten(self, p) -> float:
        return float(_schatten_from_singular(self.values, p))


def rearrangement(a) -> RearrangementProfile:
    """Descending singular values as a step profile."""
    a = np.asarray(a)
    if a.ndim == 1:
        vals = np.sort(np.abs(np.asarray(a, dtype=float)))[::-1]
    else:
        vals = singular_values(a)
    return RearrangementProfile(vals)


def lorentz_norm(mu, p: float, q) -> float:
    """|| t^(1/p) mu_t ||_{L_q(dt/t)} evaluated exactly on the step profile.

    For q < infinity this is (sum_i s_i^q (p/q)(i^{q/p} - (i-1)^{q/p}))^{1/q};
    at q = infinity the supremum over each step is attained at its right
    endpoint, giving max_i i^{1/p} s_i.
    """
    if not isinstance(mu, RearrangementProfile):
        mu = rearrangement(mu)
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got p={p!r}")
    qi = as_index(q)
    s = mu.values
    edges = np.arange(s.size + 1, dtype=float)
    if qi.is_infinite:
        return float(np.max(edges[1:] ** (1.0 / p) * s))
    qv = qi.value
    pieces = (p / qv) * (edges[1:] ** (qv / p) - edges[:-1] ** (qv / p))
    return float(np.sum(s**qv * pieces) ** (1.0 / qv))


@dataclass(frozen=True)
class KFunctionalQuery:
    """Parameters of K_t(x; l_{p0}, l_{p1})."""

    t: float
    p0: SchattenIndex
    p1: SchattenIndex

    def __post_init__(self):
        object.__setattr__(self, "p0", as_index(self.p0))
        object.__setattr__(self, "p1", as_index(self.p1))
        if not 0 < self.t < math.inf:
            raise ValueError(f"t must be positive and finite, got t={self.t!r}")
        if not self.p0 < self.p1:
            raise ValueError("need p0 < p1")
        if self.p0.is_infinite:
            raise ValueError("p0 must be finite")


def _split_objective(sigma: np.ndarray, target: np.ndarray, t: float,
                     p0: SchattenIndex, p1: SchattenIndex) -> float:
    a = np.abs(sigma)
    b = np.abs(target - sigma)
    n0 = np.sum(a ** p0.value) ** (1.0 / p0.value)
    if p1.is_infinite:
        n1 = b.max(initial=0.0)
    else:
        n1 = np.sum(b ** p1.value) ** (1.0 / p1.value)
    return float(n0 + t * n1)


def _clipped_starts(target: np.ndarray, cands: list[np.ndarray]) -> list[np.ndarray]:
    """The splits (v - v_j)_+ for j >= 1, each coordinate rounded up onto its
    candidate grid, so that ||v - sigma||_inf <= v_j.

    At p1 = inf, K is the least over lambda of ||(v - lambda)_+||_{p0} + t lambda,
    attained at a breakpoint v_j (the p0 term is concave in lambda between
    them), so these starts lie within one grid step of the optimum. From the
    prefix starts alone, one-coordinate moves can stall far above it at p0 < 1.
    """
    return [np.array([c[np.searchsorted(c, target[i] - lam)] for i, c in enumerate(cands)])
            for lam in target[1:]]


def _descend(target: np.ndarray, t: float, p0: SchattenIndex, p1: SchattenIndex,
             grid: int) -> float:
    """Coordinate-descent grid search over aligned splits sigma_i in [0, v_i]."""
    n = target.size
    inits = [target, np.zeros(n)]
    for j in range(1, n):
        sig = target.copy()
        sig[j:] = 0.0
        inits.append(sig)
    best_val = np.inf
    p0v = p0.value
    p1v = None if p1.is_infinite else p1.value

    def p1_part(a):  # |a|^p1, or |a| when p1 = inf (the max-norm keeps it unpowered)
        return np.abs(a) if p1v is None else np.abs(a) ** p1v

    # each coordinate's candidates and their terms, formed once: a move
    # only swaps one coordinate's term for another of its candidates'
    cands = [np.linspace(0.0, target[i], grid + 1) for i in range(n)]
    if p1v is None:
        inits += _clipped_starts(target, cands)
    terms0 = [np.abs(c) ** p0v for c in cands]
    terms1 = [p1_part(target[i] - c) for i, c in enumerate(cands)]
    for sigma in inits:
        val = _split_objective(sigma, target, t, p0, p1)
        cur0, cur1 = np.abs(sigma) ** p0v, p1_part(target - sigma)
        for _ in range(8):
            improved = False
            for i in range(n):
                # the other coordinates' terms, summed in coordinate order
                others0 = np.sum(np.concatenate((cur0[:i], cur0[i + 1:])))
                n0 = (others0 + terms0[i]) ** (1.0 / p0v)
                rest = np.concatenate((cur1[:i], cur1[i + 1:]))
                if p1v is None:
                    n1 = np.maximum(rest.max(initial=0.0), terms1[i])
                else:
                    n1 = (np.sum(rest) + terms1[i]) ** (1.0 / p1v)
                obj = n0 + t * n1
                k = int(np.argmin(obj))
                if obj[k] < val - 1e-15 * (1.0 + val):
                    val = float(obj[k])
                    cur0[i], cur1[i] = terms0[i][k], terms1[i][k]
                    improved = True
            if not improved:
                break
        best_val = min(best_val, val)
    return best_val


def _grid_ladder(grid: int) -> list[int]:
    grids = []
    while grid >= MIN_GRID:
        grids.append(grid)
        grid //= 2
    return grids


def k_functional(x, query: KFunctionalQuery, grid: int = 256) -> float:
    """Grid-search K_t(mu(x); l_{p0}, l_{p1}); an upper bound tightening with grid."""
    grid = _check_int("grid", grid, MIN_GRID)
    mu = x if isinstance(x, RearrangementProfile) else rearrangement(x)
    if not np.any(mu.values):
        return 0.0
    return min(_descend(mu.values, query.t, query.p0, query.p1, g) for g in _grid_ladder(grid))


def selfadjoint_k_gap(x, query: KFunctionalQuery, grid: int = 256) -> tuple[float, float]:
    """(K_t, selfadjoint K_t upper value) for a Hermitian operand.

    The constrained value splits the signed eigenvalue sequence; for real
    scalars the optimal constrained split is sign-aligned, so it coincides
    with the rearrangement-side value up to grid resolution (gap 0 for
    diagonal operands).
    """
    op = x if hasattr(x, "eigenvalues") else spectral_decompose(np.asarray(x))
    plain = k_functional(rearrangement(op.entries), query, grid)
    # sign-aligned splits are optimal, so the constrained search runs on the
    # magnitudes; sorting makes it comparable with the rearrangement side
    mags = np.sort(np.abs(op.eigenvalues))[::-1]
    return plain, k_functional(RearrangementProfile(mags), query, grid)


def _difference_ratios(x: SpectralStack, y: SpectralStack, f: SignedPowerFunction,
                       images, measure_f, measure) -> RatioBlock:
    """measure_f(f(y) - f(x)) / measure(y - x)^theta for each member pair of
    two stacks, one member at a time; ``images`` is the pair of entry stacks
    (f(x), f(y)), or None to compute them here."""
    if images is None:
        images = calculus_stack(x, f).entries, calculus_stack(y, f).entries
    fx, fy = images
    num, den = [], []
    for i in range(x.entries.shape[0]):
        num.append(measure_f(fy[i] - fx[i]))
        base = measure(y.entries[i] - x.entries[i])
        # scalar (libm) powers: numpy's array power can round the other way
        den.append(base**f.theta if base > 0 else 0.0)
    return RatioBlock(np.array(num), np.array(den))


def kfonc_ratios(x: SpectralStack, y: SpectralStack, p0, p1, theta: float, signed: bool,
                 t: float, grid: int = 128, images=None) -> RatioBlock:
    """K_{t^theta}(f(y) - f(x)) at indices (p0/theta, p1/theta) against
    K_t(y - x)^theta at (p0, p1), for each member pair. ``images`` may pass
    in the entry stacks (f(x), f(y)) that a caller scoring several cases
    on the same stacks computed once."""
    f = SignedPowerFunction(theta, signed)
    query = KFunctionalQuery(t, p0, p1)  # rejects t before t**theta is taken
    query_f = KFunctionalQuery(t**theta, query.p0 / theta, query.p1 / theta)
    return _difference_ratios(x, y, f, images, lambda d: k_functional(d, query_f, grid),
                              lambda d: k_functional(d, query, grid))


def kfonc_check(x, y, p0, p1, theta: float, signed: bool, t: float,
                grid: int = 128) -> RatioSample:
    """The kfonc_ratios sample of one pair x, y."""
    xs, ys = _as_stack(x), _as_stack(y)
    return _single_sample(kfonc_ratios(xs, ys, p0, p1, theta, signed, t, grid),
                          (xs.entries[0], ys.entries[0]), p0=index_label(p0),
                          p1=index_label(p1), t=t, theta=theta, signed=signed)


def weak_lp_ratios(x: SpectralStack, y: SpectralStack, p: float, q, theta: float,
                   signed: bool, images=None) -> RatioBlock:
    """Lorentz-norm Hölder ratios ||f(y)-f(x)||_{p/theta, q} / ||y-x||_{p, q theta}^theta
    for each member pair; ``images`` as in ``kfonc_ratios``."""
    f = SignedPowerFunction(theta, signed)
    qi = as_index(q)
    q_scaled = SchattenIndex.INF if qi.is_infinite else SchattenIndex(qi.value * theta)
    return _difference_ratios(x, y, f, images, lambda d: lorentz_norm(d, p / theta, qi),
                              lambda d: lorentz_norm(d, p, q_scaled))


def weak_lp_check(x, y, p: float, q, theta: float, signed: bool) -> RatioSample:
    """The weak_lp_ratios sample of one pair x, y."""
    xs, ys = _as_stack(x), _as_stack(y)
    return _single_sample(weak_lp_ratios(xs, ys, p, q, theta, signed),
                          (xs.entries[0], ys.entries[0]), p=p, q=index_label(q),
                          theta=theta, signed=signed)
