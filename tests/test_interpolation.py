import math
import re

import numpy as np
import pytest

from schurlab import interpolation
from schurlab.interpolation import (
    KFunctionalQuery,
    RearrangementProfile,
    k_functional,
    kfonc_ratios,
    lorentz_norm,
    rearrangement,
    selfadjoint_k_gap,
    weak_lp_ratios,
)
from schurlab.experiments import ando_ratio
from schurlab.operators import (
    SchattenIndex,
    SignedPowerFunction,
    as_index,
    calculus_stack,
    decompose_stack,
    schatten_norm,
    spectral_decompose,
)

from conftest import random_hermitian, reference_sample, sample


def reference_kfonc_check(x, y, p0, p1, theta, signed, t, grid=128):
    """Reference: the K-functional ratio of one pair as it was computed before
    it shared the pair-difference path with the Lorentz ratio."""
    p0 = as_index(p0)
    p1 = as_index(p1)
    f = SignedPowerFunction(theta, signed)
    xy = decompose_stack([x, y])
    fxy = calculus_stack(xy, f).entries
    diff_f = fxy[1] - fxy[0]
    diff = xy.entries[1] - xy.entries[0]
    num = k_functional(diff_f, KFunctionalQuery(t**theta, p0 / theta, p1 / theta), grid)
    den_base = k_functional(diff, KFunctionalQuery(t, p0, p1), grid)
    den = den_base**theta if den_base > 0 else 0.0
    return reference_sample(num, den)


def reference_weak_lp_check(x, y, p, q, theta, signed):
    """Reference: the Lorentz ratio of one pair as it was computed before it
    shared the pair-difference path with the K-functional ratio."""
    f = SignedPowerFunction(theta, signed)
    xy = decompose_stack([x, y])
    qi = as_index(q)
    q_scaled = SchattenIndex.INF if qi.is_infinite else SchattenIndex(qi.value * theta)
    fxy = calculus_stack(xy, f).entries
    diff_f = fxy[1] - fxy[0]
    diff = xy.entries[1] - xy.entries[0]
    num = lorentz_norm(rearrangement(diff_f), p / theta, qi)
    den_base = lorentz_norm(rearrangement(diff), p, q_scaled)
    den = den_base**theta if den_base > 0 else 0.0
    return reference_sample(num, den)


def _reference_pairs(dim, count, seed):
    """Seeded Hermitian pairs of one dimension; the last pair is equal operands."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, dim]))
    pairs = [(random_hermitian(dim, rng), random_hermitian(dim, rng)) for _ in range(count)]
    return pairs + [(pairs[0][0], pairs[0][0].copy())]


def peetre_l1_linf(values, t):
    """Classical K_t(x; l_1, l_inf) = sum of the largest floor(t) values plus
    the fractional remainder of the next one."""
    s = np.sort(np.asarray(values, dtype=float))[::-1]
    n = s.size
    if t >= n:
        return float(s.sum())
    whole = int(np.floor(t))
    out = float(s[:whole].sum())
    if whole < n:
        out += (t - whole) * s[whole]
    return out


def exact_k_linf(values, t, p0):
    """K_t(v; l_p0, l_inf) and its minimising lambda = ||b||_inf. For a given
    lambda the best split clips: a = (v - lambda)_+; the l_p0 term is concave
    in lambda between breakpoints, so the least value sits at 0 or some v_i."""
    values = np.asarray(values, dtype=float)
    lams = np.concatenate(([0.0], values))
    objective = [np.sum(np.maximum(values - lam, 0.0) ** p0) ** (1.0 / p0) + t * lam
                 for lam in lams]
    k = int(np.argmin(objective))
    return objective[k], lams[k]


def one_step_from_exact(values, t, p0, lam, grid):
    """The objective at the exact split with every nonzero a_i raised by one
    grid step v_i / grid: a grid split exists at or below it."""
    a = np.maximum(values - lam, 0.0)
    a = np.where(a > 0, np.minimum(a + values / grid, values), 0.0)
    return np.sum(a ** p0) ** (1.0 / p0) + t * lam


def reference_objective(sigma, target, t, p0, p1):
    """Reference: the split objective ||sigma||_p0 + t ||target - sigma||_p1 as
    _descend took it for each start before it read it from its own terms."""
    a = np.abs(sigma)
    b = np.abs(target - sigma)
    n0 = np.sum(a ** p0.value) ** (1.0 / p0.value)
    if p1.is_infinite:
        n1 = b.max(initial=0.0)
    else:
        n1 = np.sum(b ** p1.value) ** (1.0 / p1.value)
    return float(n0 + t * n1)


def reference_descend(target, t, p0, p1, grid, extra_starts=()):
    """Reference: _descend as it was before its per-coordinate terms were
    formed once per call, over its prefix starts and ``extra_starts``."""
    n = target.size
    inits = [target.copy(), np.zeros(n)]
    for j in range(1, n):
        sig = target.copy()
        sig[j:] = 0.0
        inits.append(sig)
    inits += list(extra_starts)
    best_val = np.inf
    p0v = p0.value
    p1v = None if p1.is_infinite else p1.value
    for sigma in inits:
        sigma = sigma.copy()
        val = reference_objective(sigma, target, t, p0, p1)
        for _ in range(8):
            improved = False
            for i in range(n):
                cands = np.linspace(0.0, target[i], grid + 1)
                others0 = np.sum(np.abs(np.delete(sigma, i)) ** p0v)
                n0 = (others0 + np.abs(cands) ** p0v) ** (1.0 / p0v)
                rest = np.abs(np.delete(target - sigma, i))
                if p1v is None:
                    m = rest.max(initial=0.0)
                    n1 = np.maximum(m, np.abs(target[i] - cands))
                else:
                    others1 = np.sum(rest ** p1v)
                    n1 = (others1 + np.abs(target[i] - cands) ** p1v) ** (1.0 / p1v)
                obj = n0 + t * n1
                k = int(np.argmin(obj))
                if obj[k] < val - 1e-15 * (1.0 + val):
                    val = float(obj[k])
                    sigma[i] = cands[k]
                    improved = True
            if not improved:
                break
        best_val = min(best_val, val)
    return best_val


def _seeded_profiles(count, seed):
    """Nonincreasing profiles of 1-6 steps, spread over six decades."""
    rng = np.random.default_rng(seed)
    return [np.sort(rng.uniform(0, 3, int(rng.integers(1, 7))) * 10 ** rng.uniform(-3, 3))[::-1]
            for _ in range(count)]


class TestRearrangement:
    def test_diagonal(self):
        prof = rearrangement(np.diag([1.0, 3.0, 2.0]))
        assert np.allclose(prof.values, [3.0, 2.0, 1.0])

    def test_rank_one(self):
        prof = rearrangement(np.ones((2, 2)))
        assert np.allclose(prof.values, [2.0, 0.0], atol=1e-14)

    def test_gram_oracle(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        prof = rearrangement(a)
        gram = np.sort(np.sqrt(np.maximum(np.linalg.eigvalsh(a.conj().T @ a), 0.0)))[::-1]
        assert np.abs(prof.values - gram).max() < 1e-10

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            RearrangementProfile(np.array([1.0, 2.0]))

    def test_complex_vector_keeps_its_moduli(self):
        # a float cast before the modulus kept the real parts [0, 1, 0.5]
        v = [3j, 1 + 1j, 0.5]
        assert rearrangement(v).values.tolist() == [3.0, math.sqrt(2.0), 0.5]
        query = KFunctionalQuery(1.0, 0.5, 2.0)
        assert k_functional(v, query) == k_functional(np.abs(v), query)

    @pytest.mark.parametrize("a", [np.float64(2.0), np.ones((2, 2, 2))])
    def test_rejects_neither_vector_nor_matrix(self, a):
        # a 3-D array failed on an ambiguous truth value, a scalar in the SVD
        message = f"expected a vector or a matrix, got shape {np.shape(a)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            rearrangement(a)


class TestLorentzNorm:
    def test_two_step_sup(self):
        prof = RearrangementProfile(np.array([3.0, 1.0]))
        assert lorentz_norm(prof, 1.0, SchattenIndex.INF) == pytest.approx(3.0)

    def test_collapse_to_schatten(self, rng):
        a = random_hermitian(5, rng)
        for p in (0.5, 1.0, 2.0):
            lhs = lorentz_norm(rearrangement(a), p, p)
            rhs = schatten_norm(a, p)
            assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)
        # the profile's Schatten sum drops sub-roundoff values as schatten_norm does
        tiny = np.diag([1.0, 1e-20])
        assert rearrangement(tiny).schatten(0.5) == schatten_norm(tiny, 0.5) == 1.0

    def test_flat_profile_sup(self):
        n = 7
        prof = RearrangementProfile(np.ones(n))
        assert lorentz_norm(prof, 2.0, SchattenIndex.INF) == pytest.approx(np.sqrt(n))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            lorentz_norm(RearrangementProfile(np.array([1.0])), 0.0, 1.0)

    def test_complex_vector(self):
        # ||(3, 1)||_{1,1} = 3 + 1; the real parts alone gave 1
        assert lorentz_norm([3j, 1], 1, 1) == 4.0

    def test_rejects_infinite_p(self):
        # each step weight (p/q)(i^(q/p) - (i-1)^(q/p)) is inf * 0 at p = inf: NaN
        with pytest.raises(ValueError, match="p must be positive and finite, got p=inf"):
            lorentz_norm(np.diag([1.0, 0.5]), float("inf"), 1.0)


from hypothesis import given
from hypothesis import strategies as st


@given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_lorentz_diagonal_collapse_property(values, p):
    s = np.sort(np.asarray(values))[::-1]
    prof = RearrangementProfile(s)
    direct = float(np.sum(s**p) ** (1.0 / p)) if s.any() else 0.0
    assert lorentz_norm(prof, p, p) == pytest.approx(direct, abs=1e-12, rel=1e-12)


class TestKFunctional:
    def test_large_t_recovers_p0_norm(self, rng):
        a = random_hermitian(4, rng)
        prof = rearrangement(a)
        for p0, p1 in ((1.0, SchattenIndex.INF), (0.5, 2.0)):
            q = KFunctionalQuery(1e6, SchattenIndex(p0), SchattenIndex(p1))
            val = k_functional(prof, q, grid=64)
            target = prof.schatten(p0)
            assert abs(val - target) <= 1e-4 * target

    def test_classical_formula(self, rng):
        for _ in range(25):
            values = np.sort(rng.uniform(0, 3, 5))[::-1]
            prof = RearrangementProfile(values)
            for t in (0.5, 1.0, 2.5, 4.0):
                grid = 256
                val = k_functional(prof, KFunctionalQuery(t, SchattenIndex(1.0),
                                                          SchattenIndex.INF), grid)
                target = peetre_l1_linf(values, t)
                assert val >= target - 1e-12
                assert val <= target + 2.0 * values[0] / grid + 1e-9

    def test_scalar_case(self):
        prof = RearrangementProfile(np.array([1.0]))
        for t in (0.25, 1.0, 4.0):
            val = k_functional(prof, KFunctionalQuery(t, SchattenIndex(1.0),
                                                      SchattenIndex.INF), 64)
            assert val == pytest.approx(min(1.0, t), abs=1e-9)

    def test_concave_nondecreasing_in_t(self, rng):
        values = np.sort(rng.uniform(0, 2, 4))[::-1]
        prof = RearrangementProfile(values)
        ts = np.logspace(-1.5, 1.5, 20)
        q = lambda t: KFunctionalQuery(t, SchattenIndex(0.5), SchattenIndex(2.0))
        vals = np.array([k_functional(prof, q(t), 64) for t in ts])
        scale = vals.max()
        assert np.all(np.diff(vals) >= -1e-2 * scale)
        # concavity: nonuniform second differences stay below grid noise
        for i in range(1, len(ts) - 1):
            h1, h2 = ts[i] - ts[i - 1], ts[i + 1] - ts[i]
            second = (vals[i + 1] - vals[i]) / h2 - (vals[i] - vals[i - 1]) / h1
            assert second <= 2e-2 * scale / h1

    def test_monotone_under_grid_refinement(self, rng):
        values = np.sort(rng.uniform(0, 1, 5))[::-1]
        prof = RearrangementProfile(values)
        q = KFunctionalQuery(0.7, SchattenIndex(0.5), SchattenIndex(4.0))
        for g in (16, 32, 64, 128):
            coarse = k_functional(prof, q, g)
            fine = k_functional(prof, q, 2 * g)
            assert fine <= coarse + 1e-12

    @pytest.mark.parametrize("p0", [0.5, 1.0])
    def test_linf_oracle(self, p0):
        # exact K(t; l_p0, l_inf) over the breakpoints; the grid search is a
        # feasible split, so never below it, and within one grid step above
        grid = 64
        query = lambda t: KFunctionalQuery(t, SchattenIndex(p0), SchattenIndex.INF)
        for values in _seeded_profiles(25, seed=61):
            for t in (0.3, 1.0, 4.0, 10.0):
                exact, lam = exact_k_linf(values, t, p0)
                val = k_functional(RearrangementProfile(values), query(t), grid)
                assert val >= exact - 1e-12 * max(1.0, exact)
                assert val <= one_step_from_exact(values, t, p0, lam, grid) * (1 + 1e-12)

    def test_linf_oracle_where_single_moves_stall(self):
        # from the prefix starts alone the descent stalls at 29.22 here, 1.5%
        # above K = 28.81, and refining the grid does not help (29.42 at 1024)
        values = np.array([2.95000412, 2.94152393, 2.87522801, 2.5111411, 2.1495397, 1.72366995])
        exact, lam = exact_k_linf(values, 10.0, 0.5)
        val = k_functional(RearrangementProfile(values),
                           KFunctionalQuery(10.0, SchattenIndex(0.5), SchattenIndex.INF), 64)
        assert exact - 1e-12 <= val <= one_step_from_exact(values, 10.0, 0.5, lam, 64)

    @pytest.mark.parametrize("p0, p1", [(0.5, 2.0), (1.0, 4.0), (0.25, 0.75),
                                        (0.5, float("inf")), (1.0, float("inf"))])
    def test_descend_matches_reference_loop(self, p0, p1):
        p0, p1 = SchattenIndex(p0), SchattenIndex(p1)
        rng = np.random.default_rng(62)
        for values in _seeded_profiles(30, seed=63):
            t = float(10 ** rng.uniform(-2, 2))
            for grid in (16, 64):
                extra = ()
                if p1.is_infinite:
                    cands = [np.linspace(0.0, v, grid + 1) for v in values]
                    extra = interpolation._clipped_starts(values, cands)
                assert (interpolation._descend(values, t, p0, p1, grid)
                        == reference_descend(values, t, p0, p1, grid, extra))

    @pytest.mark.parametrize("t", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_nan_t(self, t):
        with pytest.raises(ValueError, match="t must be positive"):
            KFunctionalQuery(t, 0.5, 2.0)

    def test_rejects_bad_query(self):
        with pytest.raises(ValueError, match="p0 < p1"):
            KFunctionalQuery(1.0, SchattenIndex(2.0), SchattenIndex(1.0))
        with pytest.raises(ValueError):
            k_functional(RearrangementProfile(np.array([1.0])),
                         KFunctionalQuery(1.0, SchattenIndex(1.0), SchattenIndex.INF),
                         grid=4)


class TestSelfadjointGap:
    def test_diagonal_gap_zero(self):
        x = np.diag([2.0, -1.0, 0.5])
        q = KFunctionalQuery(1.0, SchattenIndex(1.0), SchattenIndex.INF)
        plain, sa = selfadjoint_k_gap(x, q, 64)
        assert sa == pytest.approx(plain, abs=1e-9)

    def test_p0_one_equality(self, rng):
        x = random_hermitian(4, rng)
        q = KFunctionalQuery(0.8, SchattenIndex(1.0), SchattenIndex.INF)
        plain, sa = selfadjoint_k_gap(x, q, 64)
        # factor 2^(max(1/p0,1)-1) = 1 at p0 = 1
        assert plain <= sa + 1e-9
        assert sa <= plain + 1e-9

    def test_half_factor_bound(self, rng):
        factor = 2.0 ** (1.0 / 0.5 - 1.0)
        for _ in range(10):
            x = np.diag(rng.standard_normal(4))
            q = KFunctionalQuery(1.3, SchattenIndex(0.5), SchattenIndex(2.0))
            plain, sa = selfadjoint_k_gap(x, q, 64)
            assert sa >= plain - 1e-9          # constrained infimum dominates
            assert plain >= sa / factor - 1e-9  # and is within the 2^(1/p0-1) factor


class TestKfoncCheck:
    def test_single_jump(self):
        s = kfonc_ratios(spectral_decompose(np.diag([1.0, 0.0])),
                         spectral_decompose(np.zeros((2, 2))),
                         1.0, SchattenIndex.INF, 0.5, False, ts=[1.0], grid=64)
        assert s.ratio[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_commuting_diagonals_finite(self, rng):
        x = np.diag(rng.standard_normal(4))
        y = np.diag(rng.standard_normal(4))
        s = kfonc_ratios(spectral_decompose(x), spectral_decompose(y), 0.5, 2.0, 0.5, True,
                         ts=[1.0], grid=64)
        assert np.isfinite(s.ratio[0, 0]) and s.ratio[0, 0] > 0

    def test_sweep_logged(self, rng):
        x = spectral_decompose(random_hermitian(3, rng))
        y = spectral_decompose(random_hermitian(3, rng))
        ratios = kfonc_ratios(x, y, 0.5, 2.0, 0.5, True, ts=(0.1, 1.0, 10.0), grid=32).ratio[0]
        assert ratios.shape == (3,) and np.all(np.isfinite(ratios))

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_reference_bitwise(self, dim):
        for x, y in _reference_pairs(dim, 3, seed=21):
            for p0, p1, theta, signed, t in ((0.5, 2.0, 0.5, True, 0.1),
                                             (1.0, SchattenIndex.INF, 0.3, False, 10.0)):
                s = kfonc_ratios(spectral_decompose(x), spectral_decompose(y),
                                 p0, p1, theta, signed, [t], grid=32)
                assert sample(s, 0, 0) == reference_kfonc_check(x, y, p0, p1, theta, signed, t,
                                                                grid=32)


class TestWeakLp:
    def test_collapse_to_power_ratio(self, rng):
        x, y = random_hermitian(4, rng), random_hermitian(4, rng)
        p, theta = 1.0, 0.5
        s = weak_lp_ratios(spectral_decompose(x), spectral_decompose(y), p, [p / theta], theta,
                           signed=True)
        a = ando_ratio(x, y, p, theta, signed=True)
        assert s.ratio[0, 0] == pytest.approx(a.ratio, rel=1e-10)

    def test_rank_one_exact(self):
        x = np.zeros((3, 3))
        x[0, 0] = 2.0
        s = weak_lp_ratios(spectral_decompose(x), spectral_decompose(np.zeros((3, 3))),
                           1.0, [1.0], 0.5, signed=False)
        assert s.ratio[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_sweep_over_q(self, rng):
        x = spectral_decompose(random_hermitian(5, rng))
        y = spectral_decompose(random_hermitian(5, rng))
        s = weak_lp_ratios(x, y, 1.0, (0.5, 1.0, SchattenIndex.INF), 0.5, signed=True)
        assert s.ratio.shape == (1, 3)
        assert np.all(np.isfinite(s.ratio)) and np.all(s.ratio > 0)

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_reference_bitwise(self, dim):
        for x, y in _reference_pairs(dim, 5, seed=22):
            for p, q, theta, signed in ((1.0, 0.5, 0.5, True), (0.5, SchattenIndex.INF, 0.3, False),
                                        (2.0, 1.0, 0.75, True)):
                s = weak_lp_ratios(spectral_decompose(x), spectral_decompose(y),
                                   p, [q], theta, signed)
                assert sample(s, 0, 0) == reference_weak_lp_check(x, y, p, q, theta, signed)


def _blocks(pairs, size):
    """The pairs cut into consecutive blocks of ``size``, as stacks with the
    pair indices they hold, so each pair sits at a position set by ``size``."""
    for lo in range(0, len(pairs), size):
        chunk = pairs[lo:lo + size]
        yield (range(lo, lo + len(chunk)), decompose_stack([x for x, _ in chunk]),
               decompose_stack([y for _, y in chunk]))


class TestBlockRatios:
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_kfonc_members_match_single_pairs_bitwise(self, dim):
        pairs = _reference_pairs(dim, 4, seed=31)
        for p0, p1, theta, signed, t in ((0.5, 2.0, 0.5, True, 0.1),
                                         (1.0, SchattenIndex.INF, 0.3, False, 10.0)):
            singles = [sample(kfonc_ratios(spectral_decompose(x), spectral_decompose(y),
                                           p0, p1, theta, signed, [t], grid=32), 0, 0)
                       for x, y in pairs]
            assert singles[0] == reference_kfonc_check(*pairs[0], p0, p1, theta, signed, t, grid=32)
            for size in (1, 2, 3, 5):
                for ids, xs, ys in _blocks(pairs, size):
                    block = kfonc_ratios(xs, ys, p0, p1, theta, signed, [t], grid=32)
                    for k, i in enumerate(ids):
                        assert sample(block, k, 0) == singles[i]

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_weak_lp_members_match_single_pairs_bitwise(self, dim):
        pairs = _reference_pairs(dim, 6, seed=32)
        for p, q, theta, signed in ((1.0, 0.5, 0.5, True), (0.5, SchattenIndex.INF, 0.3, False)):
            singles = [sample(weak_lp_ratios(spectral_decompose(x), spectral_decompose(y),
                                             p, [q], theta, signed), 0, 0) for x, y in pairs]
            assert singles[0] == reference_weak_lp_check(*pairs[0], p, q, theta, signed)
            for size in (1, 3, 4, 7):
                for ids, xs, ys in _blocks(pairs, size):
                    block = weak_lp_ratios(xs, ys, p, [q], theta, signed)
                    for k, i in enumerate(ids):
                        assert sample(block, k, 0) == singles[i]

    @pytest.mark.parametrize("dim", [1, 3, 5])
    @pytest.mark.parametrize("signed", [False, True])
    def test_case_columns_match_single_case_calls_bitwise(self, dim, signed):
        # every case is measured on the same rearranged differences; each
        # column of the case block has the bits of that case scored alone
        pairs = _reference_pairs(dim, 5, seed=33)
        xs, ys = decompose_stack([x for x, _ in pairs]), decompose_stack([y for _, y in pairs])
        ts = [0.1, 1.0, 4.0, 10.0]
        for p0, p1, theta in ((0.5, 2.0, 0.5), (1.0, SchattenIndex.INF, 0.3)):
            block = kfonc_ratios(xs, ys, p0, p1, theta, signed, ts, grid=32)
            assert block.numerator.shape == (len(pairs), len(ts))
            for j, t in enumerate(ts):
                alone = kfonc_ratios(xs, ys, p0, p1, theta, signed, [t], grid=32)
                for k in range(len(pairs)):
                    assert sample(block, k, j) == sample(alone, k, 0)
        qs = [0.25, 0.5, 1.0, SchattenIndex.INF]
        for p, theta in ((1.0, 0.5), (0.5, 0.3)):
            block = weak_lp_ratios(xs, ys, p, qs, theta, signed)
            assert block.numerator.shape == (len(pairs), len(qs))
            for j, q in enumerate(qs):
                alone = weak_lp_ratios(xs, ys, p, [q], theta, signed)
                for k in range(len(pairs)):
                    assert sample(block, k, j) == sample(alone, k, 0)

    @pytest.mark.parametrize("cases", [[], (), 1.0, np.float64(1.0)])
    def test_case_lists_must_be_nonempty_lists(self, cases):
        xs = decompose_stack([np.eye(2)])
        with pytest.raises(ValueError, match="ts must be a nonempty list"):
            kfonc_ratios(xs, xs, 0.5, 2.0, 0.5, True, cases)
        with pytest.raises(ValueError, match="qs must be a nonempty list"):
            weak_lp_ratios(xs, xs, 1.0, cases, 0.5, True)

    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan"), float("inf")])
    def test_weak_lp_rejects_nonpositive_or_nan_p(self, p):
        xs = decompose_stack([np.diag([1.0, 0.0])])
        with pytest.raises(ValueError, match="p must be positive"):
            weak_lp_ratios(xs, decompose_stack([np.zeros((2, 2))]), p, [1.0], 0.5, False)

    @pytest.mark.parametrize("t", [-1.0, 0.0, float("nan"), float("inf")])
    def test_kfonc_rejects_t_before_any_work(self, t, monkeypatch):
        import schurlab.interpolation as interpolation

        def no_work(*args, **kwargs):
            raise AssertionError("the functional calculus ran before t was checked")

        monkeypatch.setattr(interpolation, "calculus_stack", no_work)
        xs = decompose_stack([np.eye(2)])
        for ts in ([t], [1.0, t]):
            with pytest.raises(ValueError, match="t must be positive"):
                kfonc_ratios(xs, xs, 0.5, 2.0, 0.5, True, ts)
