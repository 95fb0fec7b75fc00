import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from schurlab.experiments import estimate_constant
from schurlab.expkernel import (analytic_eigenvalues, eigenfunction_residual, nystrom_spectrum,
                                schatten_partial_sums, solve_theta)
from schurlab.factorization import (build_factorization, dyadic_block_bound, make_kernel,
                                    plus_kernel_bound, sobolev_constant, sobolev_order,
                                    sum_quadrant_bound)
from schurlab.interpolation import (KFunctionalQuery, RearrangementProfile, k_functional,
                                    lorentz_norm)
from schurlab.multipliers import (
    SymbolMatrix,
    divided_difference_integral,
    divided_difference_symbol,
    hadamard_ratio,
    multiplier_norm_lower,
    rank_one_sum_bound,
    restrict_symbol,
    schur_apply,
)
from schurlab.operators import (
    SchattenIndex,
    SignedPowerFunction,
    apply_calculus,
    schatten_norms,
    spectral_decompose,
)

from conftest import random_hermitian


def separated_hermitian(dim, rng, gap=1e-3):
    """Hermitian matrix whose spectrum has gaps above the grouping threshold."""
    vals = np.sort(rng.standard_normal(dim))[::-1]
    while np.any(-np.diff(vals) < gap):
        vals = np.sort(rng.standard_normal(dim))[::-1]
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(g)
    h = (u * vals) @ u.conj().T
    return 0.5 * (h + h.conj().T)


class TestDividedDifferenceSymbol:
    def test_simple_value(self):
        f = SignedPowerFunction(0.5, signed=False)
        m = divided_difference_symbol([4.0], [1.0], f)
        assert m.values[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_coincidence_convention(self):
        f = SignedPowerFunction(0.5, signed=False)
        m = divided_difference_symbol([2.0], [2.0], f)
        assert m.values[0, 0] == 0.0

    def test_unit_step(self):
        for theta in (0.25, 0.5, 0.9):
            f = SignedPowerFunction(theta, signed=False)
            m = divided_difference_symbol([1.0], [0.0], f)
            assert m.values[0, 0] == pytest.approx(1.0)


class TestDividedDifferenceIntegral:
    def test_closed_form(self):
        assert divided_difference_integral(4.0, 1.0, 0.5) == pytest.approx(1 / 3, abs=1e-14)

    def test_equal_arguments(self):
        for theta in (0.25, 0.5, 0.75):
            assert divided_difference_integral(1.0, 1.0, theta) == pytest.approx(theta, abs=1e-12)

    def test_direct_formula_oracle(self):
        x, y, theta = 2.0, 0.5, 0.3
        direct = (x**theta - y**theta) / (x - y)
        assert divided_difference_integral(x, y, theta) == pytest.approx(direct, abs=1e-10)

    def test_grid_agreement(self):
        # matches the quotient within 1e-10 over the articulated range
        for x in (0.25, 1.0, 4.0):
            for y in (0.25, 0.7, 4.0):
                for theta in (0.25, 0.5, 0.75):
                    direct = (theta * x ** (theta - 1) if x == y
                              else (x**theta - y**theta) / (x - y))
                    got = divided_difference_integral(x, y, theta, 64)
                    assert got == pytest.approx(direct, abs=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divided_difference_integral(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            divided_difference_integral(1.0, 0.0, 0.5)


NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda: schatten_partial_sums(NAN, [10]), "p must be positive and finite"),
    (lambda: schatten_partial_sums(math.inf, [10]), "p must be positive and finite"),
    (lambda: divided_difference_integral(NAN, 1.0, 0.5), "requires x > 0 and y > 0"),
    (lambda: divided_difference_integral(1.0, NAN, 0.5), "requires x > 0 and y > 0"),
    (lambda: rank_one_sum_bound([1.0], [NAN], [1.0], 0.5), "sup-norms must be finite"),
    (lambda: rank_one_sum_bound([1.0], [1.0], [math.inf], 0.5), "sup-norms must be finite"),
    (lambda: rank_one_sum_bound([NAN], [1.0], [1.0], 0.5), "coefficients must be finite"),
    (lambda: rank_one_sum_bound([], [], [], 0.5), "need equal nonzero lengths, got 0"),
    (lambda: lorentz_norm(np.array([1.0, NAN]), 1.0, 1.0), "singular values must be finite"),
    (lambda: RearrangementProfile([math.inf, 1.0]), "singular values must be finite"),
    (lambda: sum_quadrant_bound(math.inf, 2.0, 0.5, 0.5), "both finite; got a=inf, b=2.0"),
    (lambda: sum_quadrant_bound(1.0, math.inf, 0.5, 0.5), "both finite; got a=1.0, b=inf"),
    (lambda: plus_kernel_bound(math.inf, 1.0, None, 256), "requires a >= 1 and finite, got a = inf"),
    (lambda: schur_apply(SymbolMatrix([NAN, 1.0], [3.0, -1.0], np.ones((2, 2))),
                         spectral_decompose(np.diag([2.0, 1.0])),
                         spectral_decompose(np.diag([3.0, -1.0])), np.eye(2)),
     "symbol has non-finite rows"),
    (lambda: SymbolMatrix([0.0, 1.0], [0.0, -math.inf], np.ones((2, 2))),
     "symbol has non-finite cols"),
    (lambda: SymbolMatrix([0.0, 1.0], [0.0, 1.0], np.exp(1j * np.ones((2, 2)))),
     "symbol values must be real"),
], ids=["partial-sums-nan-p", "partial-sums-inf-p", "integral-nan-x", "integral-nan-y",
        "rank-one-nan-sup", "rank-one-inf-sup", "rank-one-nan-coefficient", "rank-one-empty",
        "lorentz-nan-value", "profile-inf-value",
        "quadrant-inf-a", "quadrant-inf-b", "plus-inf-a", "symbol-nan-rows", "symbol-inf-cols",
        "symbol-complex-values"])
def test_non_finite_inputs_rejected(call, message):
    # each of these returned a value (NaN, 0 for an infinite p or a, a Schur
    # product for a symbol whose NaN rows passed as the operand's spectrum)
    # or failed with something other than a ValueError (an empty rank-one
    # sum with numpy's "zero-size array"); complex symbol values kept only
    # their real part
    with pytest.raises(ValueError, match=message):
        call()


def _kernel_coefficients(grid_size):
    kernel = make_kernel("cosine-product", grid_size=grid_size)
    return kernel.grid_size, kernel.coefficients()


def _small_symbol():
    return SymbolMatrix([0.0, 1.0, 2.0], [0.5, 1.5],
                        np.array([[1.0, -0.5], [0.25, 2.0], [-1.0, 0.75]]))


def _checkpointed_search(every):
    """A small search's report and the checkpoint states it hands out."""
    states = []
    report = estimate_constant(0.5, 0.5, True, [2], 5, checkpoint_every=every,
                               checkpoint_cb=states.append)
    return report, states


# (parameter name in the message, minimum, an accepted value, the call)
INTEGER_PARAMETERS = {
    "grid-size": ("grid_size", 64, 64, _kernel_coefficients),
    "mode-cutoff": ("mode_cutoff", 1, 3, lambda v: build_factorization(
        make_kernel("cosine-product", grid_size=64), 2, 1.0, mode_cutoff=v)),
    "dyadic-k": ("k", -1, 2, lambda v: dyadic_block_bound(0.5, 0.5, v, 1.0)),
    "solve-theta-k": ("k", 1, 3, solve_theta),
    "eigenvalues-kmax": ("k_max", 1, 5, analytic_eigenvalues),
    "sobolev-constant-d": ("d", 1, 2, lambda v: sobolev_constant(
        make_kernel("von-mises", grid_size=64), v)),
    "sobolev-order-d": ("d", 1, 3, lambda v: sobolev_order(0.5, v)),
    "constant-trials": ("trials", 1, 3, lambda v: estimate_constant(0.5, 0.5, True, [2], v)),
    "constant-dims": ("dims[0]", 1, 2, lambda v: estimate_constant(0.5, 0.5, True, [v], 3)),
    "constant-seed": ("seed", 0, 1, lambda v: estimate_constant(0.5, 0.5, True, [2], 3, v)),
    "constant-checkpoint-every": ("checkpoint_every", 1, 2, _checkpointed_search),
    "witness-trials": ("trials", 1, 2, lambda v: multiplier_norm_lower(
        _small_symbol(), 0.5, trials=v)),
    "witness-seed": ("seed", 0, 1, lambda v: multiplier_norm_lower(
        _small_symbol(), 0.5, trials=2, seed=v)),
    "k-functional-grid": ("grid", 16, 16, lambda v: k_functional(
        np.diag([3.0, 1.0, 0.5]), KFunctionalQuery(1.0, 0.5, 2.0), grid=v)),
    "partial-sums-K": ("K_list[1]", 1, 10, lambda v: schatten_partial_sums(0.5, [5, v])),
    "integral-nodes": ("quadrature_points", 2, 8,
                       lambda v: divided_difference_integral(2.0, 0.5, 0.5, v)),
    "residual-nodes": ("quadrature_points", 256, 256, lambda v: eigenfunction_residual(1, v)),
    "nystrom-n": ("n", 64, 64, nystrom_spectrum),
}


def _bits(result):
    """Every value a result holds, with its type, so that a float 3.0 left
    where the int 3 belongs, or one changed bit, compares unequal."""
    if isinstance(result, np.ndarray):
        return ("array", result.dtype.str, result.shape, result.tobytes())
    if dataclasses.is_dataclass(result):
        return _bits(vars(result))
    if isinstance(result, dict):
        return {key: _bits(value) for key, value in result.items()}
    if isinstance(result, (list, tuple)):
        return [_bits(value) for value in result]
    return repr(result)


@pytest.mark.parametrize("case", INTEGER_PARAMETERS)
@pytest.mark.parametrize("bad", ["fractional", "half", "nan", "inf", "below-minimum"])
def test_integer_parameter_rejected(case, bad):
    # each count, size or index is an exact integer: several entry points
    # truncated 2.5 to 2 or turned NaN into a TypeError or a failed bracket,
    # and a checkpoint interval of 0.5 divided by int(0.5) = 0
    name, minimum, _, call = INTEGER_PARAMETERS[case]
    value = {"fractional": 2.5, "half": 0.5, "nan": NAN, "inf": math.inf,
             "below-minimum": minimum - 1}[bad]
    message = f"{name} must be an integer >= {minimum}, got {value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


@pytest.mark.parametrize("case", INTEGER_PARAMETERS)
def test_integral_float_is_the_integer(case):
    _, _, value, call = INTEGER_PARAMETERS[case]
    assert _bits(call(float(value))) == _bits(call(value))


class TestSchurApply:
    def test_constant_symbol_is_identity(self, rng):
        x = spectral_decompose(random_hermitian(4, rng))
        y = spectral_decompose(random_hermitian(4, rng))
        m = SymbolMatrix(x.distinct_eigenvalues, y.distinct_eigenvalues,
                         np.ones((x.distinct_eigenvalues.size, y.distinct_eigenvalues.size)))
        z = random_hermitian(4, rng)
        assert np.abs(schur_apply(m, x, y, z) - z).max() < 1e-12

    def test_divided_difference_identity(self, rng):
        for theta in (0.25, 0.5, 0.75):
            for signed in (False, True):
                f = SignedPowerFunction(theta, signed)
                x = spectral_decompose(separated_hermitian(6, rng))
                y = spectral_decompose(separated_hermitian(6, rng))
                m = divided_difference_symbol(
                    x.distinct_eigenvalues, y.distinct_eigenvalues, f)
                lhs = apply_calculus(x, f).entries - apply_calculus(y, f).entries
                rhs = schur_apply(m, x, y, x.entries - y.entries)
                scale = max(x.spectral_radius, y.spectral_radius) ** theta
                assert np.abs(lhs - rhs).max() <= 1e-9 * scale

    def test_diagonal_reduces_to_hadamard(self, rng):
        xv = np.array([3.0, 1.0])
        yv = np.array([2.0, -1.0])
        x = spectral_decompose(np.diag(xv))
        y = spectral_decompose(np.diag(yv))
        vals = rng.standard_normal((2, 2))
        m = SymbolMatrix(xv, yv, vals)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.abs(schur_apply(m, x, y, z) - vals * z).max() < 1e-12

    def test_linearity(self, rng):
        x = spectral_decompose(separated_hermitian(4, rng))
        y = spectral_decompose(separated_hermitian(4, rng))
        m = divided_difference_symbol(x.distinct_eigenvalues, y.distinct_eigenvalues,
                                      SignedPowerFunction(0.5))
        z1 = random_hermitian(4, rng)
        z2 = random_hermitian(4, rng)
        lhs = schur_apply(m, x, y, 2.0 * z1 + 1j * z2)
        rhs = 2.0 * schur_apply(m, x, y, z1) + 1j * schur_apply(m, x, y, z2)
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())

    def test_adjoint_compatibility(self, rng):
        x = spectral_decompose(separated_hermitian(4, rng))
        y = spectral_decompose(separated_hermitian(4, rng))
        m = divided_difference_symbol(x.distinct_eigenvalues, y.distinct_eigenvalues,
                                      SignedPowerFunction(0.5, signed=True))
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = schur_apply(m, x, y, z).conj().T
        rhs = schur_apply(m.transpose(), y, x, z.conj().T)
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())

    def test_spectrum_mismatch_rejected(self, rng):
        x = spectral_decompose(np.diag([3.0, 1.0]))
        y = spectral_decompose(np.diag([2.0, 0.0]))
        m = SymbolMatrix([3.0, 1.5], [2.0, 0.0], np.ones((2, 2)))
        with pytest.raises(ValueError, match="spectrum"):
            schur_apply(m, x, y, np.eye(2))


class TestRankOneSumBound:
    def test_single_term(self):
        assert rank_one_sum_bound([1.0], [1.0], [1.0], 1.0) == 1.0

    def test_two_terms_half(self):
        assert rank_one_sum_bound([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], 0.5) == pytest.approx(4.0)

    def test_geometric(self):
        alphas = [2.0**-k for k in range(11)]
        ones = np.ones(11)
        assert rank_one_sum_bound(alphas, ones, ones, 1.0) == pytest.approx(2 - 2.0**-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            rank_one_sum_bound([1.0, 2.0], [1.0], [1.0], 0.5)

    def test_rejects_p_above_one(self):
        with pytest.raises(ValueError):
            rank_one_sum_bound([1.0], [1.0], [1.0], 2.0)


class TestMultiplierNormLower:
    def test_constant_symbol_exact(self):
        m = SymbolMatrix([0.0, 1.0], [0.0, 1.0], np.ones((2, 2)))
        for p in (0.5, 1.0, 2.0, SchattenIndex.INF):
            est = multiplier_norm_lower(m, p, trials=2, seed=3)
            assert est.lower == 1.0

    def test_sign_symbol_isometric_on_frobenius(self):
        m = SymbolMatrix([0.0, 1.0], [0.0, 1.0], np.array([[1.0, 1.0], [1.0, -1.0]]))
        est = multiplier_norm_lower(m, 2.0, trials=4, seed=0)
        assert est.lower == 1.0

    def test_rank_one_symbol_bounded(self, rng):
        # m = f g^T has norm exactly max|f| max|g| at every p: the single-entry
        # witness attains it and ||D_f x D_g||_p <= ||f||_inf ||x||_p ||g||_inf
        f = rng.standard_normal(3)
        g = rng.standard_normal(4)
        m = SymbolMatrix(np.arange(3.0), np.arange(4.0), np.outer(f, g))
        cap = np.abs(f).max() * np.abs(g).max()
        for p in (0.25, 0.5, 1.0, 2.0, "inf"):
            for seed in range(5):
                est = multiplier_norm_lower(m, p, trials=4, seed=seed)
                assert est.lower == pytest.approx(cap, rel=1e-12, abs=0), (p, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_frobenius_norm_is_largest_entry(self, seed):
        # at p = 2 the multiplier norm is max|m_ij|, which the single-entry
        # witness attains and no refinement can beat
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 5
        spec = np.arange(dim + 0.0)
        m = SymbolMatrix(spec, spec, rng.standard_normal((dim, dim)))
        est = multiplier_norm_lower(m, 2.0, trials=4, seed=seed)
        assert est.lower == pytest.approx(np.abs(m.values).max(), rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [1.0, "inf"])
    @pytest.mark.parametrize("seed", range(6))
    def test_psd_symbol_bounded_by_largest_diagonal(self, seed, p):
        # a positive semidefinite symbol has norm max_i m_ii at p = 1 and p = inf
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 5
        b = rng.standard_normal((dim, dim))
        spec = np.arange(dim + 0.0)
        m = SymbolMatrix(spec, spec, b @ b.T)
        est = multiplier_norm_lower(m, p, trials=4, seed=seed)
        assert est.lower <= np.diag(m.values).max() * (1 + 1e-12)

    def test_monotone_in_trials(self):
        vals = np.array([[1.0, 2.0, 0.3], [0.5, -1.0, 2.5]])
        m = SymbolMatrix([0.0, 1.0], [0.0, 1.0, 2.0], vals)
        lows = [multiplier_norm_lower(m, 0.7, trials=t, seed=11).lower for t in (1, 3, 9)]
        assert lows[0] <= lows[1] <= lows[2]

    def test_deterministic_per_seed(self):
        vals = np.array([[1.0, 2.0], [0.5, -1.0]])
        m = SymbolMatrix([0.0, 1.0], [0.0, 1.0], vals)
        a = multiplier_norm_lower(m, 0.5, trials=5, seed=7)
        b = multiplier_norm_lower(m, 0.5, trials=5, seed=7)
        assert a.lower == b.lower
        assert np.array_equal(a.witness, b.witness)

    def test_refined_witness_bits_pinned(self):
        # the best witness here is a climbed one, not the largest entry, so a
        # change to the climb's draws, steps or acceptance moves these
        # literals; the rank-one sup is 2.6188008535 (64 L-BFGS starts)
        m = divided_difference_symbol([1.0, -0.5, -2.0], [1.0, 0.5, -1.0],
                                      SignedPowerFunction(0.5, True))
        est = multiplier_norm_lower(m, 0.5, trials=3, seed=0)
        assert est.lower >= 2.6188
        assert est.lower == 2.6188008534753116
        digest = hashlib.sha256(np.ascontiguousarray(est.witness).tobytes()).hexdigest()
        assert digest == "3c06bf50b2eb0883245aba457339c4b98a964fab6190c0ca583bb53df899df7f"

    def test_von_mises_grid_oracle(self):
        # K = e^{cos(x - y)} = sum_k I_k(1) e^{ik(x - y)} is a sum of rank-one
        # terms with unit sups, so its S_1/2 multiplier norm is at most
        # (sum_k I_k(1)^(1/2))^2 (50-digit mpmath); the rank-one sup on this
        # grid is 14.5452160016
        x = 2.0 * np.pi * np.arange(24) / 24
        y = x + 0.1
        m = SymbolMatrix(x, y, np.exp(np.cos(x[:, None] - y[None, :])))
        est = multiplier_norm_lower(m, 0.5, trials=8, seed=0)
        assert 14.52 <= est.lower <= 14.5452250013582

    def test_estimate_metadata(self):
        m = SymbolMatrix([0.0], [0.0], np.array([[2.0]]))
        est = multiplier_norm_lower(m, 1.0, trials=1, seed=9)
        assert est.seed == 9 and est.trials == 1
        assert "matrix" in est.lower_scope

    def test_largest_entry_is_always_a_witness(self):
        # 6400 entries: a strided subset of coordinate witnesses would skip (1, 1)
        vals = np.full((80, 80), 1e-3)
        vals[1, 1] = 5.0
        m = SymbolMatrix(np.arange(80.0), np.arange(80.0), vals)
        for p in (0.5, 1.0):
            est = multiplier_norm_lower(m, p, trials=1, seed=0)
            assert est.lower >= 5.0

    def test_zero_symbol_has_no_witness(self):
        m = SymbolMatrix([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)))
        with np.errstate(all="raise"):
            est = multiplier_norm_lower(m, 0.5, trials=2, seed=0)
        assert est.lower == 0.0 and est.witness is None

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0, "inf"])
    def test_zero_rows_and_cols_climb_without_warnings(self, p):
        # zero rows and columns of m zero parts of the gradient, and clipping
        # can zero entries of a factor; no step may divide by zero
        vals = np.zeros((4, 5))
        vals[1, 2], vals[3, 0], vals[1, 0] = 2.0, -1.0, 0.5
        m = SymbolMatrix(np.arange(4.0), np.arange(5.0), vals)
        with np.errstate(all="raise"):
            est = multiplier_norm_lower(m, p, trials=4, seed=1)
        assert 2.0 <= est.lower and np.isfinite(est.witness).all()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_rejects_empty_symbol(self, shape):
        m = SymbolMatrix(np.arange(float(shape[0])), np.arange(float(shape[1])),
                         np.zeros(shape))
        with pytest.raises(ValueError, match="empty symbol"):
            multiplier_norm_lower(m, 0.5, trials=1)

    def test_rejects_zero_trials(self):
        m = SymbolMatrix([0.0], [0.0], np.array([[1.0]]))
        with pytest.raises(ValueError):
            multiplier_norm_lower(m, 1.0, trials=0)


class TestMultiplierLemma:
    """For p <= 1 and A = sum_k s_k u_k v_k*, the p-triangle inequality gives
    ||M o A||_p^p <= sum_k s_k^p ||M o (u_k v_k*)||_p^p, and the phases of a
    rank-one a b* are diagonal unitaries, so rank-one inputs a b^T with
    a, b >= 0 attain the S_p multiplier norm."""

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_rank_one_telescoping(self, seed, p):
        rng = np.random.default_rng(seed)
        nr, nc = 2 + seed % 4, 2 + (seed * 3) % 5
        vals = rng.standard_normal((nr, nc))
        a = rng.standard_normal((nr, nc)) + 1j * rng.standard_normal((nr, nc))
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        terms = vals * np.einsum("ik,kj->kij", u, vh)
        lhs = schatten_norms((vals * a)[None], p)[0] ** p
        rhs = np.sum(s**p * schatten_norms(terms, p) ** p)
        assert lhs <= rhs * (1 + 1e-9)

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 2.0, "inf"])
    @pytest.mark.parametrize("seed", range(6))
    def test_rank_one_phases_drop_out(self, seed, p):
        rng = np.random.default_rng(seed)
        nr, nc = 2 + seed % 3, 3 + seed % 4
        m = SymbolMatrix(np.arange(float(nr)), np.arange(float(nc)),
                         rng.standard_normal((nr, nc)))
        a = rng.standard_normal(nr) + 1j * rng.standard_normal(nr)
        b = rng.standard_normal(nc) + 1j * rng.standard_normal(nc)
        complex_ratio = hadamard_ratio(m, np.outer(a, b.conj()), p)
        assert complex_ratio == pytest.approx(
            hadamard_ratio(m, np.outer(np.abs(a), np.abs(b)), p), rel=1e-12, abs=0)


class TestRestrictSymbol:
    def test_full_subset_identity(self, rng):
        vals = rng.standard_normal((3, 3))
        m = SymbolMatrix(np.arange(3.0), np.arange(3.0), vals)
        r = restrict_symbol(m, range(3), range(3))
        assert np.array_equal(r.values, vals)

    def test_scalar_restriction_is_exact_norm(self, rng):
        vals = rng.standard_normal((3, 3))
        m = SymbolMatrix(np.arange(3.0), np.arange(3.0), vals)
        r = restrict_symbol(m, [1], [2])
        for p in (0.5, 1.0, 2.0, SchattenIndex.INF):
            est = multiplier_norm_lower(r, p, trials=1, seed=0)
            assert est.lower == pytest.approx(abs(vals[1, 2]), rel=1e-12)

    def test_rejects_empty(self, rng):
        m = SymbolMatrix([0.0, 1.0], [0.0, 1.0], np.eye(2))
        with pytest.raises(ValueError, match="nonempty"):
            restrict_symbol(m, [], [0])

    @pytest.mark.parametrize("rows, message", [
        ([1.5], "row_subset[0] must be an integer >= 0, got 1.5"),   # selected row 1
        ([0, -1], "row_subset[1] must be an integer >= 0, got -1"),  # wrapped to the last row
        ([7], "row_subset[0] must be < 3, got 7"),                   # numpy's IndexError
    ], ids=["fractional", "negative", "past-the-end"])
    def test_rejects_bad_index(self, rows, message):
        m = SymbolMatrix(np.arange(3.0), np.arange(3.0), np.eye(3))
        with pytest.raises(ValueError, match=re.escape(message)):
            restrict_symbol(m, rows, [0])

    def test_shared_witness_never_exceeds_parent(self, rng):
        # the restricted best witness, zero-padded, realizes the same ratio
        # on the parent symbol, so the parent estimate dominates
        vals = rng.standard_normal((4, 4))
        m = SymbolMatrix(np.arange(4.0), np.arange(4.0), vals)
        rows, cols = [0, 2], [1, 3]
        r = restrict_symbol(m, rows, cols)
        est = multiplier_norm_lower(r, 0.5, trials=3, seed=5)
        padded = np.zeros((4, 4), dtype=complex)
        padded[np.ix_(rows, cols)] = est.witness
        parent_ratio = hadamard_ratio(m, padded, 0.5)
        assert parent_ratio >= est.lower - 1e-9


from hypothesis import example, given
from hypothesis import strategies as st


@given(st.floats(0.26, 4.0), st.floats(0.26, 4.0), st.floats(0.05, 0.95))
@example(4.0, 3.9999999999999996, 0.5)
def test_integral_matches_quotient_property(x, y, theta):
    # (x^theta - y^theta)/(x - y) = x^(theta-1) (r^theta - 1)/(r - 1) with
    # r = y/x = exp(l), via expm1: the plain quotient cancels near the
    # diagonal (0.5 instead of 0.25 at the example above)
    l = math.log1p((y - x) / x)
    direct = (theta * x ** (theta - 1.0) if x == y
              else x ** (theta - 1.0) * math.expm1(theta * l) / math.expm1(l))
    assert divided_difference_integral(x, y, theta, 96) == pytest.approx(
        direct, abs=1e-10, rel=1e-9)


def test_symbol_json_roundtrip(rng):
    vals = rng.standard_normal((2, 3))
    m = SymbolMatrix([0.0, 1.0], [0.0, 1.0, 2.0], vals)
    m2 = SymbolMatrix.from_json(m.to_json())
    assert np.array_equal(m2.values, m.values)
    assert np.array_equal(m2.rows, m.rows)
    assert np.array_equal(m2.cols, m.cols)
