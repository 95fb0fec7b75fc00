import argparse
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schurlab import cli
from schurlab.experiments import bks_ratios
from schurlab.factorization import (
    build_factorization,
    certified_pcb_bound,
    dyadic_block_bound,
    make_kernel,
    plus_kernel_bound,
    power_ratio_base_bound,
    sum_quadrant_bound,
)
from schurlab.multipliers import divided_difference_integral, rank_one_sum_bound
from schurlab.operators import (
    HermitianOperand,
    SchattenIndex,
    SignedPowerFunction,
    apply_calculus,
    calculus_stack,
    decompose_stack,
    p_triangle_defect,
    schatten_norm,
    schatten_norms,
    spectral_decompose,
)

from conftest import random_hermitian, random_unitary


class TestSchattenIndex:
    def test_infinite_is_distinguished(self):
        assert SchattenIndex.INF.is_infinite
        assert SchattenIndex(np.inf) == SchattenIndex.INF
        with pytest.raises(ValueError):
            SchattenIndex.INF.value  # noqa: B018

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                SchattenIndex(bad)

    def test_triangle_constant(self):
        assert SchattenIndex(0.5).triangle_constant == 2.0
        assert SchattenIndex(1).triangle_constant == 1.0
        assert SchattenIndex(2).triangle_constant == 1.0
        assert SchattenIndex.INF.triangle_constant == 1.0

    def test_division_by_theta(self):
        assert (SchattenIndex(1) / 0.5).value == 2.0
        assert (SchattenIndex.INF / 0.5).is_infinite

    def test_ordering(self):
        assert SchattenIndex(1) < SchattenIndex(2) < SchattenIndex.INF
        assert not SchattenIndex.INF < SchattenIndex.INF


class TestSignedPower:
    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                SignedPowerFunction(bad)

    def test_values(self):
        f = SignedPowerFunction(0.5, signed=True)
        assert f(4.0) == 2.0
        assert f(-4.0) == -2.0
        assert f(0.0) == 0.0
        g = SignedPowerFunction(0.5, signed=False)
        assert g(-4.0) == 2.0

    @given(st.floats(-100, 100), st.floats(0.01, 100),
           st.sampled_from([0.25, 0.5, 0.75]), st.booleans())
    def test_homogeneity(self, t, lam, theta, signed):
        f = SignedPowerFunction(theta, signed)
        assert f(lam * t) == pytest.approx(lam**theta * f(t), rel=1e-12, abs=1e-12)


class TestSpectralDecompose:
    def test_diagonal(self):
        x = spectral_decompose(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(x.eigenvalues, [3.0, 2.0, 1.0])
        assert np.allclose(x.distinct_eigenvalues, [3.0, 2.0, 1.0])
        # one group per eigenvalue, and each eigenvector column on its axis
        assert x.group_index.tolist() == [0, 1, 2]
        assert np.allclose(np.abs(x.eigenvectors), np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    def test_symmetry_flip(self):
        x = spectral_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(x.eigenvalues, [1.0, -1.0])

    def test_random_vs_characteristic_polynomial(self, rng):
        # independent oracle: Leverrier-Faddeev coefficients, companion roots
        a = random_hermitian(4, rng)
        n = 4
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[0] = 1.0
        m = np.zeros((n, n), dtype=complex)
        for k in range(1, n + 1):
            m = a @ m + coeffs[k - 1] * np.eye(n)
            coeffs[k] = -(a @ m).trace() / k
        roots = np.sort(np.roots(coeffs).real)[::-1]
        x = spectral_decompose(a)
        assert np.abs(x.eigenvalues - roots).max() < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="asymmetry"):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            spectral_decompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_near_degenerate_grouping(self):
        x = spectral_decompose(np.diag([1.0, 1.0 + 1e-12, 2.0]))
        assert x.distinct_eigenvalues.size == 2
        y = spectral_decompose(np.diag([1.0, 1.5, 2.0]))
        assert y.distinct_eigenvalues.size == 3

    def test_spectrum_groups_are_computed_once_and_read_only(self):
        x = spectral_decompose(np.diag([1.0, 1.0 + 1e-12, 2.0, 2.0, 3.0]))
        assert x.distinct_eigenvalues is x.distinct_eigenvalues
        assert x.group_index is x.group_index
        # the per-access computations they replace
        assert np.array_equal(x.distinct_eigenvalues,
                              [x.eigenvalues[g].mean() for g in x._groups])
        assert x.group_index.tolist() == [0, 1, 1, 2, 2]
        for arr in (x.distinct_eigenvalues, x.group_index):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_reconstruction_invariant(self, rng):
        for dim in (2, 5, 8):
            x = spectral_decompose(random_hermitian(dim, rng))
            recon = (x.eigenvectors * x.eigenvalues) @ x.eigenvectors.conj().T
            assert np.abs(recon - x.entries).max() <= 1e-10 * max(x.spectral_radius, 1e-300)


class TestApplyCalculus:
    def test_signed_diagonal(self):
        x = spectral_decompose(np.diag([4.0, -1.0]))
        y = apply_calculus(x, SignedPowerFunction(0.5, signed=True))
        assert np.allclose(np.sort(np.diag(y.entries).real), [-1.0, 2.0])

    def test_unsigned_diagonal(self):
        x = spectral_decompose(np.diag([4.0, -1.0]))
        y = apply_calculus(x, SignedPowerFunction(0.5, signed=False))
        assert np.allclose(np.sort(np.diag(y.entries).real), [1.0, 2.0])

    def test_zero(self):
        x = spectral_decompose(np.zeros((3, 3)))
        for signed in (True, False):
            y = apply_calculus(x, SignedPowerFunction(0.3, signed))
            assert np.abs(y.entries).max() == 0.0

    def test_commutes_with_input(self, rng):
        x = spectral_decompose(random_hermitian(6, rng))
        y = apply_calculus(x, SignedPowerFunction(0.5, signed=True))
        comm = x.entries @ y.entries - y.entries @ x.entries
        assert np.abs(comm).max() < 1e-10 * max(1.0, x.spectral_radius)

    def test_theta_homogeneity(self, rng):
        x = random_hermitian(5, rng)
        f = SignedPowerFunction(0.7, signed=True)
        lam = 2.75
        lhs = apply_calculus(spectral_decompose(lam * x), f).entries
        rhs = lam**0.7 * apply_calculus(spectral_decompose(x), f).entries
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()

    def test_composition(self, rng):
        # |(|x|^t1)|^t2 = |x|^(t1 t2): the transitivity step in matrix form
        for t1, t2 in ((0.5, 0.5), (0.75, 0.4), (0.3, 0.9)):
            x = spectral_decompose(random_hermitian(6, rng))
            once = apply_calculus(x, SignedPowerFunction(t1, signed=False))
            twice = apply_calculus(once, SignedPowerFunction(t2, signed=False))
            direct = apply_calculus(x, SignedPowerFunction(t1 * t2, signed=False))
            scale = max(np.abs(direct.entries).max(), 1e-300)
            assert np.abs(twice.entries - direct.entries).max() < 1e-9 * scale


class TestSchattenNorm:
    def test_identity_frobenius(self):
        assert schatten_norm(np.eye(3), 2) == pytest.approx(np.sqrt(3), rel=1e-15)

    def test_rank_one_half_norm(self):
        assert schatten_norm(np.ones((2, 2)), 0.5) == pytest.approx(2.0, rel=1e-12)

    def test_trace_norm(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 1) == pytest.approx(7.0, rel=1e-14)

    def test_operator_norm(self):
        assert schatten_norm(np.diag([3.0, -4.0]), SchattenIndex.INF) == pytest.approx(4.0)

    def test_unitary_invariance(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u = random_unitary(5, rng)
        v = random_unitary(5, rng)
        for p in (0.3, 0.5, 1.0, 2.0, SchattenIndex.INF):
            lhs = schatten_norm(u @ a @ v, p)
            rhs = schatten_norm(a, p)
            assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1.0)

    def test_block_direct_sum(self, rng):
        # ||a (+) b||_p^p = ||a||_p^p + ||b||_p^p: the blocks' singular values
        # are the direct sum's
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        p = 0.7
        direct = np.zeros((5, 5), dtype=complex)
        direct[:3, :3] = a
        direct[3:, 3:] = b
        assert schatten_norm(direct, p) ** p == pytest.approx(
            schatten_norm(a, p) ** p + schatten_norm(b, p) ** p, rel=1e-12)


class TestPTriangle:
    def test_single_part(self, rng):
        a = random_hermitian(3, rng)
        assert p_triangle_defect([a], 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_equality(self):
        parts = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert p_triangle_defect(parts, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_random_nonnegative(self, rng):
        for p in (0.3, 0.5, 0.7, 1.0):
            for _ in range(1000):
                parts = [random_hermitian(3, rng), random_hermitian(3, rng)]
                scale = sum(schatten_norm(m, p) ** p for m in parts)
                assert p_triangle_defect(parts, p) >= -1e-9 * scale

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="shape"):
            p_triangle_defect([np.eye(2), np.eye(3)], 0.5)

    def test_rejects_large_p(self):
        with pytest.raises(ValueError):
            p_triangle_defect([np.eye(2)], 2.0)


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=4),
       st.lists(st.floats(-10, 10), min_size=2, max_size=4),
       st.sampled_from([0.3, 0.5, 0.7, 1.0]))
def test_p_triangle_property(d1, d2, p):
    n = min(len(d1), len(d2))
    parts = [np.diag(d1[:n]), np.diag(d2[:n])]
    scale = sum(schatten_norm(m, p) ** p for m in parts)
    assert p_triangle_defect(parts, p) >= -1e-9 * max(scale, 1e-30)


@given(st.floats(0.1, 10), st.floats(0.1, 10), st.sampled_from([0.25, 0.5, 0.75]))
def test_scalar_power_difference_bound(a, b, theta):
    # the scalar constant-1 inequality behind the positive-operator check
    assert abs(a**theta - b**theta) <= abs(a - b) ** theta + 1e-12


def test_operand_validation_rejects_bad_order(rng):
    x = spectral_decompose(random_hermitian(3, rng))
    with pytest.raises(ValueError, match="descending"):
        HermitianOperand(
            dim=3, entries=x.entries, eigenvalues=x.eigenvalues[::-1],
            eigenvectors=x.eigenvectors[:, ::-1])


def test_operand_validation_rejects_wrong_spectrum(rng):
    x = spectral_decompose(random_hermitian(3, rng))
    with pytest.raises(ValueError, match="reconstruction"):
        HermitianOperand(dim=3, entries=x.entries, eigenvalues=x.eigenvalues + 1.0,
                         eigenvectors=x.eigenvectors)
    with pytest.raises(ValueError, match="orthonormal"):
        HermitianOperand(dim=3, entries=x.entries, eigenvalues=x.eigenvalues,
                         eigenvectors=2.0 * x.eigenvectors)


class TestStacks:
    def test_non_hermitian_member_is_named(self, rng):
        a = np.array([random_hermitian(3, rng) for _ in range(5)])
        a[3, 0, 1] += 1.0
        with pytest.raises(ValueError, match="trial 13: matrix is not Hermitian"):
            decompose_stack(a, trials=range(10, 15))
        with pytest.raises(ValueError, match="stack member 3: .*asymmetry"):
            decompose_stack(a)

    def test_non_finite_member_is_named(self, rng):
        a = np.array([random_hermitian(3, rng) for _ in range(5)])
        a[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match="trial 11: matrix has non-finite entries"):
            decompose_stack(a, trials=range(10, 15))
        with pytest.raises(ValueError, match="trial 11: matrix has non-finite entries"):
            schatten_norms(a, 0.5, trials=range(10, 15))

    def test_members_match_single_matrix_calls_bitwise(self, rng):
        a = np.array([random_hermitian(dim=4, rng=rng) for _ in range(7)])
        f = SignedPowerFunction(0.5, signed=True)
        stack = decompose_stack(a)
        powered = calculus_stack(stack, f)
        norms = schatten_norms(a, 0.5)
        for k in range(7):
            x = spectral_decompose(a[k])
            assert np.array_equal(x.eigenvalues, stack.eigenvalues[k])
            assert np.array_equal(x.eigenvectors, stack.eigenvectors[k])
            assert np.array_equal(apply_calculus(x, f).entries, powered.entries[k])
            assert schatten_norm(a[k], 0.5) == norms[k]


def _bks_one_pair(theta):
    unit = decompose_stack(np.eye(2)[None])
    return bks_ratios(unit, unit, 1.0, theta)


def _window_kernel(theta):
    return make_kernel("power-ratio-window", grid_size=64, theta=theta)


def _von_mises():
    return make_kernel("von-mises", grid_size=64)


def _estimate_constant_runner(theta):
    return cli._run_estimate_constant(argparse.Namespace(dims="2", p="0.5", theta=f"0.5,{theta}"))


# every function that takes the exponent theta of the power maps and checks it itself
THETA_ENTRY_POINTS = {
    "SignedPowerFunction": SignedPowerFunction,
    "bks_ratios": _bks_one_pair,
    "divided_difference_integral": lambda theta: divided_difference_integral(1.0, 2.0, theta),
    "dyadic_block_bound": lambda theta: dyadic_block_bound(theta, 0.5, 0, 1.0),
    "power-ratio-window": _window_kernel,
    "sum_quadrant_bound": lambda theta: sum_quadrant_bound(1.0, 1.0, theta, 0.5),
    "power_ratio_base_bound": lambda theta: power_ratio_base_bound(theta, 0.5),
    "estimate-constant": _estimate_constant_runner,
}

# every function whose result rests on the p-triangle inequality
CERTIFICATE_ENTRY_POINTS = {
    "certified_pcb_bound": lambda p: certified_pcb_bound(_von_mises(), 3, p),
    "build_factorization": lambda p: build_factorization(_von_mises(), 3, p),
    "plus_kernel_bound": lambda p: plus_kernel_bound(1.0, p),
    "sum_quadrant_bound": lambda p: sum_quadrant_bound(1.0, 2.0, 0.5, p),
    "power_ratio_base_bound": lambda p: power_ratio_base_bound(0.5, p),
    "dyadic_block_bound": lambda p: dyadic_block_bound(0.5, p, 0, 1.0),
    "rank_one_sum_bound": lambda p: rank_one_sum_bound([1.0], [1.0], [1.0], p),
    "p_triangle_defect": lambda p: p_triangle_defect([np.eye(2)], p),
}


class TestSharedParameterChecks:
    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, -2.0, math.nan, math.inf])
    @pytest.mark.parametrize("entry", sorted(THETA_ENTRY_POINTS))
    def test_theta_outside_unit_interval(self, entry, theta):
        if math.isfinite(theta):
            message = f"theta must lie strictly inside (0, 1), got {theta}"
        else:
            message = f"theta must be finite, got {theta}"
        with pytest.raises(ValueError, match=re.escape(message)):
            THETA_ENTRY_POINTS[entry](theta)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    @pytest.mark.parametrize("entry", sorted(CERTIFICATE_ENTRY_POINTS))
    def test_certificate_index_above_one(self, entry, p):
        message = ("the p-triangle inequality and the bounds built on it require p <= 1, "
                   f"got p={p}")
        with pytest.raises(ValueError, match=re.escape(message)):
            CERTIFICATE_ENTRY_POINTS[entry](p)
