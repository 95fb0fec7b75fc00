import math

import numpy as np
import pytest

import schurlab.expkernel as expkernel
from schurlab.expkernel import (
    analytic_eigenvalues,
    eigenfunction_residual,
    eigenfunction_sup_ratio,
    nystrom_spectrum,
    schatten_partial_sums,
    solve_theta,
)
from schurlab.operators import InvariantViolation

from conftest import exp_kernel_tail

# frozen regression value from the bisection oracle itself
THETA_1 = 0.9175251397004935
LAMBDA_1 = 0.7388108094164549


def fixed_step_theta(k: int) -> float:
    """Reference root: the bisection as it was, always 200 halvings (its
    1e-17 width exit never fires, since the bracket stops at one ulp)."""
    lo, hi = 1e-12, math.pi / 2 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.sin(mid) + (2.0 * mid - k * math.pi) * math.cos(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolveTheta:
    def test_bracket_sign_change(self):
        g = lambda t: math.tan(t) + 2.0 * t - math.pi
        assert g(0.85) < 0 < g(0.95)

    def test_k1_regression(self):
        assert solve_theta(1) == pytest.approx(THETA_1, abs=1e-12)

    def test_k50_asymptotic(self):
        t = solve_theta(50)
        assert abs(math.tan(t) - 50 * math.pi) <= 0.1 * 50 * math.pi

    def test_residual_contract(self):
        for k in (1, 3, 10, 40):
            t = solve_theta(k)
            assert abs(math.tan(t) + 2 * t - k * math.pi) <= 1e-10

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            solve_theta(0)

    @pytest.mark.parametrize("solve", [lambda: solve_theta(3), lambda: analytic_eigenvalues(3)],
                             ids=["solve_theta", "analytic_eigenvalues"])
    def test_residual_above_scaled_tol_reported(self, solve, monkeypatch):
        # the one residual rule: a root whose residual exceeds _scaled_tol(k)
        # is an invariant violation, not a value
        monkeypatch.setattr(expkernel, "_scaled_tol", lambda k: 1e-300)
        with pytest.raises(InvariantViolation, match="root residual"):
            solve()

    def test_adjacent_double_stop_matches_fixed_steps(self):
        for k in range(1, 2001):
            assert solve_theta(k) == fixed_step_theta(k), k


class TestAnalyticEigenvalues:
    def test_monotone(self):
        spec = analytic_eigenvalues(50)
        assert np.all(np.diff(spec.lambdas) < 0)
        assert np.all(np.diff(spec.thetas) > 0)
        assert spec.lambdas[0] == pytest.approx(LAMBDA_1, abs=1e-12)

    def test_asymptotic_normalization(self):
        spec = analytic_eigenvalues(50)
        k = 50
        assert spec.lambdas[k - 1] * (k * math.pi) ** 2 / 2.0 == pytest.approx(1.0, abs=0.15)
        assert spec.alphas[k - 1] / (k * math.pi) == pytest.approx(1.0, abs=0.1)

    def test_trace_oracle(self):
        spec = analytic_eigenvalues(500)
        assert abs(spec.lambdas.sum() - 1.0) <= 1e-3

    def test_trig_identity_guard(self):
        spec = analytic_eigenvalues(20)
        alt = 2.0 / (1.0 + np.tan(spec.thetas) ** 2)
        assert np.abs(alt - spec.lambdas).max() <= 1e-14


class TestEigenfunctionResidual:
    def test_contract_at_2048(self):
        for k in (1, 5, 10):
            assert eigenfunction_residual(k, 2048) <= 1e-6

    def test_composite_rule_convergence(self):
        res = [eigenfunction_residual(3, n) for n in (256, 512, 1024)]
        assert res[1] < res[0] and res[2] < res[1]

    def test_perturbed_eigenvalue_sensitivity(self):
        assert eigenfunction_residual(1, 2048, eigenvalue_scale=1.01) > 1e-3

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            eigenfunction_residual(1, 100)

    def test_normalized_sup_uniformly_bounded(self):
        sups = [eigenfunction_sup_ratio(k) for k in range(1, 101)]
        assert max(sups) <= 3.0


class TestNystrom:
    def test_matches_analytic(self):
        eigs = nystrom_spectrum(2000)
        spec = analytic_eigenvalues(10)
        rel = np.abs(eigs[:10] - spec.lambdas) / spec.lambdas
        assert rel.max() <= 1e-3

    def test_trace_identity(self):
        eigs = nystrom_spectrum(500)
        assert abs(eigs.sum() - 1.0) <= 1e-6

    def test_positivity(self):
        eigs = nystrom_spectrum(500)
        assert eigs.min() >= -1e-10

    def test_refinement_tightens(self):
        spec = analytic_eigenvalues(10)
        errs = []
        for n in (500, 1000, 2000):
            eigs = nystrom_spectrum(n)
            errs.append(np.abs(eigs[:10] - spec.lambdas).max())
        assert errs[0] >= errs[1] >= errs[2]


class TestPartialSums:
    def test_trace_limit_at_p1(self):
        sums = schatten_partial_sums(1.0, [10, 100, 1000, 10000])
        assert np.all(np.diff(sums) > 0)
        assert sums[-1] <= 1.0 + 1e-9
        assert sums[-1] >= 0.999

    def test_log_divergence_at_half(self):
        sums = schatten_partial_sums(0.5, [100, 10000])
        gap = sums[1] - sums[0]
        target = math.sqrt(2.0) / math.pi * math.log(100.0)
        assert abs(gap - target) <= 0.1 * target

    def test_fast_convergence_at_2(self):
        sums = schatten_partial_sums(2.0, [100, 100000])
        assert sums[1] - sums[0] <= 1e-6

    def test_p06_true_cauchy_gap(self):
        # about 0.0708; the same closed-form oracle as acceptance criterion 4
        sums = schatten_partial_sums(0.6, [10**5, 10**6])
        gap = sums[1] - sums[0]
        assert gap == pytest.approx(exp_kernel_tail(0.6, 10**5, 10**6), rel=1e-6, abs=0)

    def test_memoized_table_matches_a_fresh_solve(self):
        ks = [10, 100, 1000, 5000]
        cached = {p: schatten_partial_sums(p, ks) for p in (0.5, 0.6, 1.0, 2.0)}
        for p, sums in cached.items():
            expkernel._eigenvalue_table.cache_clear()
            assert np.array_equal(schatten_partial_sums(p, ks), sums)

    def test_memoized_table_matches_the_reference_roots(self):
        expkernel._eigenvalue_table.cache_clear()
        thetas = np.array([fixed_step_theta(k) for k in range(1, 201)])
        assert np.array_equal(expkernel._eigenvalue_table(200), 2.0 * np.cos(thetas) ** 2)

    def test_memoized_table_is_read_only(self):
        table = expkernel._eigenvalue_table(50)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            schatten_partial_sums(0.0, [10])
        with pytest.raises(ValueError):
            schatten_partial_sums(0.5, [])
