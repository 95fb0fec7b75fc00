import math
import tracemalloc

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

    def test_perturbed_eigenvalue_sensitivity(self, monkeypatch):
        # a root 1% off moves the eigenfunction and its eigenvalue: the
        # residual rises from rounding level to far above the contract
        root = solve_theta(1)
        monkeypatch.setattr(expkernel, "solve_theta", lambda k: root * 1.01)
        assert eigenfunction_residual(1, 2048) > 1e-3

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    def test_blocked_product_has_the_bits_of_the_whole_product(self, n):
        # the operator is cast to complex one row block at a time, a one-row
        # tail joined to the block before it; every eigenfunction the
        # residuals use gets the bits of op @ f
        op = expkernel._kink_split_operator(n)
        x = np.linspace(0.0, 1.0, n + 1)
        for k in range(1, 11):
            alpha = math.tan(solve_theta(k))
            c = (1.0 - 1j * alpha) / (1.0 + 1j * alpha)
            f = np.exp(1j * alpha * x) - c * np.exp(-1j * alpha * x)
            assert expkernel._operator_product(op, f).tobytes() == (op @ f).tobytes()

    @pytest.mark.parametrize("n", [256, 1024])
    def test_operator_built_by_rows_is_the_whole_matrix_formula(self, n):
        h = 1.0 / n
        weights = np.zeros((n + 1, n + 1))
        for i in range(n + 1):
            weights[i, : i + 1] += expkernel._composite_weights(i, h)
            weights[i, i:] += expkernel._composite_weights(n - i, h)
        x = np.linspace(0.0, 1.0, n + 1)
        want = weights * np.exp(-np.abs(x[:, None] - x[None, :]))
        assert expkernel._kink_split_operator(n).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("n", [64, 1000])
    def test_matrix_built_in_place_keeps_the_spectrum_bits(self, n):
        x = np.linspace(0.0, 1.0, n)
        w = np.full(n, 1.0 / (n - 1))
        w[0] = w[-1] = 0.5 / (n - 1)
        sq = np.sqrt(w)
        a = sq[:, None] * np.exp(-np.abs(x[:, None] - x[None, :])) * sq[None, :]
        assert nystrom_spectrum(n).tobytes() == np.linalg.eigvalsh(a)[::-1].tobytes()

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
        sums = schatten_partial_sums([1.0], [10, 100, 1000, 10000])[0]
        assert np.all(np.diff(sums) > 0)
        assert sums[-1] <= 1.0 + 1e-9
        assert sums[-1] >= 0.999

    def test_log_divergence_at_half(self):
        sums = schatten_partial_sums([0.5], [100, 10000])[0]
        gap = sums[1] - sums[0]
        target = math.sqrt(2.0) / math.pi * math.log(100.0)
        assert abs(gap - target) <= 0.1 * target

    def test_fast_convergence_at_2(self):
        sums = schatten_partial_sums([2.0], [100, 100000])[0]
        assert sums[1] - sums[0] <= 1e-6

    def test_p06_true_cauchy_gap(self):
        # about 0.0708; the same closed-form oracle as acceptance criterion 4
        sums = schatten_partial_sums([0.6], [10**5, 10**6])[0]
        gap = sums[1] - sums[0]
        assert gap == pytest.approx(exp_kernel_tail(0.6, 10**5, 10**6), rel=1e-6, abs=0)

    def test_streamed_eigenvalues_match_the_reference_roots(self):
        # below EXACT_ROOT_LIMIT the roots come in one bisection piece; at
        # p = 1 the sums are the running sum of 2 cos^2 of the reference roots
        thetas = np.array([fixed_step_theta(k) for k in range(1, 201)])
        (start, piece), = expkernel._root_pieces(200)
        assert start == 0 and piece.tobytes() == thetas.tobytes()
        ks = list(range(1, 201))
        want = np.cumsum(2.0 * np.cos(thetas) ** 2)
        assert schatten_partial_sums([1.0], ks)[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("tail", [1, expkernel.NEWTON_PIECE,
                                      3 * expkernel.NEWTON_PIECE + 17, 10**6 - 1000])
    def test_newton_tail_in_pieces_is_the_whole_array_tail(self, tail):
        # the tail is solved NEWTON_PIECE roots at a time, so 10^6 roots never
        # hold seven 8 MB temporaries at once; every root keeps the bits of
        # the one-array solve
        first = expkernel.EXACT_ROOT_LIMIT
        whole = expkernel._newton_thetas(np.arange(first + 1, first + tail + 1, dtype=float))
        assert analytic_eigenvalues(first + tail).thetas[first:].tobytes() == whole.tobytes()

    def test_carried_sums_are_the_whole_cumsum(self):
        # the running sums advance one root piece at a time, each piece's
        # first term carrying the sum before it; K on either side of the
        # piece boundaries (EXACT_ROOT_LIMIT plus multiples of NEWTON_PIECE)
        # and of the multiples of NEWTON_PIECE, in any order and repeated
        first, piece = expkernel.EXACT_ROOT_LIMIT, expkernel.NEWTON_PIECE
        ks = [1, 2, first - 1, first, first + 1, piece - 1, piece, piece + 1,
              first + piece - 1, first + piece, first + piece + 1, 2 * piece - 1, 2 * piece,
              2 * piece + 1, 10**6 - 1, 10**6, 5, piece]
        ps = [0.5, 0.6, 1.0, 2.0]
        lambdas = analytic_eigenvalues(10**6).lambdas
        sums = schatten_partial_sums(ps, ks)
        assert sums.shape == (len(ps), len(ks))
        for row, p in zip(sums, ps):
            whole = np.cumsum(lambdas ** p)
            want = np.array([whole[k - 1] for k in ks])
            assert row.tobytes() == want.tobytes()
            assert schatten_partial_sums([p], ks)[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("ps, K_list", [
        ([0.0], [10]), ([0.5, -1.0], [10]), ([], [10]), (0.5, [10]), (np.float64(0.5), [10]),
        ([0.5], []), ([0.5], 10),
    ])
    def test_rejects_bad_input(self, ps, K_list):
        with pytest.raises(ValueError):
            schatten_partial_sums(ps, K_list)


def traced_peak(step) -> float:
    """Peak MiB that tracemalloc sees while ``step()`` runs."""
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1024, 2048])
def test_residual_loop_holds_the_operator_and_one_block(n):
    # the ten residuals of kernel-spectrum: the operator, built one row at a
    # time, and one complex block of its rows (the last one has a row more);
    # casting the whole operator would add twice its size
    expkernel._kink_split_operator.cache_clear()
    operator = (n + 1) ** 2 * 8 / 2**20
    block = (expkernel.RESIDUAL_ROWS + 1) * (n + 1) * 16 / 2**20
    peak = traced_peak(lambda: [eigenfunction_residual(k, n) for k in range(1, 11)])
    assert peak <= operator + block + 0.25, f"traced peak {peak:.2f} MiB"
    peak = traced_peak(lambda: [eigenfunction_residual(k, n) for k in range(1, 11)])
    assert peak <= block + 0.25, f"traced peak {peak:.2f} MiB with the operator cached"


def test_partial_sums_stream_without_a_table():
    # kernel-spectrum --sums-kmax 1000000: the four exponents' running sums
    # advance on each piece of roots, so the whole call holds less than one
    # 8 MB array of the 10^6 eigenvalues, which the memoized table held: one
    # piece's Newton temporaries (at most six pieces), its eigenvalues and
    # one exponent's powers
    table = 10**6 * 8 / 2**20
    piece = expkernel.NEWTON_PIECE * 8 / 2**20
    peak = traced_peak(lambda: schatten_partial_sums([0.5, 0.6, 1.0, 2.0], [10, 10**5, 10**6]))
    assert peak < table, f"partial sums traced peak {peak:.2f} MiB"
    assert peak <= 8 * piece + 0.25, f"partial sums traced peak {peak:.2f} MiB"
