import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import schurlab
from schurlab.factorization import (
    COORDINATE_STRETCH,
    CAUCHY_SCHWARZ_CONST,
    RAMP_DERIVATIVE_SUPS,
    RAMP_STEEPNESS,
    UNIVERSAL_CONST,
    RankOneFactorization,
    SmoothKernel,
    build_factorization,
    bump_function,
    certified_pcb_bound,
    dyadic_block_bound,
    kernel_catalog,
    make_kernel,
    plus_kernel_bound,
    sobolev_order,
    power_ratio_base_bound,
    sobolev_constant,
    sum_quadrant_bound,
    _mode_numbers,
    _power_diff,
    _round_up,
    COLUMN_BLOCK,
    GROUP_BYTES,
    ROW_BLOCK,
    _blocks,
    _column_groups,
    _live_runs,
    _weighted_power,
)
from schurlab.multipliers import MultiplierNormEstimate, SymbolMatrix, multiplier_norm_lower


def mode_index(coeffs, k, l):
    return coeffs[k % coeffs.shape[0], l % coeffs.shape[1]]


def symbolic_ramp_derivative_sup(order: int) -> float:
    """Reference for RAMP_DERIVATIVE_SUPS: sup |d^order ramp / dt^order| on
    [-1, 1] from sympy's exact derivative, sampled on 200001 points with 2%
    slack (the routine the table was generated with)."""
    if order == 0:
        return 1.0
    import sympy as sp

    t = sp.symbols("t", real=True)
    expr = 1 / (1 + sp.exp(-RAMP_STEEPNESS * t / (1 - t**2)))
    fn = sp.lambdify(t, sp.diff(expr, t, order), "numpy")
    ts = np.linspace(-1.0 + 1e-7, 1.0 - 1e-7, 200001)
    with np.errstate(all="ignore"):
        vals = np.abs(np.asarray(fn(ts), dtype=float))
    vals = vals[np.isfinite(vals)]
    return float(vals.max()) * 1.02


def fft2_coefficients(kernel):
    """The whole-grid transform the stream once reproduced bit for bit:
    np.fft.fft2 of the samples cast to complex."""
    return np.fft.fft2(np.asarray(kernel.samples(), dtype=complex)) / kernel.grid_size**2


def half_spectrum_grid(part):
    """np.fft.rfft2(part) / n^2 on the columns 0..n/2 of a real n x n grid,
    and alpha_{-k,-l} = conj alpha_{k,l} on the others."""
    n = part.shape[0]
    half = np.fft.rfft2(part) / n**2
    full = np.empty((n, n), dtype=complex)
    full[:, :n // 2 + 1] = half
    full[:, n // 2 + 1:] = np.conjugate(half[-np.arange(n) % n, 1:n // 2][:, ::-1])
    return full


def reference_coefficients(kernel):
    """Reference for SmoothKernel.coefficient_blocks: the half-spectrum grid
    of the samples, or c_re + i c_im from those of the real and imaginary
    parts of a complex kernel."""
    samples = kernel.samples()
    if not np.iscomplexobj(samples):
        return half_spectrum_grid(samples)
    coeffs = half_spectrum_grid(samples.real.copy())
    imaginary = half_spectrum_grid(samples.imag.copy())
    coeffs.real -= imaginary.imag
    coeffs.imag += imaginary.real
    return coeffs


def assert_stream_is_reference(kernel):
    """Every block of SmoothKernel.coefficient_blocks has the bytes of its
    columns of reference_coefficients, and the blocks cover the grid once:
    the blocks of columns 0..n/2 in order, each followed by its mirror."""
    n = kernel.grid_size
    want = reference_coefficients(kernel)
    spans = []
    for cols, block in kernel.coefficient_blocks():
        assert same_bits(block, want[:, cols]), f"columns {cols} differ from the reference"
        spans.append(cols)
    halves = [cols for cols in spans if cols.start <= n // 2]
    assert halves == _blocks(n // 2 + 1, COLUMN_BLOCK)
    assert sorted(j for cols in spans for j in range(n)[cols]) == list(range(n))
    for cols, mirror in zip(spans, spans[1:]):
        if mirror.start > n // 2:
            assert mirror == slice(n - min(cols.stop, n // 2) + 1, n - max(cols.start, 1) + 1)


def whole_grid_terms(fact, kernel):
    """Reference for the one pass of build_factorization: the scaled
    retained columns and the plain-sum tail, read off the whole reference
    grid."""
    coeffs = reference_coefficients(kernel)
    modes = _mode_numbers(kernel.grid_size)
    columns = np.stack([coeffs[:, l] * (1.0 if l == 0 else float(l) ** fact.d)
                        for l in fact.g_labels], axis=1)
    power = np.abs(coeffs)
    power *= power
    col_k_weighted = np.sqrt(modes.astype(float) ** 2 @ power)
    kept = set(fact.g_labels.tolist()) | {0}
    tail = 0.0
    for j, l in enumerate(modes):
        if l not in kept:
            tail += CAUCHY_SCHWARZ_CONST * col_k_weighted[j] + abs(coeffs[0, j])
    return columns, tail


def whole_grid_gap(fact, kernel):
    """Reference for reconstruction_error: the whole-grid max |recon - samples|."""
    return np.abs(fact.reconstruct() - kernel.samples()).max()


def full_grid_power_diff(u, v, theta):
    """Reference for _power_diff: the midpoint derivative on every entry."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gap = u - v
    near = np.abs(gap) <= 1e-6 * np.maximum(u, v)
    safe = np.where(near, 1.0, gap)
    ratio = (u**theta - v**theta) / safe
    mid = theta * (0.5 * (u + v)) ** (theta - 1.0)
    return np.where(near, mid, ratio)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def run_python(code: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this schurlab."""
    src = str(Path(schurlab.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": src})


class TestFourierCoefficients:
    def test_single_mode(self):
        kern = SmoothKernel(lambda x, y: np.exp(1j * (np.asarray(x) + 2.0 * np.asarray(y))),
                            grid_size=64)
        c = kern.coefficients()
        assert abs(mode_index(c, 1, 2) - 1.0) < 1e-12
        c2 = c.copy()
        c2[1 % 64, 2 % 64] = 0.0
        assert np.abs(c2).max() < 1e-12

    def test_constant(self):
        kern = SmoothKernel(lambda x, y: np.ones_like(np.asarray(x) * np.asarray(y)),
                            grid_size=64)
        c = kern.coefficients()
        assert abs(c[0, 0] - 1.0) < 1e-14
        assert np.abs(c).sum() == pytest.approx(1.0, abs=1e-12)

    def test_cosine_product(self):
        kern = make_kernel("cosine-product")
        c = kern.coefficients()
        for k in (1, -1):
            for l in (1, -1):
                assert abs(mode_index(c, k, l) - 0.25) < 1e-12

    def test_aperiodic_rejected(self):
        with pytest.raises(ValueError, match="periodic"):
            SmoothKernel(lambda x, y: np.asarray(x) + 0.0 * np.asarray(y), grid_size=64)

    def test_all_nan_kernel_rejected(self):
        # NaN seam gaps once compared as "not above" the tolerance
        with pytest.raises(ValueError, match="periodic"):
            SmoothKernel(lambda x, y: np.full(np.broadcast(x, y).shape, np.nan), grid_size=64)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            SmoothKernel(lambda x, y: np.ones_like(np.asarray(x)), grid_size=100)

    @pytest.mark.parametrize("size", [256.7, 256.5, 64.25, math.nan, math.inf])
    def test_fractional_grid_size_rejected(self, size):
        # int() would truncate 256.7 to a 256 grid
        with pytest.raises(ValueError, match="grid_size"):
            make_kernel("von-mises", grid_size=size)

    def test_integral_float_grid_size_accepted(self):
        kern = make_kernel("von-mises", grid_size=256.0)
        assert kern.grid_size == 256 and type(kern.grid_size) is int

    def test_bounds_reject_fractional_grid_size(self):
        # int() would turn 256.5 into the 256-grid bound
        with pytest.raises(ValueError, match="grid_size"):
            plus_kernel_bound(1.0, 1.0, None, 256.5)
        with pytest.raises(ValueError, match="grid_size"):
            power_ratio_base_bound(0.5, 0.5, None, 256.5)
        assert plus_kernel_bound(1.0, 1.0, None, 256.0) == plus_kernel_bound(1.0, 1.0, None, 256)

    @pytest.mark.parametrize("value", [-0.0, complex(-0.0, -0.0)])
    def test_signed_zero_rows_keep_reference_bits(self, value):
        # the rfft of a -0.0 row differs from that of a +0.0 row in the sign
        # of zero terms, so only +0.0 rows may stand in for the zero row's
        # rfft; on this all -0.0 grid every row is transformed
        assert np.fft.rfft(np.full(64, -0.0)).tobytes() != np.fft.rfft(np.zeros(64)).tobytes()
        kern = SmoothKernel(lambda x, y: np.full(np.broadcast(x, y).shape, value), grid_size=64)
        assert_stream_is_reference(kern)

    @pytest.mark.parametrize("part", [1.0, 1j, 1.0 + 1j])
    def test_gapped_live_rows_keep_reference_bits(self, part):
        # whole rows are zero where cos(8x) <= 0, so each 64-row block keeps
        # several separate runs of row transforms; a skipped row stands for
        # the rfft of a zero row, whose zero terms are not all +0.0
        kern = SmoothKernel(lambda x, y: np.where(np.cos(8.0 * np.asarray(x)) > 0,
                                                  part * (np.cos(np.asarray(x) - np.asarray(y))
                                                          + 2.0), 0.0),
                            grid_size=256)
        assert np.signbit(np.fft.rfft(np.zeros(256)).imag).any()
        assert len(_live_runs(np.abs(kern._sample_rows(slice(0, ROW_BLOCK))))) == 3
        assert_stream_is_reference(kern)


class TestSobolevConstant:
    def test_constant_kernel(self):
        kern = SmoothKernel(lambda x, y: np.ones_like(np.asarray(x) * np.asarray(y)),
                            grid_size=64)
        for d in (1, 2, 3):
            assert sobolev_constant(kern, d) == pytest.approx(1.0, abs=1e-10)

    def test_single_mode_d2(self):
        kern = SmoothKernel(lambda x, y: np.exp(1j * (np.asarray(x) + np.asarray(y))),
                            grid_size=64)
        assert sobolev_constant(kern, 2) == pytest.approx(4.0, abs=1e-10)

    def test_closed_form_oracle(self):
        # every partial of cos x cos y is +-(cos or sin x)(cos or sin y), whose
        # L2 norm on the normalized torus is 1/2, so the constant is 4 * 1/2
        kern = make_kernel("cosine-product")
        for d in (1, 2, 3, 4):
            assert sobolev_constant(kern, d) == pytest.approx(2.0, abs=1e-10)

    def test_rejects_bad_order(self):
        kern = make_kernel("cosine-product")
        with pytest.raises(ValueError):
            sobolev_constant(kern, 0)

    @pytest.mark.parametrize("d", [float("nan"), float("inf"), 2.5])
    def test_rejects_non_integer_order(self, d):
        kern = make_kernel("von-mises", grid_size=64)
        with pytest.raises(ValueError, match=r"d must be an integer >= 1, got "):
            sobolev_constant(kern, d)


class TestCertifiedBound:
    def test_prefactor_p1_d2(self):
        kern = SmoothKernel(lambda x, y: np.ones_like(np.asarray(x) * np.asarray(y)),
                            grid_size=64)
        assert certified_pcb_bound(kern, 2, 1.0) == pytest.approx(
            4.0 * UNIVERSAL_CONST, rel=1e-10)

    def test_prefactor_phalf_d3(self):
        kern = SmoothKernel(lambda x, y: np.ones_like(np.asarray(x) * np.asarray(y)),
                            grid_size=64)
        assert certified_pcb_bound(kern, 3, 0.5) == pytest.approx(
            36.0 * UNIVERSAL_CONST, rel=1e-10)

    def test_constant_kernel_sandwich(self):
        # true multiplier norm of the constant symbol is 1
        bound = 4.0 * UNIVERSAL_CONST
        m = SymbolMatrix(np.arange(4.0), np.arange(4.0), np.ones((4, 4)))
        est = multiplier_norm_lower(m, 1.0, trials=2, seed=0)
        assert est.lower <= bound

    def test_rejects_d_below_1_over_p(self):
        kern = make_kernel("cosine-product")
        with pytest.raises(ValueError, match="d > 1/p"):
            certified_pcb_bound(kern, 2, 0.5)
        with pytest.raises(ValueError, match="d > 1/p"):
            certified_pcb_bound(kern, 1, 1.0)

    @pytest.mark.parametrize("d", [float("nan"), 2.5])
    def test_rejects_non_integer_order(self, d):
        # NaN passed every range check, and d = 2.5 gave a "certified" 1864.87
        kern = make_kernel("von-mises", grid_size=64)
        with pytest.raises(ValueError, match=r"d must be an integer >= 1, got "):
            certified_pcb_bound(kern, d, 0.5)

    def test_integral_float_order_is_the_integer_order(self):
        kern = make_kernel("von-mises", grid_size=64)
        assert certified_pcb_bound(kern, 3.0, 0.5) == certified_pcb_bound(kern, 3, 0.5)

    @pytest.mark.parametrize("certify", [
        lambda kern: certified_pcb_bound(kern, 2, 1.0),
        lambda kern: build_factorization(kern, 2, 1.0, mode_cutoff=4),
    ], ids=["pcb-bound", "factorization"])
    def test_kernel_nan_on_the_grid_rejected(self, certify):
        # the seam probe misses the grid point x_5, so the kernel constructs;
        # its NaN spreads through every coefficient, and the certificate was NaN
        spike = 2.0 * np.pi * 5 / 64
        kern = SmoothKernel(lambda x, y: np.where(np.isclose(x, spike), np.nan, np.cos(x - y)),
                            grid_size=64, name="spike")
        with pytest.raises(ValueError, match="kernel spike has a non-finite"):
            certify(kern)

    def test_cauchy_schwarz_constant(self):
        assert CAUCHY_SCHWARZ_CONST == pytest.approx(math.pi / math.sqrt(3.0))
        assert UNIVERSAL_CONST == pytest.approx(CAUCHY_SCHWARZ_CONST + 1.0)

    def test_round_up_is_a_monotone_twelve_digit_upper_bound(self, rng):
        values = np.concatenate([
            rng.standard_normal(3000) * 10.0 ** rng.integers(-300, 300, 3000),
            rng.uniform(0.0, 10.0, 3000),
            [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1.5, 41787.0,
             1.00000000001, 1.000000000005, 123456789012.0, 1e300],
        ])
        rounded = [_round_up(float(x)) for x in values]
        for x, r in zip(values, rounded):
            assert r >= x
            assert float(format(r, ".12g")) == r, (x, r)
        order = np.argsort(values, kind="stable")
        assert all(a <= b for a, b in zip(np.array(rounded)[order], np.array(rounded)[order][1:]))
        # a double with at most 12 digits is published as it is
        assert _round_up(1.5) == 1.5 and _round_up(41787.0) == 41787.0

    @pytest.mark.parametrize("p", [0.5, 1.0])
    @pytest.mark.parametrize("name, sobolev", [
        # every partial of cos x cos y has L2 norm 1/2; exp(i(x + 2y)) has
        # the one coefficient 1 at mode (1, 2), so its four terms are
        # 2^d, 2^d, 1 and 1
        ("cosine-product", lambda d: 2),
        ("complex-mode", lambda d: 2 * 2**d + 2),
    ])
    def test_certificate_dominates_the_closed_form(self, name, sobolev, p):
        mpmath = pytest.importorskip("mpmath")
        d = sobolev_order(p)
        with mpmath.workdps(50):
            exact = ((2 / (d * mpmath.mpf(p) - 1) + 2) ** (1 / mpmath.mpf(p))
                     * (mpmath.pi / mpmath.sqrt(3) + 1) * sobolev(d))
            bound = certified_pcb_bound(make_kernel(name), d, p)
            assert bound >= exact
            assert bound <= exact * (1 + mpmath.mpf("1e-11"))


class TestBuildFactorization:
    def test_single_mode_exact(self):
        kern = SmoothKernel(lambda x, y: np.exp(1j * (np.asarray(x) + np.asarray(y))),
                            grid_size=256)
        fact = build_factorization(kern, 2, 1.0, mode_cutoff=4)
        gap = np.abs(fact.reconstruct() - kern.samples()).max()
        assert gap <= 1e-12
        assert fact.truncation_error <= 1e-12

    def test_von_mises_reconstruction(self):
        kern = make_kernel("von-mises")
        fact = build_factorization(kern, 2, 1.0, mode_cutoff=32)
        gap = np.abs(fact.reconstruct() - kern.samples()).max()
        assert gap <= fact.truncation_error + 1e-9

    def test_action_matches_direct_hadamard(self, rng):
        kern = make_kernel("von-mises")
        fact = build_factorization(kern, 2, 1.0, mode_cutoff=48)
        xs = rng.uniform(0, 2 * np.pi, 20)
        ys = rng.uniform(0, 2 * np.pi, 20)
        a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        direct = np.asarray(kern.evaluator(xs[:, None], ys[None, :])) * a
        via_factors = fact.hadamard_action(xs, ys, a)
        assert np.abs(via_factors - direct).max() <= 1e-6

    def test_certified_dominates_own_rank_one_data(self):
        kern = make_kernel("von-mises")
        for p in (0.5, 1.0):
            fact = build_factorization(kern, 3, p, mode_cutoff=32)
            from schurlab.multipliers import rank_one_sum_bound
            own = rank_one_sum_bound(
                np.abs(fact.alphas) * np.abs(fact.f_samples).max(axis=1),
                np.ones(fact.alphas.size), np.ones(fact.alphas.size), p)
            assert fact.certified_bound >= own

    @pytest.mark.parametrize("p,d", [(1.0, 2), (0.5, 3)])
    def test_cutoff_stability(self, p, d):
        # certified bounds nonincreasing under refinement, reconstruction
        # error shrinking toward zero
        kern = make_kernel("shifted-resolvent")
        prev_bound = None
        errs = []
        for cutoff in (32, 64, 128, 256):
            fact = build_factorization(kern, d, p, mode_cutoff=cutoff)
            errs.append(np.abs(fact.reconstruct() - kern.samples()).max())
            if prev_bound is not None:
                assert fact.certified_bound <= prev_bound * (1 + 1e-12) + 1e-9
            prev_bound = fact.certified_bound
        assert errs[-1] <= errs[0]
        assert errs[-1] <= 1e-6

    def test_json_export(self):
        kern = make_kernel("cosine-product")
        fact = build_factorization(kern, 2, 1.0, mode_cutoff=8)
        payload = fact.to_json()
        assert set(payload) >= {"d", "alphas", "f_samples", "certified_bound",
                                "truncation_error"}
        assert payload["d"] == 2
        # the whole `factorize` result, which the CLI only tags with the kernel
        assert payload["reconstruction_error"] == fact.reconstruction_error
        assert payload["p"] == 1.0

    def test_no_duplicate_certificate_fields(self):
        # f_l lives in f_samples alone; the sandwich is checked by the command
        # that has both bounds
        assert "_fourier_columns" not in {f.name for f in dataclasses.fields(RankOneFactorization)}
        assert "upper" not in {f.name for f in dataclasses.fields(MultiplierNormEstimate)}

    def test_rejects_bad_cutoff(self):
        kern = make_kernel("cosine-product")
        with pytest.raises(ValueError):
            build_factorization(kern, 2, 1.0, mode_cutoff=0)

    @pytest.mark.parametrize("cutoff", [2.5, math.nan, math.inf, -math.inf])
    def test_rejects_non_integer_cutoff(self, cutoff):
        # a fractional or NaN cutoff must not reach range(), which raises TypeError
        kern = make_kernel("cosine-product")
        with pytest.raises(ValueError, match="mode_cutoff must be an integer >= 1"):
            build_factorization(kern, 2, 1.0, mode_cutoff=cutoff)

    def test_integral_float_cutoff_matches_int(self):
        kern = make_kernel("cosine-product")
        a = build_factorization(kern, 2, 1.0, mode_cutoff=8.0)
        b = build_factorization(kern, 2, 1.0, mode_cutoff=8)
        assert same_bits(a.f_samples, b.f_samples)
        assert a.certified_bound == b.certified_bound


class TestBump:
    def test_plateau_and_support(self):
        b = bump_function((-0.5, 0.5), (-2.0, 2.0))
        assert b(0.0) == 1.0
        assert b(-0.5) == 1.0 and b(0.5) == 1.0
        assert b(2.5) == 0.0 and b(-3.0) == 0.0
        xs = np.linspace(-3, 3, 1001)
        vals = b(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_sixth_derivative_flat_at_support_end(self):
        b = bump_function((-0.5, 0.5), (-2.0, 2.0))
        h = 1e-2
        stencil = np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0])
        for x0 in (-2.0, 2.0):
            pts = x0 + h * np.arange(-3, 4)
            d6 = float(stencil @ b(pts)) / h**6
            assert abs(d6) <= 1e-4

    def test_rejects_bad_nesting(self):
        with pytest.raises(ValueError, match="strictly inside"):
            bump_function((0.0, 1.0), (0.0, 2.0))
        with pytest.raises(ValueError, match="strictly inside"):
            bump_function((-1.0, 3.0), (0.0, 2.0))

    def test_derivative_sups_positive(self):
        b = bump_function((0.0, 1.0), (-1.0, 2.0))
        sups = [b.derivative_sup(j) for j in range(5)]
        assert sups[0] == 1.0
        assert all(s > 0 for s in sups[1:])

    def test_ramp_table_matches_symbolic_derivatives(self):
        # orders 6-8 take minutes symbolically; they are recorded in CHANGES.md
        assert RAMP_DERIVATIVE_SUPS[0] == 1.0
        for order in range(1, 6):
            assert RAMP_DERIVATIVE_SUPS[order] == pytest.approx(
                symbolic_ramp_derivative_sup(order), rel=1e-12, abs=0.0)

    def test_orders_beyond_the_table_fail_fast(self):
        # p = 0.1 asks for the default order d = ceil(1/p) + 1 = 11
        proc = run_python(
            "from schurlab.factorization import bump_function, power_ratio_base_bound\n"
            "for call in (lambda: bump_function((0, 1), (-1, 2)).derivative_sup(9),\n"
            "             lambda: power_ratio_base_bound(0.5, 0.1)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n",
            timeout=30.0)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        assert "up to order 8, got order 9" in lines[0]
        assert "up to order 8, got order 11" in lines[1]

    def test_certificates_run_without_sympy(self):
        proc = run_python(
            "import sys\n"
            "import schurlab.cli\n"
            "from schurlab.factorization import power_ratio_base_bound\n"
            "power_ratio_base_bound(0.5, 0.5, None, 256)\n"
            "print('sympy' in sys.modules)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestDyadicBlocks:
    def test_k0_identity(self):
        blk = dyadic_block_bound(0.5, 0.5, 0, 7.0)
        assert blk.bound == 7.0
        assert blk.y_interval == (0.5, 1.0)

    def test_k3_scaling(self):
        blk = dyadic_block_bound(0.5, 0.5, 3, 2.0)
        assert blk.bound == pytest.approx(2.0 * 2.0 ** (3 / 2), rel=1e-15)

    def test_gathered_tail(self):
        blk = dyadic_block_bound(0.5, 0.5, -1, 3.0)
        series = sum(2.0 ** (-j / 4) for j in range(4000))
        assert blk.bound == pytest.approx(3.0 * series**2, rel=1e-9)
        assert blk.y_interval == (1.0, math.inf)

    def test_homogeneity_exactness(self):
        base = 1.7
        for theta in (0.25, 0.5, 0.75):
            b0 = dyadic_block_bound(theta, 0.5, 0, base).bound
            for k in (1, 2, 5, 9):
                bk = dyadic_block_bound(theta, 0.5, k, base).bound
                assert abs(bk / b0 - 2.0 ** (-k * (theta - 1.0))) <= 1e-12 * (bk / b0)

    def test_blocks_tile_disjointly(self):
        blocks = [dyadic_block_bound(0.5, 0.5, k, 1.0) for k in range(8)]
        intervals = [b.y_interval for b in blocks]
        for (lo1, hi1), (lo2, hi2) in zip(intervals[1:], intervals):
            assert hi1 == lo2  # half-open cells abut, lower k owns the boundary
        assert intervals[0][1] == 1.0  # the gathered k=-1 block starts at 1

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            dyadic_block_bound(0.5, 0.5, -2, 1.0)

    def test_rejects_nan_base_bound(self):
        with pytest.raises(ValueError, match="base_bound must be nonnegative"):
            dyadic_block_bound(0.5, 0.5, 0, float("nan"))


@pytest.fixture(scope="module")
def plus_bound_half():
    return plus_kernel_bound(1.0, 0.5)


class TestPlusKernel:
    def test_finite_at_one(self, plus_bound_half):
        assert 0 < plus_bound_half < np.inf

    def test_exact_inverse_scaling(self, plus_bound_half):
        for a in (2.0, 10.0, 100.0):
            assert plus_kernel_bound(a, 0.5) <= plus_bound_half / a * (1 + 1e-9)

    def test_sandwich_at_32(self, plus_bound_half):
        a = 2.0
        xs = np.linspace(0.0, 1.0, 32)
        sym = SymbolMatrix(xs, xs, 1.0 / (a + xs[:, None] + xs[None, :]))
        est = multiplier_norm_lower(sym, 0.5, trials=4, seed=1)
        assert est.lower <= plus_kernel_bound(a, 0.5)

    def test_rejects_small_shift(self):
        with pytest.raises(ValueError):
            plus_kernel_bound(0.5, 0.5)

    def test_rejects_nan_shift(self):
        with pytest.raises(ValueError, match="requires a >= 1"):
            plus_kernel_bound(float("nan"), 1.0, None, 64)


class TestSumQuadrant:
    def test_exact_scaling_law(self):
        b1 = sum_quadrant_bound(1.0, 0.5, 0.5, 0.5)
        b2 = sum_quadrant_bound(2.0, 1.0, 0.5, 0.5)
        assert b2 == pytest.approx(2.0 ** (0.5 - 1.0) * b1, rel=1e-14)

    def test_finite_at_unit(self):
        val = sum_quadrant_bound(1.0, 1.0, 0.5, 0.5)
        assert 0 < val < np.inf

    def test_blowup_as_theta_to_one(self):
        assert sum_quadrant_bound(1.0, 1.0, 0.99, 0.5) > sum_quadrant_bound(1.0, 1.0, 0.5, 0.5)

    def test_sandwich_at_32(self):
        theta, p = 0.5, 0.5
        a, b = 1.0, 0.5
        xs = np.linspace(a, a + 7.0, 32)
        ys = np.linspace(b, b + 7.0, 32)
        vals = (xs[:, None] ** theta + ys[None, :] ** theta) / (xs[:, None] + ys[None, :])
        sym = SymbolMatrix(xs, ys, vals)
        est = multiplier_norm_lower(sym, p, trials=4, seed=2)
        assert est.lower <= sum_quadrant_bound(a, b, theta, p)

    def test_rejects_degenerate_corner(self):
        with pytest.raises(ValueError):
            sum_quadrant_bound(0.0, 0.0, 0.5, 0.5)

    @pytest.mark.parametrize("a, b", [(float("nan"), 1.0), (1.0, float("nan"))])
    def test_rejects_nan_corner(self, a, b):
        with pytest.raises(ValueError, match="need a, b >= 0"):
            sum_quadrant_bound(a, b, 0.5, 1.0)


class TestPowerRatioBase:
    def test_finite_and_positive(self):
        val = power_ratio_base_bound(0.5, 0.5)
        assert 0 < val < np.inf

    def test_feeds_dyadic_assembly(self):
        base = power_ratio_base_bound(0.5, 0.5)
        gathered = dyadic_block_bound(0.5, 0.5, -1, base)
        assert gathered.bound > base

    def test_sampled_blocks_stay_under_certificates(self, rng):
        from schurlab.operators import SignedPowerFunction
        from schurlab.multipliers import divided_difference_symbol
        theta, p = 0.5, 0.5
        f = SignedPowerFunction(theta, signed=False)
        base = power_ratio_base_bound(theta, p)
        for k in (-1, 0, 3):
            blk = dyadic_block_bound(theta, p, k, base)
            lo, hi = blk.y_interval
            ys = rng.uniform(lo, min(hi, lo * 8.0), 12)
            xs = rng.uniform(0.0, 4.0, 12)
            sym = divided_difference_symbol(np.sort(xs), np.sort(ys), f)
            est = multiplier_norm_lower(sym, p, trials=3, seed=k + 5)
            assert est.lower <= blk.bound


def test_sobolev_constants_grid_resolved():
    # certificates are only valid if the spectral sums have converged by the
    # default grid; compare against a twice-finer grid
    values = {n: {d: sobolev_constant(make_kernel("shifted-resolvent", grid_size=n), d)
                  for d in (2, 3)}
              for n in (1024, 2048)}
    for d in (2, 3):
        assert abs(values[1024][d] - values[2048][d]) <= 1e-8 * values[2048][d]


def test_thousand_symbol_sandwich(rng):
    # every sampled symbol is a restriction of a certified kernel, so the
    # witnessed lower bound can never cross the kernel's certificate
    corpus = []
    for name, p, d in (("cosine-product", 1.0, 2), ("von-mises", 1.0, 2),
                       ("shifted-resolvent", 0.5, 3), ("power-ratio-window", 1.0, 2),
                       ("complex-mode", 0.5, 3)):
        kernel = make_kernel(name)
        corpus.append((kernel, p, certified_pcb_bound(kernel, d, p)))
    for i in range(1000):
        kernel, p, upper = corpus[i % len(corpus)]
        size = int(rng.integers(2, 9))
        xs = np.sort(rng.uniform(0, 2 * np.pi, size))
        ys = np.sort(rng.uniform(0, 2 * np.pi, size))
        vals = np.real(np.asarray(kernel.evaluator(xs[:, None], ys[None, :])))
        sym = SymbolMatrix(xs, ys, vals)
        lower = multiplier_norm_lower(sym, p, trials=1, seed=i).lower
        assert lower <= upper + 1e-9, (kernel.name, i, lower, upper)


class TestCatalog:
    def test_names(self):
        names = set(kernel_catalog())
        assert {"power-ratio-singular", "power-ratio-window", "shifted-resolvent",
                "cosine-product", "complex-mode", "von-mises"} <= names

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_kernel("no-such-kernel")

    @pytest.mark.parametrize("a", [0.3, 0.4999, -1.0, float("nan")])
    def test_resolvent_pole_in_support_rejected(self, a):
        # a + u_x + u_y vanishes inside the bumps' support (-1/4, 5/4)^2 when a < 1/2
        with pytest.raises(ValueError, match="needs a >= 0.5"):
            make_kernel("shifted-resolvent", grid_size=64, a=a)

    @pytest.mark.parametrize("name, params, message", [
        ("power-ratio-window", {"theta": float("nan")}, "theta must be finite"),
        # von-mises reads no a, so it refuses one rather than check and ignore it
        ("von-mises", {"a": float("inf")}, "kernel 'von-mises' takes no parameter 'a'"),
        ("shifted-resolvent", {"a": float("inf")}, "kernel parameter a must be finite"),
    ])
    def test_non_finite_parameter_rejected(self, name, params, message):
        with pytest.raises(ValueError, match=message):
            make_kernel(name, grid_size=64, **params)

    @pytest.mark.parametrize("name, params", [
        ("von-mises", {"theta": 0.3}),
        ("cosine-product", {"a": 2.0}),
        ("power-ratio-window", {"a": 2.0}),
        ("shifted-resolvent", {"theta": 0.5}),
        ("power-ratio-singular", {"grid": 64}),
    ])
    def test_parameter_the_kernel_does_not_take_rejected(self, name, params):
        # the builders used to swallow any keyword, so the value was ignored
        (key,) = params
        with pytest.raises(ValueError, match=f"kernel '{name}' takes no parameter '{key}'"):
            make_kernel(name, **params)

    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, -2.0])
    def test_window_theta_outside_unit_interval_rejected(self, theta):
        # the kernel is the divided difference of the power map u^theta, 0 < theta < 1
        with pytest.raises(ValueError, match=r"theta must lie strictly inside \(0, 1\)"):
            make_kernel("power-ratio-window", grid_size=64, theta=theta)

    def test_resolvent_at_half_is_finite(self):
        kern = make_kernel("shifted-resolvent", grid_size=64, a=0.5)
        assert np.isfinite(kern.samples()).all()

    def test_window_kernel_matches_integral(self):
        # window kernel values reproduce the divided-difference quotient
        kern = make_kernel("power-ratio-window", theta=0.5)
        x = np.array([2.5])   # u = 1.25, inside the flat region
        y = np.array([3.0])   # u = 1.5
        val = float(np.real(kern.evaluator(x[:, None], y[None, :])[0, 0]))
        u, v = 1.25, 1.5
        assert val == pytest.approx((u**0.5 - v**0.5) / (u - v), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(kernel_catalog()))
    def test_broadcast_samples_match_mesh_evaluation(self, name):
        kern = make_kernel(name, grid_size=256)
        x = kern.grid()
        mesh_x, mesh_y = np.meshgrid(x, x, indexing="ij")
        mesh = np.asarray(kern.evaluator(mesh_x, mesh_y), dtype=complex)
        assert np.array_equal(kern.samples(), mesh)

    def test_evaluator_ignoring_an_axis_samples_the_full_grid(self):
        kern = SmoothKernel(lambda x, y: np.cos(x), 64)
        assert kern.samples().shape == (64, 64)
        c = kern.coefficients()
        assert abs(mode_index(c, 1, 0) - 0.5) < 1e-14
        assert abs(mode_index(c, -1, 0) - 0.5) < 1e-14

    @pytest.mark.parametrize("name", sorted(kernel_catalog()))
    def test_samples_keep_the_evaluator_dtype(self, name):
        kern = make_kernel(name, grid_size=256)
        want = np.complex128 if name == "complex-mode" else np.float64
        assert kern.samples().dtype == want
        assert kern.coefficients().dtype == np.complex128

    def test_mode_numbers_layout(self):
        m = _mode_numbers(8)
        assert list(m) == [0, 1, 2, 3, -4, -3, -2, -1]


# The row-blocked FFT, the in-place self-check and the diagonal-only midpoint
# must give the bits of the whole-grid computations they replaced.
BIG_KERNELS = [("power-ratio-singular", {}), ("power-ratio-window", {"theta": 0.3}),
               ("power-ratio-window", {"theta": 0.5}), ("power-ratio-window", {"theta": 0.8}),
               ("shifted-resolvent", {})]


class TestWholeGridOracles:
    @pytest.mark.parametrize("name", sorted(kernel_catalog()))
    def test_catalog_at_256(self, name):
        kern = make_kernel(name, grid_size=256)
        assert_stream_is_reference(kern)
        coeffs = kern.coefficients()
        assert same_bits(coeffs, reference_coefficients(kern))
        # the half-spectrum route moves coefficients by rounding only
        old = fft2_coefficients(kern)
        assert np.abs(coeffs - old).max() <= 1e-13 * np.abs(old).max()
        fact = build_factorization(kern, 2, 1.0, mode_cutoff=16)
        assert same_bits(fact.reconstruction_error, whole_grid_gap(fact, kern))
        columns, tail = whole_grid_terms(fact, kern)
        assert same_bits(fact.f_samples, (np.fft.ifft(columns, axis=0) * kern.grid_size).T)
        assert same_bits(fact.truncation_error, _round_up(tail))

    @pytest.mark.parametrize("name,params", BIG_KERNELS)
    def test_certificate_kernels_at_2048(self, name, params):
        kern = make_kernel(name, **params)
        assert kern.grid_size == 2048
        assert_stream_is_reference(kern)
        fact = build_factorization(kern, 2, 1.0, mode_cutoff=64)
        assert same_bits(fact.reconstruction_error, whole_grid_gap(fact, kern))
        columns, tail = whole_grid_terms(fact, kern)
        assert same_bits(fact.f_samples, (np.fft.ifft(columns, axis=0) * kern.grid_size).T)
        assert same_bits(fact.truncation_error, _round_up(tail))

    @pytest.mark.parametrize("name,params",
                             [(name, {"grid_size": 256}) for name in sorted(kernel_catalog())]
                             + BIG_KERNELS)
    def test_weighted_power_by_column_block(self, name, params):
        # the tail and Sobolev weights w @ |coeffs|^2 over the coefficient
        # stream, against the whole grid
        kern = make_kernel(name, **params)
        modes = np.abs(_mode_numbers(kern.grid_size).astype(float))
        weights = [modes**2, modes**0, modes**6]
        got = np.empty((len(weights), kern.grid_size))
        for cols, block in kern.coefficient_blocks():
            got[:, cols] = _weighted_power(block, weights)
        power = np.abs(reference_coefficients(kern))
        power *= power
        assert same_bits(got, np.array([w @ power for w in weights]))

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("n", [256, 2048])
    def test_power_diff_midpoint(self, theta, n):
        u = COORDINATE_STRETCH * (2.0 * np.pi * np.arange(n) / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = _power_diff(u[:, None], u[None, :], theta)
            want = full_grid_power_diff(u[:, None], u[None, :], theta)
        assert same_bits(got, want)

    def test_power_diff_on_scalars(self):
        for u, v in ((1.25, 1.5), (1.25, 1.25), (2.0, 2.0 + 1e-9)):
            assert same_bits(_power_diff(u, v, 0.5), full_grid_power_diff(u, v, 0.5))

    def test_power_diff_with_nan_and_inf_arguments(self):
        # the near band is looked for only when some |gap| is within 1e-6 of
        # the largest argument that is not NaN: a NaN or inf argument must
        # not hide a near entry elsewhere
        u = np.array([1.0, np.nan, 2.0, np.inf, 3.0])
        for v in (u, u + 1e-9, np.array([np.nan, 1.0, 2.0 + 1e-9, 3.0, 7.0])):
            with np.errstate(divide="ignore", invalid="ignore"):
                got = _power_diff(u[:, None], v[None, :], 0.5)
                want = full_grid_power_diff(u[:, None], v[None, :], 0.5)
            assert same_bits(got, want)

    @pytest.mark.parametrize("name,cutoff", [("power-ratio-singular", 64),
                                             ("cosine-product", 127), ("complex-mode", 3)])
    def test_grid_phases_are_built_with_the_bits_of_exp_1j_outer(self, name, cutoff):
        # built in place: the argument keeps the signed zeros of 1j * (l y)
        fact = build_factorization(make_kernel(name), 2, 1.0, mode_cutoff=cutoff)
        n = fact.grid_size
        want = np.exp(1j * np.outer(fact.g_labels.astype(float),
                                    2.0 * np.pi * np.arange(n) / n))
        assert same_bits(fact._grid_phases(), want)


def traced_peak(step) -> float:
    """Peak MiB that tracemalloc sees while ``step()`` runs."""
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_factorization_memory_guard():
    # no whole grid at 2048^2: one column group's half-spectrum row
    # transforms of the live rows (651, 1793 and 977 of 2048 rows here) and
    # one column block at a time. The traced peaks are about 13.5 MiB for the
    # factorization and 17.2 and 10.4 MiB for the window and resolvent
    # Sobolev constants; with all n/2 + 1 columns kept in one pass they were
    # 17.5, 30.4 and 17.5 MiB, with full-length row transforms 26, 58 and 32
    # MiB, and with the 64 MiB coefficient grid held 82, 68 and 67 MiB
    peak = traced_peak(lambda: build_factorization(
        make_kernel("power-ratio-singular"), 2, 1.0, mode_cutoff=64))
    assert peak <= 16, f"factorization traced peak {peak:.1f} MiB"
    peak = traced_peak(lambda: sobolev_constant(make_kernel("power-ratio-window"), 3))
    assert peak <= 20, f"window Sobolev constant traced peak {peak:.1f} MiB"
    peak = traced_peak(lambda: sobolev_constant(make_kernel("shifted-resolvent"), 3))
    assert peak <= 13, f"resolvent Sobolev constant traced peak {peak:.1f} MiB"


@pytest.mark.parametrize("name", ["power-ratio-window", "shifted-resolvent",
                                  "power-ratio-singular"])
def test_coefficient_pass_holds_the_kept_spectra_and_little_more(name):
    # one pass at 2048^2, consumed as sobolev_constant consumes it, holds the
    # half-spectrum row transforms of the live rows over the columns of its
    # largest column group and at most 2.5 MiB besides: one row block of
    # samples with the evaluator's temporaries on one part of it, or the
    # column buffer with its |block|^2 or the copy its mirrored columns are
    # gathered from
    kern = make_kernel(name)
    n = kern.grid_size
    live = sum(run.stop - run.start for block in _blocks(n, ROW_BLOCK)
               for run in _live_runs(kern._sample_rows(block)))
    widest = max(group[-1].stop - group[0].start for group in _column_groups(n))
    kept = live * widest * np.dtype(complex).itemsize / 2**20
    weights = [np.abs(_mode_numbers(n).astype(float)) ** 2]

    def one_pass():
        for _, block in kern.coefficient_blocks():
            _weighted_power(block, weights)

    peak = traced_peak(one_pass)
    assert peak <= kept + 2.5, f"{name}: traced peak {peak:.2f} MiB, kept {kept:.2f} MiB"


@pytest.mark.parametrize("n, groups", [(64, 1), (256, 1), (1024, 1), (2048, 2), (4096, 6)])
def test_column_groups_follow_the_grid_size(n, groups):
    # the half-spectrum column blocks in order, in groups of near-equal
    # length whose kept transforms fit in GROUP_BYTES with every row live
    found = _column_groups(n)
    assert len(found) == groups
    assert [block for group in found for block in group] == _blocks(n // 2 + 1, COLUMN_BLOCK)
    widths = [group[-1].stop - group[0].start for group in found]
    assert max(widths) * n * np.dtype(complex).itemsize <= GROUP_BYTES
    assert max(len(group) for group in found) - min(len(group) for group in found) <= 1
