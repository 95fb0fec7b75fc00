"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Criterion 4 checks its p = 0.6 gap against the exact
eigenvalue tail (``conftest.exp_kernel_tail``) to 1e-6 relative, in both
directions, and the convergence/divergence dichotomy through decade-gap ratios.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import schurlab as sl
import schurlab.cli as cli
from schurlab import serialize
from schurlab.factorization import make_kernel
from schurlab.interpolation import KFunctionalQuery

from conftest import exp_kernel_tail, random_hermitian, random_psd

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def seeded(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def test_criterion_1_divided_difference_exactness():
    started = time.time()
    worst = 0.0
    trials = 1000
    for i in range(trials):
        rng = seeded(101, i)
        dim = int(rng.integers(2, 9))
        x = sl.spectral_decompose(random_hermitian(dim, rng))
        y = sl.spectral_decompose(random_hermitian(dim, rng))
        diff = x.entries - y.entries
        for theta in (0.25, 0.5, 0.75):
            scale = max(sl.schatten_norm(x.entries, np.inf),
                        sl.schatten_norm(y.entries, np.inf)) ** theta
            for signed in (False, True):
                f = sl.SignedPowerFunction(theta, signed)
                sym = sl.divided_difference_symbol(
                    x.distinct_eigenvalues, y.distinct_eigenvalues, f)
                lhs = sl.apply_calculus(x, f).entries - sl.apply_calculus(y, f).entries
                rhs = sl.schur_apply(sym, x, y, diff)
                gap = np.abs(lhs - rhs).max() / scale
                worst = max(worst, gap)
        assert worst <= 1e-9, f"trial {i}: defect {worst:.3e}"
    elapsed = time.time() - started
    ok = worst <= 1e-9 and elapsed < 30
    assert report(1, ok, f"{trials} pairs, max defect {worst:.2e} <= 1e-9, {elapsed:.1f}s < 30s")


def test_criterion_2_positive_constant_one():
    started = time.time()
    combos = ((1.0, 0.5), (2.0, 0.5), (1.0, 0.75), (0.75, 0.5))
    worst = 0.0
    for ci, (p, theta) in enumerate(combos):
        for i in range(1000):
            rng = seeded(202, ci, i)
            dim = int(rng.integers(2, 7))
            s = sl.bks_check(random_psd(dim, rng), random_psd(dim, rng), p, theta)
            if not s.degenerate:
                worst = max(worst, s.ratio)
            assert worst <= 1.0 + 1e-9
    elapsed = time.time() - started
    ok = worst <= 1.0 + 1e-9 and elapsed < 60
    assert report(2, ok, f"4000 positive pairs, max ratio {worst:.12f} <= 1+1e-9, "
                         f"{elapsed:.1f}s < 60s")


def test_criterion_3_kernel_spectrum():
    started = time.time()
    spec = sl.analytic_eigenvalues(10)
    grid = sl.nystrom_spectrum(2000)
    rel = np.abs(grid[:10] - spec.lambdas) / spec.lambdas
    residuals = [sl.eigenfunction_residual(k, 2048) for k in range(1, 11)]
    trace_gap = abs(sl.analytic_eigenvalues(500).lambdas.sum() - 1.0)
    elapsed = time.time() - started
    ok = rel.max() <= 1e-3 and max(residuals) <= 1e-6 and trace_gap <= 1e-3 and elapsed < 120
    assert report(3, ok, f"eigenvalue rel err {rel.max():.2e} <= 1e-3, "
                         f"residual {max(residuals):.2e} <= 1e-6, "
                         f"trace gap {trace_gap:.2e} <= 1e-3, {elapsed:.1f}s < 120s")


def test_criterion_4_schatten_dichotomy():
    started = time.time()
    ks = [10**2, 10**4, 10**5, 10**6]
    sums_half = sl.schatten_partial_sums(0.5, ks)
    fit = [0, 1, 3]  # K = 10^2, 10^4, 10^6
    fit_sums = sums_half[fit]
    logk = np.log(np.asarray(ks, dtype=float)[fit])
    design = np.vstack([logk, np.ones(3)]).T
    (c, b), *_ = np.linalg.lstsq(design, fit_sums, rcond=None)
    fit_residual = np.max(np.abs(design @ np.array([c, b]) - fit_sums) / fit_sums)
    c_target = math.sqrt(2.0) / math.pi
    c_err = abs(c - c_target) / c_target
    # decade gaps S(10K) - S(K) for K = 10^4, 10^5: constant at p = 1/2
    # (log divergence), shrinking by 10^-0.2 per decade at p = 0.6 (convergence)
    ratio_half = (sums_half[3] - sums_half[2]) / (sums_half[2] - sums_half[1])
    sums_06 = sl.schatten_partial_sums(0.6, ks[1:])
    gap = float(sums_06[2] - sums_06[1])
    ratio_06 = gap / float(sums_06[1] - sums_06[0])
    tail = exp_kernel_tail(0.6, 10**5, 10**6)
    tail_err = abs(gap - tail) / tail
    elapsed = time.time() - started
    half_ok = fit_residual <= 0.05 and c_err <= 0.15
    dichotomy_ok = abs(ratio_half - 1.0) <= 1e-3 and abs(ratio_06 - 10.0**-0.2) <= 1e-3
    gap_ok = tail_err <= 1e-6
    report(4, half_ok and dichotomy_ok and gap_ok and elapsed < 120,
           f"log-fit residual {fit_residual:.2%} <= 5%, slope {c:.4f} vs sqrt(2)/pi "
           f"({c_err:.2%} <= 15%), decade-gap ratio {ratio_half:.6f} vs 1 at p=1/2 and "
           f"{ratio_06:.6f} vs 10^-0.2 at p=0.6 (within 1e-3), p=0.6 gap {gap:.10f} vs "
           f"exact tail {tail:.10f} (rel {tail_err:.1e} <= 1e-6), {elapsed:.1f}s < 120s")
    assert half_ok
    assert elapsed < 120
    assert dichotomy_ok, (
        f"decade-gap ratios {ratio_half:.6f} at p=1/2 (log divergence: 1) and "
        f"{ratio_06:.6f} at p=0.6 (convergence: 10^-0.2) are off by more than 1e-3")
    assert gap_ok, (
        f"p=0.6 gap S(1e6)-S(1e5) = {gap:.12f} is off the exact tail "
        f"{tail:.12f} by {tail_err:.2e} relative (> 1e-6). The oracle is "
        "(2/pi^2)^0.6 * sum_{1e5 < k <= 1e6} (k-1)^-1.2 summed with fsum; "
        "lambda_k = 2/((k-1) pi)^2 holds there to relative 5/((k-1) pi)^2 < 1e-10."
    )


CORPUS = (
    ("power-ratio-singular", {}),
    ("power-ratio-window", {"theta": 0.5}),
    ("shifted-resolvent", {"a": 1.0}),
    ("cosine-product", {}),
    ("complex-mode", {}),
    ("von-mises", {}),
)


def test_criterion_5_certification_sandwich():
    started = time.time()
    details = []
    for name, params in CORPUS:
        kernel = make_kernel(name, **params)
        n = kernel.grid_size
        xs = 2.0 * np.pi * (np.arange(24) + 0.5) / 24.0
        values = np.real(np.asarray(kernel.evaluator(xs[:, None], xs[None, :])))
        sym = sl.SymbolMatrix(xs, xs, values)
        for p in (0.5, 1.0):
            d = math.ceil(1.0 / p) + 1
            upper = sl.certified_pcb_bound(kernel, d, p)
            lower = sl.multiplier_norm_lower(sym, p, trials=4, seed=505).lower
            assert lower <= upper + 1e-9, (name, p, lower, upper)
        cutoff = min(256, n // 2 - 1)
        fact = sl.build_factorization(kernel, 2, 1.0, mode_cutoff=cutoff)
        err = np.abs(fact.reconstruct() - kernel.samples()).max()
        limit = 1e-6 if n // 2 - 1 >= 256 else 1e-9
        assert err <= limit, (name, err)
        details.append(f"{name}: recon {err:.1e}")
    elapsed = time.time() - started
    ok = elapsed < 180
    assert report(5, ok, f"{len(CORPUS)} kernels sandwiched at p in {{1/2, 1}}; "
                         + "; ".join(details) + f"; {elapsed:.1f}s < 180s")


def test_criterion_6_homogeneity_and_shift_scaling():
    base = 3.7
    worst = 0.0
    for theta in (0.25, 0.5, 0.75):
        for p in (0.5, 1.0):
            b0 = sl.dyadic_block_bound(theta, p, 0, base).bound
            for k in range(0, 12):
                bk = sl.dyadic_block_bound(theta, p, k, base).bound
                target = 2.0 ** (-k * (theta - 1.0))
                worst = max(worst, abs(bk / b0 - target) / target)
    assert worst <= 1e-12
    products = [sl.plus_kernel_bound(a, 0.5) * a for a in (1.0, 2.0, 5.0, 10.0, 100.0)]
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(products, products[1:]))
    assert monotone
    assert report(6, True, f"dyadic ratio error {worst:.1e} <= 1e-12; "
                           f"shifted-resolvent bound * a nonincreasing: {monotone}")


def test_criterion_7_interpolation_suite():
    started = time.time()
    from test_interpolation import peetre_l1_linf

    # (l1, linf) classical formula against the grid search
    worst_gap = 0.0
    grid = 128
    for i in range(100):
        rng = seeded(707, i)
        values = np.sort(rng.uniform(0.0, 2.0, int(rng.integers(2, 7))))[::-1]
        prof = sl.RearrangementProfile(values)
        t = float(10.0 ** rng.uniform(-1, 1))
        got = sl.k_functional(prof, KFunctionalQuery(t, sl.SchattenIndex(1.0),
                                                     sl.SchattenIndex.INF), grid)
        target = peetre_l1_linf(values, t)
        assert got >= target - 1e-12
        resol = 2.0 * values[0] / grid + 1e-9
        assert got <= target + resol, (i, got, target)
        worst_gap = max(worst_gap, got - target)

    # selfadjoint two-sided comparison with the explicit factor
    violations = 0
    for i in range(40):
        rng = seeded(708, i)
        x = np.diag(rng.standard_normal(4))
        for p0, p1 in ((1.0, np.inf), (0.5, 2.0)):
            factor = 2.0 ** (max(1.0 / p0, 1.0) - 1.0)
            q = KFunctionalQuery(float(10.0 ** rng.uniform(-1, 1)),
                                 sl.SchattenIndex(p0), sl.SchattenIndex(p1))
            plain, sa = sl.selfadjoint_k_gap(x, q, 64)
            if not (sa >= plain - 1e-9 and plain >= sa / factor - 1e-9):
                violations += 1
    assert violations == 0

    # ratio sweeps: finite and logged
    logged = []
    for i in range(8):
        rng = seeded(709, i)
        x, y = random_hermitian(3, rng), random_hermitian(3, rng)
        for t in (0.1, 1.0, 10.0):
            logged.append(sl.kfonc_check(x, y, 0.5, 2.0, 0.5, True, t, grid=32).ratio)
        for qq in (0.5, 1.0, np.inf):
            logged.append(sl.weak_lp_check(x, y, 1.0, qq, 0.5, True).ratio)
    assert all(np.isfinite(v) for v in logged)
    elapsed = time.time() - started
    ok = elapsed < 120
    assert report(7, ok, f"classical-formula gap <= grid resolution (worst {worst_gap:.2e}); "
                         f"selfadjoint factor violations: {violations}; "
                         f"{len(logged)} sweep ratios finite; {elapsed:.1f}s < 120s")


def _run_search_per_dim():
    per_dim = {}
    for dim in range(2, 9):
        r = sl.estimate_constant(0.5, 0.5, True, dims=[dim], trials=10_000,
                                 seed=20240311)
        per_dim[str(dim)] = r.per_dim[dim]
    return per_dim


def regenerate_search_fixture():  # helper, not collected by pytest
    payload = {
        "comment": "search maxima for the signed power-map ratio at p=1/2, "
                   "theta=1/2; regenerate with "
                   "tests/test_acceptance.py::regenerate_search_fixture",
        "p": 0.5, "theta": 0.5, "signed": True, "trials": 10000, "seed": 20240311,
        "per_dim": _run_search_per_dim(),
    }
    path = FIXTURE_DIR / "constant_search_p05_theta05.json"
    path.write_text(serialize.dumps_canonical(payload) + "\n")
    return path


def test_criterion_8_exploratory_search_regression():
    started = time.time()
    per_dim = _run_search_per_dim()
    vals = np.array([per_dim[str(d)] for d in range(2, 9)])
    growth = vals.max() / vals.min()
    assert growth <= 3.0
    with open(FIXTURE_DIR / "constant_search_p05_theta05.json", encoding="utf-8") as fh:
        frozen = json.load(fh)["per_dim"]
    drift = max(abs(per_dim[k] - frozen[k]) / frozen[k] for k in frozen)
    assert drift <= 1e-6, f"search no longer reproduces the archived report ({drift:.2e})"
    elapsed = time.time() - started
    assert report(8, True, f"per-dim maxima {np.round(vals, 4).tolist()}, growth "
                           f"{growth:.3f} <= 3, fixture drift {drift:.1e}, {elapsed:.0f}s")


def test_criterion_9_cli_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / f"bks-{tag}.json"
        code = cli.main(["bks", "--p", "1", "--theta", "0.5", "--dims", "2,4,6",
                         "--trials", "200", "--seed", "7", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        runs.append(serialize.dumps_canonical(payload["body"]).encode())
    ok = runs[0] == runs[1]
    assert report(9, ok, f"repeated CLI run bodies byte-identical: {ok} "
                         f"({len(runs[0])} bytes)")
