import json

import numpy as np
import pytest

import schurlab.experiments as experiments
from schurlab import serialize
from schurlab.experiments import (
    BLOCK_TRIALS,
    RatioBlock,
    ando_ratio,
    ando_ratios,
    anticommutator_ratio,
    bks_check,
    bks_ratios,
    commutator_ratio,
    commutator_ratios,
    estimate_constant,
    mazur_ratio,
    mazur_ratios,
    random_pair,
    sweep_trials,
)
from schurlab.operators import (
    SchattenIndex,
    SignedPowerFunction,
    apply_calculus,
    as_index,
    decompose_stack,
    schatten_norm,
    spectral_decompose,
)

from conftest import random_hermitian, random_psd, random_unitary, reference_sample


def reference_anticommutator_ratio(x, y, b, p, theta, sign):
    """Reference: the anticommutator ratio as it was computed off the stack
    core, one operand at a time with its own positivity check."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x, y = spectral_decompose(x), spectral_decompose(y)
    b = np.asarray(b, dtype=complex)
    q = as_index(p)
    for name, op in (("x", x), ("y", y)):
        if op.eigenvalues.min(initial=0.0) < -1e-10 * max(1.0, op.spectral_radius):
            raise ValueError(f"{name} must be positive semidefinite")
    f = SignedPowerFunction(theta, signed=False)
    fx, fy = apply_calculus(x, f), apply_calculus(y, f)
    bound = schatten_norm(b, SchattenIndex.INF)
    num = schatten_norm(b @ fx.entries + sign * fy.entries @ b, q / theta)
    base = schatten_norm(b @ x.entries + sign * y.entries @ b, q)
    den = base**theta * bound ** (1.0 - theta) if base > 0 else 0.0
    params = {"p": "inf" if q.is_infinite else q.value, "theta": theta, "sign": sign,
              "dim": x.dim}
    return reference_sample(num, den, (x.entries, y.entries, b), params)


class TestAndoRatio:
    def test_projection_vs_zero(self):
        for p in (0.5, 1.0, 2.0):
            for theta in (0.25, 0.5, 0.75):
                s = ando_ratio(np.diag([1.0, 0.0]), np.zeros((2, 2)), p, theta, signed=False)
                assert s.ratio == pytest.approx(1.0, rel=1e-12)

    def test_commuting_equality_case(self):
        s = ando_ratio(np.diag([4.0, 0.0]), np.diag([0.0, 1.0]), 1.0, 0.5, signed=False)
        assert s.ratio == pytest.approx(1.0, rel=1e-12)

    def test_anticommuting_pair_finite(self):
        x = np.array([[1.0, 0.0], [0.0, -1.0]])
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        s = ando_ratio(x, y, 0.5, 0.5, signed=True)
        assert not s.degenerate and np.isfinite(s.ratio)

    def test_identical_operands_flagged(self, rng):
        x = random_hermitian(3, rng)
        s = ando_ratio(x, x.copy(), 1.0, 0.5, signed=False)
        assert s.degenerate and s.ratio == 0.0

    def test_scale_invariance(self, rng):
        x, y = random_hermitian(4, rng), random_hermitian(4, rng)
        for lam in (0.1, 7.3):
            a = ando_ratio(x, y, 0.5, 0.5, True)
            b = ando_ratio(lam * x, lam * y, 0.5, 0.5, True)
            assert abs(a.ratio - b.ratio) <= 1e-10 * a.ratio

    def test_unitary_invariance(self, rng):
        x, y = random_hermitian(4, rng), random_hermitian(4, rng)
        u = random_unitary(4, rng)
        a = ando_ratio(x, y, 0.7, 0.5, False)
        b = ando_ratio(u @ x @ u.conj().T, u @ y @ u.conj().T, 0.7, 0.5, False)
        assert abs(a.ratio - b.ratio) <= 1e-10 * a.ratio

    def test_digest_identifies_inputs(self, rng):
        x, y = random_hermitian(3, rng), random_hermitian(3, rng)
        a = ando_ratio(x, y, 1.0, 0.5, False)
        b = ando_ratio(x, y, 1.0, 0.5, False)
        c = ando_ratio(y, x, 1.0, 0.5, False)
        assert a.inputs_digest == b.inputs_digest != c.inputs_digest


def _pair_stacks(dim, trials, seed=3):
    """Stacked random_pair draws; trial t draws kind t % 4."""
    pairs = [random_pair(dim, np.random.default_rng(np.random.SeedSequence([seed, dim, t])),
                         kind=t) for t in range(trials)]
    return [np.array(m, dtype=complex) for m in zip(*pairs)]


class TestBlocks:
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_block_equals_single_pair_bitwise(self, dim):
        xs, ys = _pair_stacks(dim, 12)  # three draws of each of the four kinds
        for p, theta, signed in ((0.5, 0.5, True), (1.0, 0.25, False),
                                 (SchattenIndex.INF, 0.75, True)):
            block = ando_ratios(decompose_stack(xs), decompose_stack(ys), p, theta, signed)
            for k in range(len(xs)):
                s = ando_ratio(xs[k], ys[k], p, theta, signed)
                assert s.numerator == block.numerator[k]
                assert s.denominator == block.denominator[k]
                assert s.ratio == block.ratio[k]
                assert s.degenerate == block.degenerate[k]

    def test_other_blocks_equal_single_calls_bitwise(self, rng):
        xs = np.array([random_psd(4, rng) for _ in range(6)])
        ys = np.array([random_psd(4, rng) for _ in range(6)])
        bs = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        bks = bks_ratios(decompose_stack(xs), decompose_stack(ys), 1.0, 0.5)
        com = commutator_ratios(decompose_stack(xs), bs, 0.5, 0.5, True)
        maz = mazur_ratios(xs, bs, 1.0, 2.0)
        for k in range(6):
            assert bks_check(xs[k], ys[k], 1.0, 0.5).ratio == bks.ratio[k]
            assert commutator_ratio(xs[k], bs[k], 0.5, 0.5, True).ratio == com.ratio[k]
            assert mazur_ratio(xs[k], bs[k], 1.0, 2.0).ratio == maz.ratio[k]

    def test_sweep_trials_yields_members_after_evaluate_in_trial_order(self):
        trial_ids = range(1, 2 * (2 * BLOCK_TRIALS + 5), 2)

        def draw(trial):
            return np.full((2, 2), float(trial)), 2.0 * np.eye(2)

        # a (B,) block, and a (B, 2) block of two cases, the second adding 0.5
        for shifts in ((0.0,), (0.0, 0.5)):
            blocks = []

            def evaluate(xs, bs, trials):
                blocks.append(list(trials))
                bs /= 2.0  # in place, as the commutator sweep normalises b
                x = xs[:, 0, 0].real
                num = np.stack([x + shift for shift in shifts], axis=1)
                den = np.stack([np.where(x > 10, 1.0, 0.0)] * len(shifts), axis=1)
                return RatioBlock(num, den) if len(shifts) > 1 else RatioBlock(num[:, 0], den[:, 0])

            out = list(sweep_trials(trial_ids, draw, evaluate))
            assert [len(b) for b in blocks] == [BLOCK_TRIALS, BLOCK_TRIALS, 5]
            assert sum(blocks, []) == list(trial_ids)
            assert [t for t, _, _, _ in out] == [t for t in trial_ids for _ in shifts]
            for (trial, ratio, degenerate, (x, b)), shift in zip(out, shifts * len(trial_ids)):
                assert degenerate == (trial <= 10)
                assert ratio == (0.0 if trial <= 10 else float(trial) + shift)
                assert np.array_equal(x, np.full((2, 2), float(trial)))
                assert np.array_equal(b, np.eye(2))

    def test_degenerate_member_is_flagged_alone(self):
        xs, ys = _pair_stacks(4, 8)
        ys[5] = xs[5]
        block = ando_ratios(decompose_stack(xs), decompose_stack(ys), 0.5, 0.5, True)
        assert block.degenerate.tolist() == [k == 5 for k in range(8)]
        assert block.ratio[5] == 0.0
        for k in range(8):
            if k != 5:
                assert block.ratio[k] == ando_ratio(xs[k], ys[k], 0.5, 0.5, True).ratio > 0

    def test_indefinite_member_is_named(self, rng):
        xs = np.array([random_psd(3, rng) for _ in range(4)])
        xs[2] = -xs[2]
        with pytest.raises(ValueError, match="trial 42: x is not positive semidefinite"):
            bks_ratios(decompose_stack(xs, trials=range(40, 44)),
                       decompose_stack(xs[::-1], trials=range(40, 44)), 1.0, 0.5)


class TestBks:
    def test_commuting_diagonals(self):
        s = bks_check(np.diag([4.0, 1.0]), np.diag([1.0, 2.0]), 1.0, 0.5)
        assert s.ratio <= 1.0 + 1e-9
        # disjoint supports give equality
        t = bks_check(np.diag([4.0, 0.0]), np.diag([0.0, 1.0]), 1.0, 0.5)
        assert t.ratio == pytest.approx(1.0, rel=1e-12)

    def test_random_sweep(self, rng):
        for p, theta in ((1.0, 0.5), (2.0, 0.5), (1.0, 0.75)):
            for _ in range(100):
                dim = int(rng.integers(2, 7))
                s = bks_check(random_psd(dim, rng), random_psd(dim, rng), p, theta)
                assert s.degenerate or s.ratio <= 1.0 + 1e-9

    def test_rank_one_perturbation_sweep(self, rng):
        y = random_psd(4, rng)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        bump = np.outer(v, v.conj())
        for eps in (1.0, 1e-2, 1e-4, 1e-6, 1e-8):
            s = bks_check(y + eps * bump, y, 1.0, 0.5)
            assert s.ratio <= 1.0 + 1e-9

    def test_rejects_indefinite(self, rng):
        with pytest.raises(ValueError, match="positive semidefinite"):
            bks_check(np.diag([1.0, -0.5]), np.eye(2), 1.0, 0.5)

    def test_rejects_p_below_theta(self):
        with pytest.raises(ValueError, match="p >= theta"):
            bks_check(np.eye(2), 2 * np.eye(2), 0.25, 0.5)


class TestEstimateConstant:
    def test_diagonal_witness_included(self):
        report = estimate_constant(2.0, 0.5, False, dims=[2], trials=2, seed=0)
        assert report.best.ratio >= 1.0 - 1e-12

    def test_deterministic(self):
        a = estimate_constant(0.5, 0.5, False, dims=[2, 3], trials=20, seed=5)
        b = estimate_constant(0.5, 0.5, False, dims=[2, 3], trials=20, seed=5)
        assert a.best.ratio == b.best.ratio
        assert a.history == b.history
        assert a.per_dim == b.per_dim

    def test_history_is_nondecreasing(self):
        report = estimate_constant(0.5, 0.5, True, dims=[2, 3], trials=30, seed=1)
        ratios = [r for _, r in report.history]
        assert ratios == sorted(ratios)
        assert report.best.ratio == ratios[-1]

    def test_checkpoint_resume_matches_full_run(self):
        kw = dict(p=0.5, theta=0.5, signed=False, dims=[2, 3], trials=25, seed=9)
        full = estimate_constant(**kw)
        snaps = []
        estimate_constant(**kw, checkpoint_every=10, checkpoint_cb=snaps.append)
        assert snaps  # at least two checkpoints from 50 counted trials
        resumed = estimate_constant(**kw, resume=snaps[-1])
        assert resumed.best.ratio == full.best.ratio
        assert resumed.per_dim == full.per_dim
        assert resumed.history == full.history

    def test_resume_inside_a_block_matches_full_run(self):
        # 130 trials end in a partial block; checkpoints every 20 trials fall
        # inside blocks of both dims
        assert 130 % BLOCK_TRIALS != 0
        kw = dict(p=0.5, theta=0.5, signed=True, dims=[2, 3], trials=130, seed=17)
        full = estimate_constant(**kw)
        snaps = []
        estimate_constant(**kw, checkpoint_every=20, checkpoint_cb=snaps.append)
        assert [s["position"] for s in snaps][4:8] == [[0, 99], [0, 119], [1, 8], [1, 28]]
        for snap in snaps:
            resumed = estimate_constant(**kw, resume=snap)
            assert resumed.history == full.history
            assert resumed.per_dim == full.per_dim
            assert np.array_equal(resumed.witness_x, full.witness_x)
            assert np.array_equal(resumed.witness_y, full.witness_y)
            assert resumed.best.ratio == full.best.ratio

    def test_resume_draws_only_the_remaining_trials(self, monkeypatch):
        kw = dict(p=0.5, theta=0.5, signed=True, dims=[2], trials=1000, seed=3)
        full = estimate_constant(**kw)
        snaps = []
        estimate_constant(**kw, checkpoint_every=900, checkpoint_cb=snaps.append)
        assert [s["position"] for s in snaps] == [[0, 899]]
        snap = json.loads(serialize.dumps_canonical(snaps[0]))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return random_pair(*args, **kwargs)

        monkeypatch.setattr(experiments, "random_pair", counted)
        resumed = estimate_constant(**kw, resume=snap)
        assert len(calls) == 100
        assert resumed.history == full.history
        assert resumed.per_dim == full.per_dim
        assert np.array_equal(resumed.witness_x, full.witness_x)
        assert np.array_equal(resumed.witness_y, full.witness_y)

    def test_resume_rejects_other_config(self):
        kw = dict(p=0.5, theta=0.5, signed=False, dims=[2], trials=25, seed=9)
        snaps = []
        estimate_constant(**kw, checkpoint_every=10, checkpoint_cb=snaps.append)
        for change in (dict(p=2.0), dict(theta=0.25), dict(signed=True), dict(dims=[3]),
                       dict(trials=26), dict(seed=10)):
            with pytest.raises(ValueError, match="different search configuration"):
                estimate_constant(**{**kw, **change}, resume=snaps[0])

    def test_operator_norm_desk_analogue(self):
        # the witnessed ratio times (1 - theta) stays bounded as theta -> 1
        products = []
        for theta in (0.9, 0.99):
            report = estimate_constant(SchattenIndex.INF, theta, False,
                                       dims=[2, 4, 6], trials=150, seed=3)
            products.append(report.best.ratio * (1.0 - theta))
        assert all(v <= 10.0 for v in products)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            estimate_constant(1.0, 0.5, False, [2], trials=0)

    @pytest.mark.parametrize("dims, message", [
        ([], "dims must be a nonempty list of positive integers"),
        ([0], r"dims\[0\] must be an integer >= 1, got 0"),
        ([2, 0], r"dims\[1\] must be an integer >= 1, got 0"),
        ([-1], r"dims\[0\] must be an integer >= 1, got -1")],
        ids=["empty", "zero", "second-zero", "negative"])
    def test_rejects_empty_or_nonpositive_dims(self, dims, message):
        with pytest.raises(ValueError, match=message):
            estimate_constant(0.5, 0.5, True, dims, 5)

    @pytest.mark.parametrize("dims", [[2, 2], [3, 2, 3]])
    def test_rejects_repeated_dims(self, dims):
        # a repeated dim replays the same seeded trials and climb
        with pytest.raises(ValueError, match=f"dim {dims[-1]} more than once"):
            estimate_constant(0.5, 0.5, True, dims, 5)


class TestCommutator:
    def test_commuting_is_degenerate(self, rng):
        x = np.diag([2.0, 1.0])
        s = commutator_ratio(x, np.eye(2), 1.0, 0.5, signed=False)
        assert s.degenerate

    def test_nilpotent_unit(self):
        x = np.diag([1.0, 0.0])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        s = commutator_ratio(x, b, 1.0, 0.5, signed=False)
        assert s.ratio == pytest.approx(1.0, rel=1e-12)

    def test_random_finite(self, rng):
        x = random_hermitian(4, rng)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s = commutator_ratio(x, b, 0.5, 0.5, signed=True)
        assert np.isfinite(s.ratio) and s.ratio > 0

    def test_scale_invariance(self, rng):
        x = random_hermitian(4, rng)
        b = rng.standard_normal((4, 4))
        a1 = commutator_ratio(x, b, 0.5, 0.5, False)
        a2 = commutator_ratio(4.2 * x, b, 0.5, 0.5, False)
        assert abs(a1.ratio - a2.ratio) <= 1e-10 * a1.ratio

    def test_rejects_zero_b(self, rng):
        with pytest.raises(ValueError, match="nonzero"):
            commutator_ratio(random_hermitian(3, rng), np.zeros((3, 3)), 1.0, 0.5, False)


class TestAnticommutator:
    def test_difference_degenerate(self, rng):
        x = random_psd(3, rng)
        s = anticommutator_ratio(x, x, np.eye(3), 1.0, 0.5, sign=-1)
        assert s.degenerate

    def test_sum_identity_value(self, rng):
        x = random_psd(3, rng)
        for theta in (0.3, 0.5, 0.8):
            s = anticommutator_ratio(x, x, np.eye(3), 1.0, theta, sign=+1)
            assert s.ratio == pytest.approx(2.0 ** (1.0 - theta), rel=1e-10)

    def test_random_recorded(self, rng):
        x, y = random_psd(4, rng), random_psd(4, rng)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b /= np.linalg.svd(b, compute_uv=False)[0]
        s = anticommutator_ratio(x, y, b, 0.5, 0.5, sign=+1)
        assert np.isfinite(s.ratio) and not s.degenerate

    def test_rejects_indefinite(self, rng):
        with pytest.raises(ValueError, match="positive"):
            anticommutator_ratio(np.diag([1.0, -1.0]), np.eye(2), np.eye(2), 1.0, 0.5, 1)

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_reference_bitwise(self, dim):
        rng = np.random.default_rng(np.random.SeedSequence([8, dim]))
        for _ in range(10):
            x, y = random_psd(dim, rng), random_psd(dim, rng)
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for p, theta, sign in ((0.5, 0.5, 1), (1.0, 0.3, -1),
                                   (SchattenIndex.INF, 0.75, 1), (2.0, 0.6, -1)):
                s = anticommutator_ratio(x, y, b, p, theta, sign)
                assert s == reference_anticommutator_ratio(x, y, b, p, theta, sign)
        # the degenerate case: x = y, b = 1 and the minus sign
        s = anticommutator_ratio(x, x, np.eye(dim), 1.0, 0.5, -1)
        assert s.degenerate
        assert s == reference_anticommutator_ratio(x, x, np.eye(dim), 1.0, 0.5, -1)


class TestMazur:
    def test_hermitian_reduces_to_signed_power_ratio(self, rng):
        x, y = random_hermitian(4, rng), random_hermitian(4, rng)
        p, q = 1.0, 2.0
        s = mazur_ratio(x, y, p, q)
        a = ando_ratio(x, y, p, p / q, signed=True)
        assert s.ratio == pytest.approx(a.ratio, rel=1e-10)

    def test_scalar_times_unitary(self, rng):
        u = random_unitary(3, rng)
        s = mazur_ratio(2.7 * u, np.zeros((3, 3)), 1.0, 2.0)
        assert s.ratio == pytest.approx(1.0, rel=1e-12)

    def test_non_normal_finite(self, rng):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = mazur_ratio(x, y, 1.0, 2.0)
        assert np.isfinite(s.ratio) and not s.degenerate

    def test_zero_pair_degenerate(self):
        s = mazur_ratio(np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 2.0)
        assert s.degenerate

    def test_rejects_bad_indices(self, rng):
        with pytest.raises(ValueError):
            mazur_ratio(np.eye(2), np.zeros((2, 2)), 2.0, 1.0)

    def test_rejects_infinite_q(self):
        # theta = p/q would be 0: the map sends every matrix to a partial isometry
        with pytest.raises(ValueError, match="q must be finite"):
            mazur_ratio(np.eye(2), np.zeros((2, 2)), 1.0, float("inf"))
