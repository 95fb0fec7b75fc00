"""Empirical ratio experiments for the Hölder functional-calculus bounds.

Each operation evaluates one candidate ratio numerator/denominator whose
supremum is the constant under study; searches maximize the ratio over random
ensembles with deterministic per-trial seeding (seed, dim, trial). Sweeps
evaluate blocks of BLOCK_TRIALS trials through the stacked spectral core; the
single-pair functions are one-member blocks, so a trial's ratio has the same
bits in any block. Degenerate denominators are flagged and excluded from
maxima rather than divided.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .operators import (
    HermitianOperand,
    SchattenIndex,
    SignedPowerFunction,
    SpectralStack,
    _check_int,
    _check_theta,
    as_index,
    calculus_stack,
    decompose_stack,
    reject_members,
    schatten_norms,
    spectral_decompose,
)

__all__ = [
    "BLOCK_TRIALS",
    "RatioBlock",
    "RatioSample",
    "SearchReport",
    "ando_ratio",
    "ando_ratios",
    "bks_check",
    "bks_ratios",
    "estimate_constant",
    "commutator_ratio",
    "commutator_ratios",
    "anticommutator_ratio",
    "mazur_ratio",
    "mazur_ratios",
    "sweep_trials",
    "random_hermitian",
    "random_pair",
    "random_psd",
]

DEGENERATE_FLOOR = 1e-300
PSD_TOL = 1e-10
HILL_CLIMB_ROUNDS = 100
HILL_CLIMB_MIN_SCALE = 1e-8
# Trials per stacked evaluation. Larger blocks buy little speed and cost
# peak memory: a dim-8, 1500-trial search (2-vCPU x86 VM, one BLAS thread)
# took 1.14 s / 38.0 MB one trial at a time, 0.33 s / 38.2 MB in blocks of
# 64, 0.31 s / 41.7 MB in blocks of 256 and 0.27 s / 60.4 MB in one block.
BLOCK_TRIALS = 64


def trial_rng(*entropy) -> np.random.Generator:
    """The generator of one trial, seeded by SeedSequence(entropy), for
    instance (seed, dim, trial); independent of every other trial."""
    return np.random.default_rng(np.random.SeedSequence([int(e) for e in entropy]))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex Gaussian entries x + iy, every x drawn before every y."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def sweep_trials(trial_ids, draw, evaluate):
    """Yield (trial, ratio, degenerate, matrices) for ``trial_ids`` in order,
    evaluated in blocks of BLOCK_TRIALS: ``draw(trial)`` returns the trial's
    matrices from its own generator, ``evaluate(*stacks, trials=ids)`` the
    RatioBlock of a block, one (B, ...) stack per matrix. ``matrices`` are the
    trial's members of the stacks after ``evaluate``, which may normalise them
    in place. A (B, cases) RatioBlock yields each trial once per case, in order."""
    for lo in range(0, len(trial_ids), BLOCK_TRIALS):
        ids = trial_ids[lo:lo + BLOCK_TRIALS]
        stacks = [np.array(m, dtype=complex) for m in zip(*(draw(t) for t in ids))]
        result = evaluate(*stacks, trials=ids)
        ratios = result.ratio.reshape(len(ids), -1).tolist()
        degenerate = result.degenerate.reshape(len(ids), -1).tolist()
        for k, trial in enumerate(ids):
            matrices = tuple(s[k] for s in stacks)
            for ratio, deg in zip(ratios[k], degenerate[k]):
                yield trial, ratio, deg, matrices


def index_label(p) -> object:
    q = as_index(p)
    return "inf" if q.is_infinite else q.value


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=complex))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class RatioSample:
    """One evaluated ratio with enough metadata to reproduce it."""

    numerator: float
    denominator: float
    ratio: float
    degenerate: bool
    inputs_digest: str
    parameters: dict


@dataclass(frozen=True)
class RatioBlock:
    """Numerators and denominators of a block of ratios, one per trial (and case)."""

    numerator: np.ndarray
    denominator: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        return self.denominator <= DEGENERATE_FLOOR

    @property
    def ratio(self) -> np.ndarray:
        """numerator / denominator, and 0 where the denominator is degenerate."""
        deg = self.degenerate
        return np.where(deg, 0.0, self.numerator / np.where(deg, 1.0, self.denominator))


def _single_sample(block: RatioBlock, inputs, **parameters) -> RatioSample:
    """The sample of a one-member block: the digest of its input matrices and
    ``parameters`` with the dimension of the first input appended."""
    return RatioSample(float(block.numerator[0]), float(block.denominator[0]),
                       float(block.ratio[0]), bool(block.degenerate[0]), _digest(*inputs),
                       {**parameters, "dim": inputs[0].shape[0]})


@dataclass
class SearchReport:
    """Outcome of a seeded ratio search: maxima, trajectory, witnesses."""

    best: RatioSample
    trials: int
    seed: int
    dims_swept: list
    history: list = field(default_factory=list)  # (trial counter, best so far)
    witness_x: np.ndarray | None = None
    witness_y: np.ndarray | None = None
    per_dim: dict = field(default_factory=dict)


def _as_stack(x) -> SpectralStack:
    """One-member stack of an operand, or of a freshly decomposed matrix."""
    return SpectralStack.of(x if isinstance(x, HermitianOperand) else spectral_decompose(x))


def _power_or_zero(base: np.ndarray, exponent: float) -> np.ndarray:
    return np.where(base > 0, base**exponent, 0.0)


def ando_ratios(x: SpectralStack, y: SpectralStack, p, theta: float,
                signed: bool) -> RatioBlock:
    """||f(x) - f(y)||_{p/theta} / ||x - y||_p^theta for each member pair."""
    if x.entries.shape != y.entries.shape:
        raise ValueError("operands must share a dimension")
    q = as_index(p)
    f = SignedPowerFunction(theta, signed)
    fx = calculus_stack(x, f)
    fy = calculus_stack(y, f)
    num = schatten_norms(fx.entries - fy.entries, q / theta, x.trials)
    base = schatten_norms(x.entries - y.entries, q, x.trials)
    return RatioBlock(num, _power_or_zero(base, theta))


def ando_ratio(x, y, p, theta: float, signed: bool) -> RatioSample:
    """||f(x) - f(y)||_{p/theta} / ||x - y||_p^theta for the power map f."""
    xs, ys = _as_stack(x), _as_stack(y)
    return _single_sample(ando_ratios(xs, ys, p, theta, signed), (xs.entries[0], ys.entries[0]),
                          p=index_label(p), theta=theta, signed=signed)


def _reject_indefinite(**stacks: SpectralStack) -> None:
    """Reject the first member with an eigenvalue below -PSD_TOL * max(1, radius)."""
    for name, s in stacks.items():
        low = s.eigenvalues.min(axis=-1, initial=0.0)
        radius = np.abs(s.eigenvalues).max(axis=-1, initial=0.0)
        reject_members(
            low < -PSD_TOL * np.maximum(1.0, radius), s.trials,
            lambda i: f"{name} is not positive semidefinite: min eigenvalue {low[i]:.3e}")


def bks_ratios(x: SpectralStack, y: SpectralStack, p, theta: float) -> RatioBlock:
    """Positive-operator ratios; the classical inequality makes them <= 1 for p >= theta."""
    q = as_index(p)
    _check_theta(theta)  # before theta is compared with p
    if not q.is_infinite and q.value < theta:
        raise ValueError("the constant-1 inequality needs p >= theta")
    _reject_indefinite(x=x, y=y)
    return ando_ratios(x, y, q, theta, signed=False)


def bks_check(x, y, p, theta: float) -> RatioSample:
    """Positive-operator ratio; the classical inequality makes it <= 1 for p >= theta."""
    xs, ys = _as_stack(x), _as_stack(y)
    return _single_sample(bks_ratios(xs, ys, p, theta), (xs.entries[0], ys.entries[0]),
                          p=index_label(p), theta=theta, signed=False)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = _complex_gaussian(rng, (dim, dim))
    return 0.5 * (g + g.conj().T)


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = _complex_gaussian(rng, (dim, dim))
    return (g @ g.conj().T) / dim


def _random_projection(dim: int, rng: np.random.Generator) -> np.ndarray:
    rank = int(rng.integers(1, dim + 1))
    g = _complex_gaussian(rng, (dim, rank))
    qmat, _ = np.linalg.qr(g)
    return qmat[:, :rank] @ qmat[:, :rank].conj().T


def random_pair(dim: int, rng: np.random.Generator, kind: int) -> tuple[np.ndarray, np.ndarray]:
    """Ensembles probing the divided-difference blow-up regimes.

    kind 0: independent Gaussian Hermitian pair; kind 1: projection shift
    x, x + t q; kind 2: near-degenerate spectrum (eigengaps 1e-3) plus a tiny
    perturbation; kind 3: near-commuting diagonals with a small rotation.
    """
    kind = kind % 4
    if kind == 0:
        return random_hermitian(dim, rng), random_hermitian(dim, rng)
    if kind == 1:
        x = random_hermitian(dim, rng)
        t = float(rng.standard_normal()) or 1.0
        return x, x + t * _random_projection(dim, rng)
    if kind == 2:
        # near-degenerate spectra; a zero center makes the spectrum straddle
        # the sign crossing, where the signed power map is least regular
        center = 0.0 if rng.integers(2) else float(rng.standard_normal())
        lams = center + 1e-3 * rng.standard_normal(dim)
        u, _ = np.linalg.qr(_complex_gaussian(rng, (dim, dim)))
        x = (u * lams) @ u.conj().T
        x = 0.5 * (x + x.conj().T)
        eps = 10.0 ** rng.uniform(-4, 0)
        return x, x + eps * random_hermitian(dim, rng)
    d1 = np.diag(rng.standard_normal(dim))
    d2 = np.diag(rng.standard_normal(dim))
    eps = 10.0 ** rng.uniform(-6, -1)
    rot = _unitary_from(eps * random_hermitian(dim, rng))
    return d1, rot @ d2 @ rot.conj().T


def _unitary_from(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def _greedy_climb(start, objective, step, rng: np.random.Generator, rounds: int,
                  scale: float, min_scale: float):
    """Greedy ascent from ``start``: up to ``rounds`` proposals
    ``step(best, scale, rng)``, each kept if it raises ``objective``; a
    rejected one halves ``scale``, and the climb stops once it falls below
    ``min_scale``. Returns the end point and its objective value."""
    best, value = start, objective(start)
    for _ in range(rounds):
        cand = step(best, scale, rng)
        cand_value = objective(cand)
        if cand_value > value:
            best, value = cand, cand_value
        else:
            scale *= 0.5
            if scale < min_scale:
                break
    return best, value


def _hermitian_step(pair, scale: float, rng: np.random.Generator):
    """A Hermitian coordinate step of ``scale`` (real symmetric or imaginary
    antisymmetric, random sign) added to one matrix of ``pair``."""
    x, y = pair
    dim = x.shape[0]
    i = int(rng.integers(dim))
    j = int(rng.integers(dim))
    which = int(rng.integers(2))
    direction = np.zeros((dim, dim), dtype=complex)
    if i == j:
        direction[i, i] = 1.0
    elif rng.integers(2):
        direction[i, j] = direction[j, i] = 1.0
    else:
        direction[i, j] = 1.0j
        direction[j, i] = -1.0j
    step = scale * (1.0 if rng.integers(2) else -1.0) * direction
    # adding 0.0 to the other matrix too turns its -0.0 entries into +0.0
    return x + (step if which == 0 else 0.0), y + (step if which == 1 else 0.0)


def _search_config_digest(q: SchattenIndex, theta: float, signed: bool, dims: list,
                          trials: int, seed: int) -> str:
    """SHA-256 of the canonical (p, theta, signed, dims, trials, seed) record."""
    config = {"p": index_label(q), "theta": float(theta), "signed": bool(signed),
              "dims": list(dims), "trials": trials, "seed": seed}
    return hashlib.sha256(serialize.dumps_canonical(config).encode()).hexdigest()


def _pair_to_json(pair) -> tuple:
    return tuple(None if m is None else serialize.matrix_to_json(m) for m in pair)


def _pair_from_json(x, y) -> tuple:
    return tuple(None if m is None else serialize.matrix_from_json(m) for m in (x, y))


def estimate_constant(p, theta: float, signed: bool, dims, trials: int,
                      seed: int = 0, checkpoint_every: int | None = None,
                      checkpoint_cb=None, resume: dict | None = None) -> SearchReport:
    """Maximize the power-map ratio over seeded random pairs and refinement.

    The deterministic witness (diag(1, 0, ...), 0) opens every dimension, so
    the best ratio is always >= 1 up to rounding; per-dimension maxima are
    recorded in ``per_dim``. Per-trial seeds derive from (seed, dim, trial),
    and trials are evaluated in blocks of BLOCK_TRIALS but accounted in trial
    order, so a run resumed from a checkpoint state reproduces the
    uninterrupted result exactly. ``checkpoint_cb`` receives a serializable
    state dict every ``checkpoint_every`` trials; the state carries a digest
    of the search configuration, and resuming under another configuration
    raises ValueError.
    """
    trials = _check_int("trials", trials, 1)
    q = as_index(p)
    dims = [_check_int(f"dims[{i}]", d, 1) for i, d in enumerate(dims)]
    if not dims:
        raise ValueError("dims must be a nonempty list of positive integers, got []")
    # a repeated dim would replay the same seeded trials and climb
    repeated = [d for i, d in enumerate(dims) if d in dims[:i]]
    if repeated:
        raise ValueError(f"dims must not repeat, got dim {repeated[0]} more than once in {dims}")
    seed = _check_int("seed", seed, 0)
    config = _search_config_digest(q, theta, signed, dims, trials, seed)
    state = {
        "counter": 0, "history": [], "per_dim": {},
        "best_ratio": -1.0, "best_x": None, "best_y": None,
        "dim_best": -1.0, "dim_best_x": None, "dim_best_y": None,
        "position": [0, -1],
    }
    if resume is not None:
        if resume.get("config") != config:
            raise ValueError(
                "checkpoint was written for a different search configuration "
                "(p, theta, signed, dims, trials, seed)")
        missing = sorted(state.keys() - resume.keys())
        if missing:
            raise ValueError(f"checkpoint lacks the fields {missing}; start the search afresh")
        state = resume
    counter = int(state["counter"])
    history = [tuple(h) for h in state["history"]]
    per_dim = {int(k): float(v) for k, v in state["per_dim"].items()}
    best_ratio = float(state["best_ratio"])
    best_pair = _pair_from_json(state["best_x"], state["best_y"])
    start_dim, start_trial = state["position"]

    def evaluate(xs, ys, trials) -> RatioBlock:
        return ando_ratios(decompose_stack(xs, trials=trials),
                           decompose_stack(ys, trials=trials), q, theta, signed)

    def evaluate_pair(x, y) -> tuple[float, bool]:
        # the single-pair path, without the digest that only reports need
        block = ando_ratios(_as_stack(x), _as_stack(y), q, theta, signed)
        return float(block.ratio[0]), bool(block.degenerate[0])

    def consider(ratio: float, degenerate: bool, pair, dim):
        nonlocal best_ratio, best_pair
        if degenerate:
            return
        if ratio > per_dim.get(dim, 0.0):
            per_dim[dim] = ratio
        if ratio > best_ratio:
            best_ratio = ratio
            best_pair = (np.asarray(pair[0], dtype=complex), np.asarray(pair[1], dtype=complex))
            history.append((counter, ratio))

    def snapshot(position):
        best_x, best_y = _pair_to_json(best_pair)
        dim_best_x, dim_best_y = _pair_to_json(dim_best_pair)
        return {
            "config": config,
            "counter": counter,
            "history": [list(h) for h in history],
            "per_dim": {str(k): v for k, v in per_dim.items()},
            "best_ratio": best_ratio,
            "best_x": best_x,
            "best_y": best_y,
            "dim_best": dim_best,
            "dim_best_x": dim_best_x,
            "dim_best_y": dim_best_y,
            "position": list(position),
        }

    for di in range(start_dim, len(dims)):
        dim = dims[di]
        first_trial = start_trial + 1 if di == start_dim else 0
        if first_trial == 0:
            # (diag(1, 0, ...), 0) also seeds the refinement if every trial is degenerate
            opening = (np.zeros((dim, dim), dtype=complex), np.zeros((dim, dim), dtype=complex))
            opening[0][0, 0] = 1.0
            consider(*evaluate_pair(*opening), opening, dim)
            dim_best, dim_best_pair = -1.0, opening
        else:
            dim_best = float(state["dim_best"])
            dim_best_pair = _pair_from_json(state["dim_best_x"], state["dim_best_y"])
        pairs = sweep_trials(range(first_trial, trials),
                             lambda t: random_pair(dim, trial_rng(seed, dim, t), kind=t), evaluate)
        for trial, ratio, degenerate, pair in pairs:
            counter += 1
            consider(ratio, degenerate, pair, dim)
            if not degenerate and ratio >= dim_best:
                dim_best, dim_best_pair = ratio, pair
            if checkpoint_every and checkpoint_cb and counter % int(checkpoint_every) == 0:
                checkpoint_cb(snapshot((di, trial)))
        scale = 0.25 * max(np.abs(dim_best_pair[0]).max(), np.abs(dim_best_pair[1]).max(), 1e-6)
        climbed_pair, climbed = _greedy_climb(
            dim_best_pair, lambda pair: evaluate_pair(*pair)[0], _hermitian_step,
            trial_rng(seed, dim, 1 << 30), HILL_CLIMB_ROUNDS, scale, HILL_CLIMB_MIN_SCALE)
        counter += 1
        # nondegenerate: the climb starts from such a pair and accepts only larger ratios
        consider(climbed, False, climbed_pair, dim)

    best_sample = ando_ratio(best_pair[0], best_pair[1], q, theta, signed)
    return SearchReport(
        best=best_sample, trials=trials, seed=seed, dims_swept=dims,
        history=history, witness_x=best_pair[0], witness_y=best_pair[1],
        per_dim=per_dim,
    )


def commutator_ratios(x: SpectralStack, b, p, theta: float, signed: bool) -> RatioBlock:
    """||[f(x), b]||_{p/theta} / (||[x, b]||_p^theta ||b||^(1-theta)) per member."""
    b = np.asarray(b, dtype=complex)
    reject_members(~b.any(axis=(-2, -1)), x.trials, lambda i: "b must be nonzero")
    q = as_index(p)
    fx = calculus_stack(x, SignedPowerFunction(theta, signed))
    xb = x.entries @ b - b @ x.entries
    fb = fx.entries @ b - b @ fx.entries
    bound = schatten_norms(b, SchattenIndex.INF, trials=x.trials)
    num = schatten_norms(fb, q / theta, x.trials)
    base = schatten_norms(xb, q, x.trials)
    return RatioBlock(num, _power_or_zero(base, theta) * bound ** (1.0 - theta))


def commutator_ratio(x, b, p, theta: float, signed: bool) -> RatioSample:
    """||[f(x), b]||_{p/theta} / (||[x, b]||_p^theta ||b||^(1-theta))."""
    xs = _as_stack(x)
    b = np.asarray(b, dtype=complex)
    return _single_sample(commutator_ratios(xs, b[None], p, theta, signed), (xs.entries[0], b),
                          p=index_label(p), theta=theta, signed=signed)


def anticommutator_ratio(x, y, b, p, theta: float, sign: int) -> RatioSample:
    """||b x^theta +/- y^theta b||_{p/theta} / (||b x +/- y b||_p^theta ||b||^(1-theta))."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    xs, ys = _as_stack(x), _as_stack(y)
    _reject_indefinite(x=xs, y=ys)
    b = np.asarray(b, dtype=complex)[None]
    q = as_index(p)
    f = SignedPowerFunction(theta, signed=False)
    fx, fy = calculus_stack(xs, f), calculus_stack(ys, f)
    num = schatten_norms(b @ fx.entries + sign * fy.entries @ b, q / theta)
    base = float(schatten_norms(b @ xs.entries + sign * ys.entries @ b, q)[0])
    bound = float(schatten_norms(b, SchattenIndex.INF)[0])
    # scalar (libm) powers: numpy's array power can round the other way
    den = base**theta * bound ** (1.0 - theta) if base > 0 else 0.0
    block = RatioBlock(num, np.array([den]))
    return _single_sample(block, (xs.entries[0], ys.entries[0], b[0]),
                          p=index_label(q), theta=theta, sign=sign)


def _power_map(a: np.ndarray, exponent: float) -> np.ndarray:
    """u |a|^exponent through the SVD (partial isometry on the support), per member."""
    u, s, vh = np.linalg.svd(a)
    return (u * s[..., None, :] ** exponent) @ vh


def mazur_ratios(x, y, p: float, q: float, trials=None) -> RatioBlock:
    """Hölder ratios of the norm-homogenizing map between index p and q > p,
    for each member pair of two (B, m, n) stacks."""
    p = float(p)
    q = float(q)
    if not (0.0 < p < q):
        raise ValueError("need q > p > 0")
    if not math.isfinite(q):
        raise ValueError(f"q must be finite (theta = p/q would be 0), got q={q!r}")
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    theta = p / q
    base = schatten_norms(x - y, p, trials=trials)
    num = schatten_norms(_power_map(x, theta) - _power_map(y, theta), q, trials=trials)
    return RatioBlock(num, _power_or_zero(base, theta))


def mazur_ratio(x, y, p: float, q: float) -> RatioSample:
    """Hölder ratio of the norm-homogenizing map between index p and q > p."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return _single_sample(mazur_ratios(x[None], y[None], p, q), (x, y),
                          p=float(p), q=float(q), theta=float(p) / float(q))
