"""The benchmark's workloads: the steps each one runs, built from the seed.

Two workloads each join two step groups: ``search-sweep`` (the criterion-8
search and six CLI sweeps) and ``certify-spectrum`` (the certificate pipeline
and the exponential-kernel spectrum). The groups stress different modules;
joining them gives every run about 55 s of work, because on a shared
2-vCPU virtual machine the speed drifts by 15-20% between 15-second windows
and a run's timing only settles over that much time. Each step's own
timings stay in the record.

The ``search-sweep`` steps are sized at 0.5-2 s each, so a run repeats every
step six times or more and a step's median rests on that many samples. The
criterion-8 search at its real size (10^4 trials) takes 8-12 s per dim, too
long to repeat; it runs once per run, untimed, as the fixture check at seed 0.
The ``certify-spectrum`` steps have fixed costs of 2-3 s (2048^2 sampling,
sympy ramp constants); they are shrunk where an argument allows (factorize
cutoff, bound grid, Nystrom and quadrature sizes), so each runs three or four
times.

A step is one fresh interpreter: a CLI command (``python -m schurlab ARGV``)
or one public library call (perfbench/api_step.py). Only CLI argv and names
the ``schurlab`` package exports are used, so internals can change freely.
Every CLI step gets ``--seed FIXTURE_SEED + seed``; benchmark seed 0
therefore reproduces the criterion-8 fixture. ``tiny`` sizes keep every step
but shrink it to well under a second, for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass

FIXTURE_SEED = 20240311
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Step:
    name: str            # unique within a workload; names the report file
    kind: str            # "cli" or "api"
    args: tuple          # CLI argv, or (function name, positional arguments)
    gate: str            # the gates.check gate its report must pass
    trials: int = 0      # seeded random trials the step completes
    timed: bool = True   # False: run once after the timed loop, gated but not timed


def program_seed(seed: int) -> int:
    return FIXTURE_SEED + seed


def _cli(name, gate, *argv, trials=0):
    return Step(name, "cli", tuple(str(a) for a in argv), gate, trials)


def search(seed: int, size: str) -> list[Step]:
    """Criterion-8 constant search, one process per dim (2 and 8 span 2-8).

    At seed 0 and full size one more run at the fixture's size (10^4 trials,
    dims 2 and 8 in one process) is gated against the fixture, untimed.
    """
    dims, trials = ((2, 8), 1500) if size == "full" else ((2, 3), 200)
    steps = [_cli(f"estimate-constant-dim{d}", "search", "estimate-constant",
                  "--p", 0.5, "--theta", 0.5, "--signed", "--trials", trials,
                  "--seed", program_seed(seed), "--dims", d, trials=trials)
             for d in dims]
    if size == "full" and seed == 0:
        steps.append(Step("estimate-constant-fixture", "cli",
                          ("estimate-constant", "--p", "0.5", "--theta", "0.5", "--signed",
                           "--trials", "10000", "--seed", str(FIXTURE_SEED), "--dims", "2,8"),
                          "search", timed=False))
    return steps


def sweep(seed: int, size: str) -> list[Step]:
    """Six short report-writing sweeps over different operator paths, each 0.5-1 s."""
    full = size == "full"
    s = program_seed(seed)

    def n(full_trials, tiny_trials):
        return full_trials if full else tiny_trials

    return [
        _cli("bks", "pass", "bks", "--p", 1, "--theta", 0.5, "--dims", "2,4,6",
             "--trials", n(600, 40), "--seed", s, trials=n(600, 40)),
        _cli("verify-ando", "pass", "verify-ando", "--dims", "2,4,6,8",
             "--trials", n(150, 20), "--seed", s, trials=n(150, 20)),
        _cli("commutator", "ratio", "commutator", "--p", 0.5, "--theta", 0.5,
             "--trials", n(400, 20), "--seed", s, trials=n(400, 20)),
        _cli("mazur", "ratio", "mazur", "--p", 1, "--q", 2,
             "--trials", n(1000, 20), "--seed", s, trials=n(1000, 20)),
        _cli("kfunctional", "ratio", "kfunctional", "--p0", 0.5, "--p1", 2,
             "--t", "0.1,1,10", "--trials", n(6, 2), "--seed", s, trials=n(6, 2)),
        _cli("weak-lp", "ratio", "weak-lp", "--p", 1, "--q", "0.5,1,inf",
             "--trials", n(100, 8), "--seed", s, trials=n(100, 8)),
    ]


def certify(seed: int, size: str) -> list[Step]:
    """Certificates paid cold in each process: bounds, factorization, constants."""
    s = program_seed(seed)
    if size == "tiny":
        return [
            _cli("multiplier-bound-von-mises", "sandwich", "multiplier-bound",
                 "--kernel", "von-mises", "--p", 0.5, "--samples", 8, "--trials", 1,
                 "--seed", s),
            _cli("factorize-von-mises", "factorize", "factorize", "--kernel", "von-mises",
                 "--p", 1, "--cutoff", 8, "--seed", s),
            Step("plus_kernel_bound", "api", ("plus_kernel_bound", (1.0, 1.0, None, 256)), "bound"),
        ]
    return [
        _cli("multiplier-bound-power-ratio-window", "sandwich", "multiplier-bound",
             "--kernel", "power-ratio-window", "--p", 0.5, "--seed", s),
        _cli("multiplier-bound-shifted-resolvent", "sandwich", "multiplier-bound",
             "--kernel", "shifted-resolvent", "--p", 1, "--seed", s),
        _cli("multiplier-bound-von-mises", "sandwich", "multiplier-bound",
             "--kernel", "von-mises", "--p", 0.5, "--seed", s),
        _cli("factorize-power-ratio-singular", "factorize", "factorize",
             "--kernel", "power-ratio-singular", "--p", 1, "--cutoff", 64, "--seed", s),
        Step("power_ratio_base_bound", "api", ("power_ratio_base_bound", (0.5, 0.5, None, 1024)),
             "bound"),
        Step("sum_quadrant_bound", "api", ("sum_quadrant_bound", (1, 2, 0.5, 0.5)), "bound"),
    ]


def spectrum(seed: int, size: str) -> list[Step]:
    """Exponential-kernel spectrum: dense eigensolve, residuals, partial sums."""
    s = program_seed(seed)
    if size == "tiny":
        return [_cli("kernel-spectrum", "spectrum", "kernel-spectrum", "--kmax", 5,
                     "--nystrom", 256, "--quadrature", 256, "--sums-kmax", 100, "--seed", s)]
    grid = ("--nystrom", 1000, "--quadrature", 1024)
    return [
        _cli("kernel-spectrum", "spectrum", "kernel-spectrum", *grid, "--seed", s),
        _cli("kernel-spectrum-kmax1000", "spectrum", "kernel-spectrum", "--kmax", 1000,
             "--sums-kmax", 1000000, *grid, "--seed", s),
    ]


WORKLOADS = {
    "search-sweep": lambda seed, size: search(seed, size) + sweep(seed, size),
    "certify-spectrum": lambda seed, size: certify(seed, size) + spectrum(seed, size),
}
