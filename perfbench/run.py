"""schurlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload search-sweep --seed 0 --seconds 55 --trace 0

Each step of the workload (perfbench/workloads.py) runs in a fresh
interpreter, one at a time (a closed loop with one client). After one full
pass, steps repeat round-robin while the next run of a step is expected to
end within --seconds; a timing is the median over a step's runs, and wall_s
sums the medians. Untimed check steps (the fixture-size search at seed 0)
run once after the timed loop. Every report is gated (perfbench/gates.py): a step fails
when it exits non-zero, when a gate fails, or when its report body differs
from an earlier run of the same code and seed. With --trace 1 untraced and
traced passes alternate and the per-layer metrics come from the traced
passes' spans.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric by
name and unit with quartiles and sample counts. A full record, with the body
SHA-256 of every report and the environment, is written to
.bench_out/<workload>-seed<seed>-trace<trace>/result.json. The exit code is
0 when every gate holds, 1 when one fails and 2 when the checkout has no
schurlab source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gates
from workloads import SIZES, WORKLOADS, Step, program_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = 1            # one client, one core busy: steadier than sharing BLAS threads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 10
HARD_LIMIT_S = 170.0        # the whole run ends within 180 s, even when a step hangs
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Sample:
    step: str
    traced: bool
    seconds: float
    rss_kb: int
    sha256: str | None = None
    failures: list = field(default_factory=list)
    report_bytes: int = 0
    spans: Path | None = None


class Runner:
    """Runs steps as child interpreters and gates their reports."""

    def __init__(self, run_dir: Path, env: dict, fixture: dict,
                 ledger: gates.Ledger, ledger_prefix: str, started: float):
        self.run_dir = run_dir
        self.env = env
        self.fixture = fixture
        self.ledger = ledger
        self.ledger_prefix = ledger_prefix
        self.started = started
        self.first: dict[str, tuple[Sample, Path]] = {}
        self.setup: list[float] = []
        self.fixture_drift: float | None = None
        for sub in ("reports", "logs", "spans"):
            (run_dir / sub).mkdir(parents=True, exist_ok=True)

    def spawn(self, argv: list[str], log: Path) -> tuple[float, int, int]:
        """Run one child to completion: (seconds, exit code, max RSS in KiB)."""
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.run_dir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss

    def setup_sample(self, timed: bool = True) -> None:
        """Time one fresh interpreter importing schurlab.cli."""
        log = self.run_dir / "logs" / "setup.log"
        seconds, code, _ = self.spawn([sys.executable, "-c", "import schurlab.cli"], log)
        if code != 0:
            raise RuntimeError(f"import schurlab.cli exited {code}; see {log}")
        if timed:
            self.setup.append(seconds)

    def first_pass(self, steps: list[Step], traced: bool = False, tag: str = "") -> list[Sample]:
        """Run every step once, with setup samples spread between the steps:
        the machine's speed drifts over seconds, and spreading the samples
        over the pass keeps one slow moment from setting the median."""
        per_step = -(-SETUP_SAMPLES // len(steps))
        samples = []
        for step in steps:
            for _ in range(per_step):
                self.setup_sample()
            samples.append(self.run(step, traced, tag))
        return samples

    def argv(self, step: Step, report: Path, spans: Path | None) -> list[str]:
        if step.kind == "cli":
            call = [*step.args, "--out", str(report)]
            entry = ["-m", "schurlab"]
        else:
            func, args = step.args
            call = [str(report), func, json.dumps(list(args))]
            entry = [str(BENCH_DIR / "api_step.py")]
        if spans is not None:
            entry = [str(BENCH_DIR / "tracer.py"), str(spans), step.kind]
        return [sys.executable, *entry, *call]

    def run(self, step: Step, traced: bool = False, tag: str = "") -> Sample:
        report = self.run_dir / "reports" / f"{step.name}.json"
        spans = self.run_dir / "spans" / f"{step.name}{tag}.npz" if traced else None
        for stale in (report, spans):
            if stale is not None and stale.exists():
                stale.unlink()
        seconds, code, rss = self.spawn(self.argv(step, report, spans),
                                        self.run_dir / "logs" / f"{step.name}.log")
        sample = Sample(step.name, traced, seconds, rss, spans=spans)
        if code != 0:
            sample.failures.append(f"exit code {code}; see logs/{step.name}.log")
            return sample
        if traced and not spans.exists():
            sample.failures.append("tracer wrote no spans")
        try:
            sample.sha256 = gates.body_sha256(report)
            sample.report_bytes = report.stat().st_size if step.kind == "cli" else 0
        except (OSError, ValueError) as exc:
            sample.failures.append(f"unreadable report: {exc}")
            return sample
        if step.name not in self.first:
            # kept for the gates, which run after the last child has ended
            self.first[step.name] = (sample, report.with_suffix(".first.json"))
            report.replace(self.first[step.name][1])
        elif self.first[step.name][0].sha256 != sample.sha256:
            sample.failures.append("body differs from this run's first body for the step")
        args = hashlib.sha256(json.dumps(step.args).encode()).hexdigest()[:16]
        sample.failures += self.ledger.check(f"{self.ledger_prefix}:{step.name}:{args}",
                                             sample.sha256)
        return sample

    def gate_all(self, steps: list[Step]) -> None:
        """Gate each step's first report; later ones have byte-identical bodies.

        Parsing a large report grows this process, so it waits until no
        further child will be spawned (see gates.body_sha256).
        """
        for step in steps:
            if step.name not in self.first:
                continue
            sample, path = self.first[step.name]
            try:
                body = gates.read_body(path)
            except (OSError, ValueError, KeyError) as exc:
                sample.failures.append(f"unreadable report body: {exc!r}")
                continue
            if step.gate == "search":
                drift = gates.fixture_drift(body, self.fixture)
                if drift is not None:
                    self.fixture_drift = max(drift, self.fixture_drift or 0.0)
            sample.failures += gates.check(step.gate, body, self.fixture)


def measure(runner: Runner, steps: list[Step], seconds: float) -> list[Sample]:
    """One full pass, then round-robin repeats of each step that still fits."""
    began = time.perf_counter()
    samples = runner.first_pass(steps)
    while True:
        ran = False
        for step in steps:
            expected = statistics.median(s.seconds for s in samples if s.step == step.name)
            if time.perf_counter() - began + expected <= seconds:
                samples.append(runner.run(step))
                ran = True
        if not ran:
            return samples


def measure_traced(runner: Runner, steps: list[Step], seconds: float) -> list[list[Sample]]:
    """Alternate untraced and traced passes; at least one of each."""
    began = time.perf_counter()
    passes: list[list[Sample]] = []
    while True:
        for traced in (False, True):
            tag = f"-pass{len(passes)}"
            passes.append(runner.first_pass(steps, traced, tag) if not passes
                          else [runner.run(step, traced, tag) for step in steps])
        last_pair = sum(s.seconds for p in passes[-2:] for s in p)
        if time.perf_counter() - began + last_pair > seconds:
            return passes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    src = root / "src" / "schurlab"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, env: dict) -> dict:
    probe = ("import json, sys, numpy as np\n"
             "blas = np.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "print(json.dumps({'python': sys.version.split()[0], 'numpy': np.__version__,"
             " 'blas': f\"{blas.get('name')} {blas.get('version', '')}\".strip()}))")
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor() or platform.machine(),
            "blas_threads": BLAS_THREADS, "commit": None, "source_sha256": source_digest(root)}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu"] = models[0] if models else info["cpu"]
    except OSError:
        pass
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    info.update(json.loads(out.stdout) if out.returncode == 0 else {"probe_error": out.stderr[-500:]})
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        info["commit"] = git.stdout.strip() or None
    return info


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def step_table(steps: list[Step], samples: list[Sample]) -> list[dict]:
    """One row per step that has samples."""
    rows = []
    for step in steps:
        mine = [s for s in samples if s.step == step.name]
        if not mine:
            continue
        q1, med, q3 = quartiles([s.seconds for s in mine])
        rows.append({"step": step.name, "n": len(mine), "median_s": med, "q1_s": q1, "q3_s": q3,
                     "rss_mb": statistics.median(s.rss_kb for s in mine) / 1024.0,
                     "trials": step.trials, "timed": step.timed, "body_sha256": mine[-1].sha256,
                     "failures": sorted({f for s in mine for f in s.failures})})
    return rows


def end_to_end(rows: list[dict], setup: list[float]) -> dict:
    return {"wall_s": sum(r["median_s"] for r in rows if r["timed"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r["rss_mb"] for r in rows if r["timed"])}


def per_layer(passes: list[list[Sample]]) -> tuple[dict, list]:
    # imported only now: numpy would grow this process, and a child spawned
    # after that counts the parent's size in its own ru_maxrss
    import layers

    plain = [sum(s.seconds for s in p) for p in passes if not p[0].traced]
    traced = [p for p in passes if p[0].traced]
    per_pass, absent = [], set()
    for p in traced:
        wall = sum(s.seconds for s in p)
        metrics, missing = layers.pass_metrics([s.spans for s in p if s.spans.exists()], wall,
                                               sum(s.report_bytes for s in p))
        per_pass.append(metrics)
        absent.update(missing)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    units = layers.metric_units()
    return {k: (metrics[k], units[k]) for k in units}, sorted(absent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; the program gets 20240311 + seed, so 0 "
                             "reproduces the criterion-8 fixture")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "schurlab" / "cli.py").is_file():
        print(f"no schurlab source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    run_dir = args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        run_dir = run_dir.with_name(run_dir.name + f"-{args.size}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    env = child_env(ROOT)
    info = environment(ROOT, env)
    ledger = gates.Ledger(args.out_dir / "ledger.json")
    prefix = f"{info['source_sha256'][:16]}:{args.workload}:{args.size}:{args.seed}"
    runner = Runner(run_dir, env, gates.load_fixture(ROOT), ledger, prefix, started)
    steps = WORKLOADS[args.workload](args.seed, args.size)
    timed = [step for step in steps if step.timed]

    runner.setup_sample(timed=False)  # compiles bytecode: a cost users pay once, not per command
    if args.trace:
        passes = measure_traced(runner, timed, args.seconds)
        samples = [s for p in passes for s in p]
    else:
        samples = measure(runner, timed, args.seconds)
    samples += [runner.run(step) for step in steps if not step.timed]
    runner.gate_all(steps)
    ledger.save()

    rows = step_table(steps, [s for s in samples if not s.traced])
    attempted = len(samples)
    failed = sum(1 for s in samples if s.failures)
    setup = runner.setup
    e2e = end_to_end(rows, setup)
    lines = [f"workload {args.workload}  seed {args.seed} (program seed "
             f"{program_seed(args.seed)})  size {args.size}  trace {args.trace}",
             "environment " + json.dumps(info, sort_keys=True)]
    for r in rows:
        lines.append(f"{'step' if r['timed'] else 'check'} {r['step']:<38} n={r['n']}  median {r['median_s']:.3f} s  "
                     f"q1 {r['q1_s']:.3f}  q3 {r['q3_s']:.3f}  rss {r['rss_mb']:.1f} MB  "
                     f"body sha256 {r['body_sha256']}")
        lines += [f"  FAILED {msg}" for msg in r["failures"]]
    q1, med, q3 = quartiles(setup)
    lines.append(f"metric wall_s {e2e['wall_s']:.4f} s  (sum of step medians)")
    trials = sum(r["trials"] for r in rows if r["timed"])
    if trials:
        lines.append(f"metric trials_per_s {trials / e2e['wall_s']:.2f} 1/s  ({trials} trials)")
    lines.append(f"metric setup_s {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(setup)})")
    lines.append(f"metric peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    lines.append(f"metric failed_frac {failed / attempted:.4f} ratio  ({failed} of {attempted} steps)")
    if any(step.gate == "search" for step in steps):
        drift = runner.fixture_drift
        lines.append("metric fixture_drift " + (f"{drift:.3e} ratio  (gate {gates.FIXTURE_TOL:g})"
                     if drift is not None else "not measured: only seed 0 at full size "
                     "matches the fixture"))

    if args.trace:
        layer_metrics, absent = per_layer(passes)
        for name, (value, unit) in layer_metrics.items():
            lines.append(f"layer {name} {value:.6g} {unit}")
        if absent:
            lines.append("absent " + " ".join(absent))
        reported = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
    else:
        absent = []
        reported = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    correct = failed == 0
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "environment": info, "steps": rows, "setup_s": setup,
              "fixture_drift": runner.fixture_drift, "absent": absent,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": reported}
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
