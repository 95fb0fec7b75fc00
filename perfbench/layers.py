"""Per-layer metrics from the spans perfbench/tracer.py writes.

A span's self time is its duration minus the time its child spans cover.
A layer is one schurlab module; ``<module>.self_s`` sums the self time of
every traced name in it and ``<module>.share`` divides that by the traced
pass's wall time (start-up and imports belong to no module). A metric whose
traced name the program no longer has is reported as 0 and listed as absent.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

from tracer import MODULES

# (metric, unit): calls and self time of single traced names, in BENCHMARK.json order
NAMED = [
    ("operators.spectral_decompose.calls", "count"),
    ("operators.spectral_decompose.self_s", "s"),
    ("operators.apply_calculus.self_s", "s"),
    ("operators.schatten_norm.calls", "count"),
    ("operators.schatten_norm.self_s", "s"),
    ("experiments.ando_ratio.self_s", "s"),
    ("experiments.random_pair.self_s", "s"),
    ("multipliers.hadamard_ratio.calls", "count"),
    ("multipliers.multiplier_norm_lower.self_s", "s"),
    ("multipliers.schur_apply.self_s", "s"),
    ("multipliers.divided_difference_symbol.self_s", "s"),
    ("factorization.SmoothKernel.samples.self_s", "s"),
    ("factorization.SmoothKernel.coefficients.self_s", "s"),
    ("factorization.sobolev_constant.self_s", "s"),
    ("factorization.Bump.derivative_sup.self_s", "s"),
    ("factorization.build_factorization.self_s", "s"),
    ("interpolation.k_functional.calls", "count"),
    ("interpolation.k_functional.self_s", "s"),
    ("interpolation.lorentz_norm.self_s", "s"),
    ("expkernel.nystrom_spectrum.self_s", "s"),
    ("expkernel.eigenfunction_residual.self_s", "s"),
    ("expkernel.schatten_partial_sums.self_s", "s"),
    ("expkernel.solve_theta.calls", "count"),
    ("serialize.dumps_canonical.self_s", "s"),
    ("serialize.matrix_to_json.calls", "count"),
    ("cli.main.self_s", "s"),
]

# (metric, unit, traced name whose calls divide it or None, counter key)
DERIVED = [
    ("experiments.degenerate_frac", "ratio", "experiments.ando_ratio",
     "experiments.ando_ratio.degenerate"),
    ("expkernel.solve_theta.distinct_frac", "ratio", "expkernel.solve_theta",
     "expkernel.solve_theta.distinct"),
    ("factorization.samples_bytes", "bytes", None, "factorization.samples_bytes"),
    ("serialize.dumps_canonical.bytes", "bytes", None, "serialize.dumps_canonical.bytes"),
]

PASS_METRICS = [("cli.report_bytes", "bytes"), ("trace.wall_s", "s"),
                ("trace.overhead_s", "s")]


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in the order they are reported."""
    units = dict(NAMED)
    units.update({name: unit for name, unit, _, _ in DERIVED})
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.share"] = "ratio"
    units.update(PASS_METRICS)
    return units


def load_spans(path) -> dict:
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        arrays = {k: data[k] for k in ("name", "start", "end", "parent")}
    return {**arrays, **meta}


def self_times(spans: dict) -> tuple[dict, dict]:
    """Per traced name: (calls, summed self time)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - covered
    n = len(spans["names"])
    calls = np.bincount(spans["name"], minlength=n)
    selfs = np.bincount(spans["name"], weights=own, minlength=n)
    names = spans["names"]
    return ({names[i]: int(calls[i]) for i in range(n)},
            {names[i]: float(selfs[i]) for i in range(n)})


def pass_metrics(span_paths, traced_wall: float, report_bytes: int) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass over a workload's steps.

    Returns the metrics (without trace.overhead_s) and the absent names.
    """
    calls: dict = defaultdict(int)
    selfs: dict = defaultdict(float)
    counters: dict = defaultdict(int)
    wrapped: set = set()
    for path in span_paths:
        spans = load_spans(path)
        wrapped.update(spans["names"])
        c, s = self_times(spans)
        for name in c:
            calls[name] += c[name]
            selfs[name] += s[name]
        for key, value in spans["counters"].items():
            counters[key] += value
    metrics, absent = {}, []
    for metric, _ in NAMED:
        traced, _, field = metric.rpartition(".")
        if traced not in wrapped:
            absent.append(traced)
        metrics[metric] = calls[traced] if field == "calls" else selfs[traced]
    for metric, _, base, key in DERIVED:
        if base is not None and base not in wrapped:
            absent.append(base)
        value = counters[key]
        metrics[metric] = (value / calls[base] if calls[base] else 0.0) if base else value
    for mod in MODULES:
        own = sum(v for k, v in selfs.items() if k.startswith(mod + "."))
        metrics[f"{mod}.self_s"] = own
        metrics[f"{mod}.share"] = own / traced_wall if traced_wall > 0 else 0.0
    metrics["cli.report_bytes"] = report_bytes
    metrics["trace.wall_s"] = traced_wall
    return metrics, sorted(set(absent))
