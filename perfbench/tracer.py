"""Span tracer for one schurlab step, run in its own interpreter.

    python perfbench/tracer.py SPANS cli ARGV...
    python perfbench/tracer.py SPANS api OUT FUNC ARGS_JSON

It imports schurlab, replaces every public function of the traced modules
(and the methods in ``METHODS``) with a timing wrapper at each place a
schurlab module holds it -- ``schurlab.experiments.spectral_decompose`` as
well as ``schurlab.operators.spectral_decompose`` -- and then runs the step
exactly as ``python -m schurlab ARGV`` or perfbench/api_step.py would. Spans
(name, start, end, parent) stay in memory and are written to SPANS as numpy
arrays when the step ends, with the counters the wrappers keep and the list
of names that were wrapped. The untraced benchmark never imports this file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref

import numpy as np

MODULES = ("operators", "experiments", "multipliers", "factorization",
           "interpolation", "expkernel", "serialize", "cli")

# Methods traced in addition to the modules' public functions.
METHODS = ("factorization.SmoothKernel.samples",
           "factorization.SmoothKernel.coefficients",
           "factorization.Bump.derivative_sup")

# Scalar helpers called once per float or per index argument: a span each
# would cost more than the work it times and swamp the parent's self time.
UNTRACED = frozenset({"operators.as_index", "experiments.index_label", "serialize.float17"})


def _count_degenerate(tracer, args, result):
    if getattr(result, "degenerate", False):
        tracer.count("experiments.ando_ratio.degenerate", 1)


def _count_distinct_root(tracer, args, result):
    if args:
        tracer.distinct_roots.add(args[0])
        tracer.counters["expkernel.solve_theta.distinct"] = len(tracer.distinct_roots)


def _count_sample_bytes(tracer, args, result):
    # samples() caches its array, so count each array once, by identity
    seen = tracer.sampled.get(id(result))
    if seen is None or seen() is not result:
        tracer.sampled[id(result)] = weakref.ref(result)
        tracer.count("factorization.samples_bytes", int(getattr(result, "nbytes", 0)))


def _count_encoded_bytes(tracer, args, result):
    if isinstance(result, str):
        tracer.count("serialize.dumps_canonical.bytes", len(result.encode("utf-8")))


OBSERVERS = {
    "experiments.ando_ratio": _count_degenerate,
    "expkernel.solve_theta": _count_distinct_root,
    "factorization.SmoothKernel.samples": _count_sample_bytes,
    "serialize.dumps_canonical": _count_encoded_bytes,
}


class Tracer:
    """Span recorder: one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []       # (name index, start, end, parent span index)
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.distinct_roots: set = set()
        self.sampled: dict = {}
        self.origin = time.perf_counter()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = OBSERVERS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions and rebind them at every import site."""
        modules = {name: importlib.import_module(f"schurlab.{name}") for name in MODULES}
        replaced = {}
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                qualname = f"{short}.{attr}"
                if (attr.startswith("_") or inspect.isclass(value) or not callable(value)
                        or getattr(value, "__module__", None) != mod.__name__
                        or qualname in UNTRACED):
                    continue
                replaced[id(value)] = (value, self.wrap(qualname, value))
        for qualname in METHODS:
            short, cls_name, meth = qualname.split(".")
            cls = getattr(modules[short], cls_name, None)
            fn = None if cls is None else vars(cls).get(meth)
            if fn is not None:
                setattr(cls, meth, self.wrap(qualname, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "schurlab" or mod_name.startswith("schurlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def dump(self, path: str) -> None:
        # every wrapped call has returned by now, so no placeholder is left
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        meta = {"names": self.names, "counters": self.counters}
        np.savez(path,
                 name=arr[:, 0].astype(np.int32),
                 start=arr[:, 1] - self.origin,
                 end=arr[:, 2] - self.origin,
                 parent=arr[:, 3].astype(np.int64),
                 meta=np.array(json.dumps(meta)))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "api"):
        sys.exit("usage: tracer.py SPANS cli ARGV... | tracer.py SPANS api OUT FUNC ARGS_JSON")
    spans_path, kind, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if kind == "cli":
            from schurlab import cli
            return cli.main(rest)
        import api_step
        return api_step.run(rest[0], rest[1], json.loads(rest[2]))
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
