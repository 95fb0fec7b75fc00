"""Batch experiment runner.

Every run is reproducible from its serialized config: reports embed the
config, seed, and artifact version in a canonical (sorted-key, 17-digit
float) body, while the wall-clock timestamp and duration live in a separate
header so repeated runs produce byte-identical bodies. Exit status: 0 on
success, 1 on input errors, 2 when a verified invariant is violated.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

# Only the modules every search command runs are imported here; the
# certificate, multiplier, interpolation and kernel-spectrum modules are
# imported by the runners that use them, so a command compiles what it runs.
from . import __version__, serialize
from .experiments import (
    RatioBlock,
    _complex_gaussian,
    bks_ratios,
    commutator_ratios,
    estimate_constant,
    index_label,
    mazur_ratios,
    random_hermitian,
    random_pair,
    random_psd,
    sweep_trials,
    trial_rng,
)
from .operators import (
    InvariantViolation,
    SchattenIndex,
    SignedPowerFunction,
    _check_theta,
    calculus_stack,
    decompose_stack,
    schatten_norms,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
# Trials between checkpoints of a single-pair estimate-constant search.
DEFAULT_CHECKPOINT_EVERY = 10000


class VerificationError(Exception):
    def __init__(self, message, results):
        super().__init__(message)
        self.results = results


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; spec wants 1
        raise ValueError(message)


def _parse_p(text: str) -> SchattenIndex:
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"bad Schatten index {text!r}") from exc
    return SchattenIndex(value)


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ValueError(f"bad dimension list {text!r}") from exc
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"dimensions must be positive integers, got {text!r}")
    return dims


def _parse_floats(text: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ValueError(f"bad float list {text!r}") from exc
    if not vals:
        raise ValueError("empty list")
    return vals


def _require(cond, message):
    if not cond:
        raise ValueError(message)


# The least value of each integer flag, for every command that has it.
INT_MINIMA = {"seed": 0, "trials": 1, "dim": 1, "samples": 1, "kmax": 1, "nystrom": 64, "d": 1,
              "sums_kmax": 10, "quadrature": 256, "cutoff": 1, "checkpoint_every": 1, "grid": 16}
# String flags holding comma lists of floats (estimate-constant's --theta).
FLOAT_LISTS = ("t", "thetas", "sums_p", "theta")


def _check_flags(ns) -> None:
    """Reject, naming the flag, an integer below its minimum or a non-finite
    float. --a is left to make_kernel, so the kernel that reads it names its
    range; an unset --d, --theta or --a (None) is left to the library's
    default."""
    for name, value in vars(ns).items():
        flag = "--" + name.replace("_", "-")
        if name in INT_MINIMA and value is not None:
            _require(value >= INT_MINIMA[name], f"{flag} must be >= {INT_MINIMA[name]}")
        values = _parse_floats(value) if name in FLOAT_LISTS and isinstance(value, str) else [value]
        _require(name == "a" or all(math.isfinite(v) for v in values if isinstance(v, float)),
                 f"{flag} must be finite, got {value}")


def _sweep(ns, dims, draw, evaluate):
    """Rows, maximum nondegenerate ratio (0 if none) and witness of the
    ``sweep_trials`` sweep of ns.trials seeded trials: trial i runs at
    dim = dims[i % len(dims)] on the matrices ``draw(dim, trial_rng(ns.seed, i), i)``,
    each dim's trials in blocks of their own, so every block is one stack. The
    witness is the last trial to reach the running maximum in stream order, as
    a serial ``>=`` scan would pick it."""
    best, witness, rows = 0.0, None, []
    for di, dim in enumerate(dims):
        trials = sweep_trials(range(di, ns.trials, len(dims)),
                              lambda t: draw(dim, trial_rng(ns.seed, t), t), evaluate)
        for trial, ratio, degenerate, matrices in trials:
            rows.append({"trial": trial, "ratio": ratio, "degenerate": degenerate})
            if not degenerate and ratio >= best:
                best, witness = ratio, matrices
    return rows, best, witness


def _case_sweeps(ns, cases, ratios):
    """Rows, trial-major with each case's labels first, and maximum ratio of one
    sweep over seeded ``random_pair`` draws that scores every (labels, argument)
    case on the same block, as ``ratios(x_stack, y_stack, argument, images)``
    with ``images`` the block's (f(x), f(y)) entry stacks, computed once for
    all the cases from f = t -> t^theta (or its signed form)."""
    f = SignedPowerFunction(ns.theta, ns.signed)

    def evaluate(xs, ys, trials):
        xs, ys = decompose_stack(xs, trials=trials), decompose_stack(ys, trials=trials)
        images = calculus_stack(xs, f).entries, calculus_stack(ys, f).entries
        blocks = [ratios(xs, ys, arg, images) for _, arg in cases]
        return RatioBlock(np.stack([b.numerator for b in blocks], axis=1),
                          np.stack([b.denominator for b in blocks], axis=1))

    rows, best, _ = _sweep(ns, [ns.dim], random_pair, evaluate)
    return [{**cases[i % len(cases)][0], **row} for i, row in enumerate(rows)], best


def _witness_keys(witness, names=("x", "y")) -> dict:
    """The ``witness_<name>`` report entries of a sweep's witness matrices
    (none when every trial was degenerate)."""
    if witness is None:
        return {}
    return {f"witness_{n}": serialize.matrix_to_json(m) for n, m in zip(names, witness)}


# ----------------------------------------------------------------------------
# command implementations (each returns a results dict, raising
# VerificationError when the run itself proves an invariant violation)
# ----------------------------------------------------------------------------

def _run_verify_ando(ns) -> dict:
    from .multipliers import divided_difference_symbol, schur_apply

    dims = _parse_dims(ns.dims)
    thetas = _parse_floats(ns.thetas)
    maps = [SignedPowerFunction(theta, signed) for theta in thetas for signed in (False, True)]

    def evaluate(xs, ys, trials):
        """Defect max|f(x) - f(y) - M_f(x - y)| over radius^theta per trial
        and map. The block is decomposed once, and each map's calculus runs
        once; the symbols depend on each operand's eigenvalue groups, so they
        are formed one trial at a time. The radius floor keeps every
        denominator above the degenerate floor, so no defect reads as 0."""
        b = len(trials)
        xy = decompose_stack(np.concatenate((xs, ys)), trials=(*trials, *trials))
        images = [calculus_stack(xy, f).entries for f in maps]
        num, den = np.empty((b, len(maps))), np.empty((b, len(maps)))
        for k in range(b):
            x, y = xy.operand(k), xy.operand(b + k)
            radius = max(x.spectral_radius, y.spectral_radius, 1e-300)
            for j, (f, fxy) in enumerate(zip(maps, images)):
                sym = divided_difference_symbol(x.distinct_eigenvalues, y.distinct_eigenvalues, f)
                rhs = schur_apply(sym, x, y, x.entries - y.entries)
                num[k, j] = np.abs(fxy[k] - fxy[b + k] - rhs).max()
                den[k, j] = radius**f.theta
        return RatioBlock(num, den)

    _, worst, _ = _sweep(ns, dims, lambda dim, rng, _: (random_hermitian(dim, rng),
                                                        random_hermitian(dim, rng)), evaluate)
    results = {
        "trials": ns.trials,
        "dims": dims,
        "thetas": thetas,
        "max_relative_defect": worst,
        "tolerance": 1e-9,
        "pass": worst <= 1e-9,
    }
    if not results["pass"]:
        raise VerificationError(
            f"divided-difference identity defect {worst:.3e} exceeds 1e-9", results)
    return results


def _run_bks(ns) -> dict:
    dims = _parse_dims(ns.dims)
    p = _parse_p(ns.p)

    def evaluate(xs, ys, trials):
        return bks_ratios(decompose_stack(xs, trials=trials),
                          decompose_stack(ys, trials=trials), p, ns.theta)

    _, worst, witness = _sweep(ns, dims, lambda dim, rng, _: (random_psd(dim, rng),
                                                              random_psd(dim, rng)), evaluate)
    results = {
        "trials": ns.trials,
        "dims": dims,
        "p": index_label(p),
        "theta": ns.theta,
        "max_ratio": worst,
        "bound": 1.0,
        "tolerance": 1e-9,
        "pass": worst <= 1.0 + 1e-9,
        **_witness_keys(witness),
    }
    if not results["pass"]:
        raise VerificationError(f"positive-operator ratio {worst!r} exceeds 1", results)
    return results


def _run_estimate_constant(ns) -> dict:
    dims = _parse_dims(ns.dims)
    p_list = [_parse_p(v) for v in str(ns.p).split(",") if v]
    theta_list = [_check_theta(t) for t in _parse_floats(str(ns.theta))]
    if len(p_list) > 1 or len(theta_list) > 1:
        # (p, theta) sweep grid: one summary row per combination
        _require(not ns.resume, "--resume only supports a single (p, theta) pair")
        _require(ns.checkpoint_every is None,
                 "--checkpoint-every only supports a single (p, theta) pair")
        rows = []
        for p in p_list:
            for theta in theta_list:
                rep = estimate_constant(p, theta, ns.signed, dims, ns.trials,
                                        seed=ns.seed)
                rows.append({"p": index_label(p), "theta": theta,
                             "best_ratio": rep.best.ratio, "trials": ns.trials,
                             "seed": ns.seed})
        return {"dims": dims, "trials": ns.trials, "signed": ns.signed,
                "table": rows}
    p = p_list[0]
    ns.theta = theta_list[0]
    ckpt_path = ns.out + ".ckpt.json"
    resume = None
    if ns.resume:
        _require(os.path.exists(ckpt_path), f"no checkpoint at {ckpt_path}")
        import json

        with open(ckpt_path, encoding="utf-8") as fh:
            resume = json.load(fh)

    def save_ckpt(state):
        # a crash mid-write leaves the previous checkpoint intact
        with open(ckpt_path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps_canonical(state))
        os.replace(ckpt_path + ".tmp", ckpt_path)

    report = estimate_constant(
        p, ns.theta, ns.signed, dims, ns.trials, seed=ns.seed,
        checkpoint_every=(DEFAULT_CHECKPOINT_EVERY if ns.checkpoint_every is None
                          else ns.checkpoint_every),
        checkpoint_cb=save_ckpt, resume=resume,
    )
    for path in (ckpt_path, ckpt_path + ".tmp"):
        if os.path.exists(path):
            os.remove(path)
    return {
        "p": index_label(p),
        "theta": ns.theta,
        "signed": ns.signed,
        "dims": dims,
        "trials": ns.trials,
        "best_ratio": report.best.ratio,
        "per_dim": {str(k): v for k, v in sorted(report.per_dim.items())},
        "history": [[int(i), float(r)] for i, r in report.history],
        **_witness_keys((report.witness_x, report.witness_y)),
    }


def _certificate_inputs(ns):
    """The catalog kernel, index p and Sobolev order d of a certificate command.
    Only a given --theta or --a reaches make_kernel, so the catalog holds each
    default and a kernel refuses a parameter it does not take. The kernel holds
    its evaluator and no grid; its certificates stream the Fourier coefficients
    one column block at a time."""
    from .factorization import kernel_catalog, make_kernel, sobolev_order

    _require(ns.kernel in kernel_catalog(), f"unknown kernel {ns.kernel!r}")
    p = _parse_p(ns.p)
    d = sobolev_order(p, ns.d)
    params = {key: value for key, value in (("theta", ns.theta), ("a", ns.a)) if value is not None}
    return make_kernel(ns.kernel, **params), p, d


def _run_multiplier_bound(ns) -> dict:
    from .factorization import _on_grid, certified_pcb_bound
    from .multipliers import SymbolMatrix, multiplier_norm_lower

    kernel, p, d = _certificate_inputs(ns)
    upper = certified_pcb_bound(kernel, d, p)
    rng = trial_rng(ns.seed, 0)
    xs = np.sort(rng.uniform(0.0, 2.0 * np.pi, ns.samples))
    ys = np.sort(rng.uniform(0.0, 2.0 * np.pi, ns.samples))
    # the witnesses are real: a complex kernel fails here instead of losing its imaginary part
    sym = SymbolMatrix(xs, ys, _on_grid(kernel.evaluator, xs, ys))
    estimate = multiplier_norm_lower(sym, p, trials=ns.trials, seed=ns.seed)
    results = {
        "kernel": ns.kernel,
        "p": index_label(p),
        "d": d,
        "samples": ns.samples,
        "trials": ns.trials,
        "lower": estimate.lower,
        "upper": upper,
        "lower_scope": estimate.lower_scope,
        "pass": estimate.lower <= upper + 1e-9,
        "symbol": sym.to_json(),
    }
    # an all-zero sampled symbol has lower bound 0 and no witness
    if estimate.witness is not None:
        results["witness"] = serialize.matrix_to_json(estimate.witness)
    if not results["pass"]:
        raise VerificationError("empirical lower bound exceeds the certificate", results)
    return results


def _run_factorize(ns) -> dict:
    from .factorization import build_factorization

    kernel, p, d = _certificate_inputs(ns)
    fact = build_factorization(kernel, d, p, mode_cutoff=ns.cutoff)
    return {**fact.to_json(), "kernel": ns.kernel}


def _run_kernel_spectrum(ns) -> dict:
    from .expkernel import (analytic_eigenvalues, eigenfunction_residual, nystrom_spectrum,
                            schatten_partial_sums)

    _require(ns.kmax <= ns.nystrom,
             f"--kmax ({ns.kmax}) must not exceed --nystrom ({ns.nystrom}): "
             "the table compares each eigenvalue with a Nystrom eigenvalue")
    spec = analytic_eigenvalues(ns.kmax)
    grid_eigs = nystrom_spectrum(ns.nystrom)
    rows = []
    for i in range(ns.kmax):
        lam = spec.lambdas[i]
        approx = float(grid_eigs[i])
        rows.append({
            "k": i + 1,
            "theta": float(spec.thetas[i]),
            "lambda": float(lam),
            "nystrom_lambda": approx,
            "rel_err": abs(approx - lam) / lam,
        })
    residuals = {str(k): eigenfunction_residual(k, ns.quadrature)
                 for k in range(1, min(ns.kmax, 10) + 1)}
    # partial-sum curves on a log-spaced K grid, one series per exponent; the
    # last point is --sums-kmax itself, which int() of its double can miss
    points = np.logspace(1, np.log10(ns.sums_kmax), 12)
    k_grid = sorted({*(int(v) for v in points[:-1]), ns.sums_kmax})
    curves = {serialize.float17(p): schatten_partial_sums(p, k_grid).tolist()
              for p in _parse_floats(ns.sums_p)}
    return {
        "kmax": ns.kmax,
        "nystrom": ns.nystrom,
        "quadrature": ns.quadrature,
        "table": rows,
        "eigenfunction_residuals": residuals,
        "partial_sums": {"K": k_grid, "series": curves},
    }


def _run_kfunctional(ns) -> dict:
    from .interpolation import kfonc_ratios

    p0 = _parse_p(ns.p0)
    p1 = _parse_p(ns.p1)
    cases = [({"t": t, "p0": index_label(p0), "p1": index_label(p1), "theta": ns.theta}, t)
             for t in _parse_floats(ns.t)]
    rows, best = _case_sweeps(ns, cases, lambda xs, ys, t, images: kfonc_ratios(
        xs, ys, p0, p1, ns.theta, ns.signed, t, grid=ns.grid, images=images))
    return {
        "dim": ns.dim, "trials": ns.trials, "grid": ns.grid, "theta": ns.theta,
        "signed": ns.signed, "table": rows, "max_ratio": best,
    }


def _run_weak_lp(ns) -> dict:
    from .interpolation import weak_lp_ratios

    qs = [_parse_p(v) for v in ns.q.split(",") if v]
    cases = [({"p": ns.p, "q": index_label(q), "theta": ns.theta}, q) for q in qs]
    rows, best = _case_sweeps(ns, cases, lambda xs, ys, q, images: weak_lp_ratios(
        xs, ys, ns.p, q, ns.theta, ns.signed, images=images))
    return {
        "dim": ns.dim, "trials": ns.trials, "theta": ns.theta, "signed": ns.signed,
        "table": rows, "max_ratio": best,
    }


def _run_commutator(ns) -> dict:
    p = _parse_p(ns.p)

    def evaluate(xs, bs, trials):
        # normalised in place, so the witness is reported normalised
        bs /= np.maximum(schatten_norms(bs, SchattenIndex.INF, trials=trials), 1e-300)[:, None, None]
        return commutator_ratios(decompose_stack(xs, trials=trials), bs, p, ns.theta, ns.signed)

    rows, best, witness = _sweep(ns, [ns.dim], lambda dim, rng, _: (
        random_hermitian(dim, rng), _complex_gaussian(rng, (dim, dim))), evaluate)
    return {
        "dim": ns.dim, "trials": ns.trials, "p": index_label(p), "theta": ns.theta,
        "signed": ns.signed, "max_ratio": best, "table": rows, **_witness_keys(witness, ("x", "b")),
    }


def _run_mazur(ns) -> dict:
    def evaluate(xs, ys, trials):
        return mazur_ratios(xs, ys, ns.p, ns.q, trials=trials)

    rows, best, witness = _sweep(ns, [ns.dim], lambda dim, rng, _: (
        _complex_gaussian(rng, (dim, dim)), _complex_gaussian(rng, (dim, dim))), evaluate)
    return {
        "dim": ns.dim, "trials": ns.trials, "p": ns.p, "q": ns.q,
        "max_ratio": best, "table": rows, **_witness_keys(witness),
    }


# ----------------------------------------------------------------------------
# wiring
# ----------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="schurlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, trials=None):
        # --seed on every command, for the body's top-level seed; --trials
        # only on the commands that read it
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="report path (default: $SCHURLAB_OUTDIR)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if trials is not None:
            sp.add_argument("--trials", type=int, default=trials)

    def certificate(sp):
        sp.add_argument("--kernel", required=True)
        sp.add_argument("--p", required=True)
        sp.add_argument("--d", type=int, default=None)
        sp.add_argument("--theta", type=float, default=None,
                        help="read by power-ratio-window only")
        sp.add_argument("--a", type=float, default=None,
                        help="read by shifted-resolvent only")

    sp = sub.add_parser("verify-ando", help="divided-difference identity sweep")
    common(sp, 200)
    sp.add_argument("--dims", default="2,4,6,8")
    sp.add_argument("--thetas", default="0.25,0.5,0.75")

    sp = sub.add_parser("estimate-constant", help="ratio maximization search")
    common(sp, 1000)
    sp.add_argument("--p", required=True, help="index, or comma list for a sweep grid")
    sp.add_argument("--theta", required=True, help="exponent, or comma list for a sweep grid")
    sp.add_argument("--signed", action="store_true")
    sp.add_argument("--dims", default="2,3,4")
    # unset (None) unless given, so a sweep grid, which never checkpoints, can refuse it
    sp.add_argument("--checkpoint-every", type=int, default=None,
                    help=f"single (p, theta) pair only; default {DEFAULT_CHECKPOINT_EVERY}")
    sp.add_argument("--resume", action="store_true")

    sp = sub.add_parser("bks", help="positive-operator constant-1 sweep")
    common(sp, 1000)
    sp.add_argument("--p", required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--dims", default="2,4,6")

    sp = sub.add_parser("multiplier-bound", help="certified upper vs witnessed lower bound")
    common(sp, 8)
    certificate(sp)
    sp.add_argument("--samples", type=int, default=24)

    sp = sub.add_parser("factorize", help="export a truncated rank-one factorization")
    common(sp)
    certificate(sp)
    sp.add_argument("--cutoff", type=int, default=256)

    sp = sub.add_parser("kernel-spectrum", help="analytic vs discretized spectrum")
    common(sp)
    sp.add_argument("--kmax", type=int, default=10)
    sp.add_argument("--nystrom", type=int, default=2000)
    sp.add_argument("--quadrature", type=int, default=2048)
    sp.add_argument("--sums-p", default="0.5,0.6,1,2")
    sp.add_argument("--sums-kmax", type=int, default=100000)

    sp = sub.add_parser("kfunctional", help="interpolation-functional ratio sweep")
    common(sp, 20)
    sp.add_argument("--p0", required=True)
    sp.add_argument("--p1", required=True)
    sp.add_argument("--theta", type=float, default=0.5)
    sp.add_argument("--signed", action="store_true")
    sp.add_argument("--t", default="0.1,1,10")
    sp.add_argument("--dim", type=int, default=4)
    sp.add_argument("--grid", type=int, default=64)

    sp = sub.add_parser("weak-lp", help="Lorentz-norm ratio sweep")
    common(sp, 20)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", default="0.5,1,inf")
    sp.add_argument("--theta", type=float, default=0.5)
    sp.add_argument("--signed", action="store_true")
    sp.add_argument("--dim", type=int, default=5)

    sp = sub.add_parser("commutator", help="commutator ratio sweep")
    common(sp, 200)
    sp.add_argument("--p", required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--signed", action="store_true")
    sp.add_argument("--dim", type=int, default=4)

    sp = sub.add_parser("mazur", help="norm-homogenizing map ratio sweep")
    common(sp, 200)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--dim", type=int, default=4)

    return parser


def _default_out(command: str, fmt: str) -> str:
    outdir = os.environ.get("SCHURLAB_OUTDIR", ".")
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, f"{command}-report.{fmt}")


def _flatten_for_csv(results: dict) -> tuple[list[str], list[list]]:
    table = results.get("table")
    if table:
        cols = list(table[0].keys())
        return cols, [[row[c] for c in cols] for row in table]
    cols = [k for k, v in results.items() if isinstance(v, (int, float, str, bool))]
    return cols, [[results[c] for c in cols]]


def _write_report(path: str, ns, results: dict, started: float) -> None:
    header = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "duration_seconds": time.time() - started,
    }
    config = _config_dict(ns)
    body = {
        "command": ns.command,
        "config": config,
        "seed": ns.seed,
        "version": __version__,
        "results": results,
    }
    if ns.format == "json":
        # encoded piece by piece into <path>.tmp, so no text of the whole body
        # (11 MB for `factorize`) is held, and moved onto <path> once whole: a
        # value that fails to encode leaves no report, and an earlier report
        # at <path> as it was
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write('{"header":')
                serialize.dump_canonical(header, fh)
                fh.write(',"body":')
                serialize.dump_canonical(body, fh)
                fh.write("}\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        return
    cols, rows = _flatten_for_csv(results)
    lines = [f"# timestamp: {header['timestamp']}",
             f"# duration_seconds: {header['duration_seconds']!r}",
             f"# config: {serialize.dumps_canonical(config)}",
             f"# version: {__version__}",
             ",".join(cols)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(serialize.float17(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# Flags that steer a run but cannot change its results: where and how the
# report is written, and how a search checkpoints and resumes.
RUN_CONTROL = ("out", "format", "resume", "checkpoint_every")


def _config_dict(ns) -> dict:
    """The given flags that shape the results: none of RUN_CONTROL, and no
    unset (None) flag, whose default the body's version implies."""
    return {k: v for k, v in vars(ns).items()
            if k != "command" and k not in RUN_CONTROL and v is not None}


RUNNERS = {
    "verify-ando": _run_verify_ando,
    "estimate-constant": _run_estimate_constant,
    "bks": _run_bks,
    "multiplier-bound": _run_multiplier_bound,
    "factorize": _run_factorize,
    "kernel-spectrum": _run_kernel_spectrum,
    "kfunctional": _run_kfunctional,
    "weak-lp": _run_weak_lp,
    "commutator": _run_commutator,
    "mazur": _run_mazur,
}


def main(argv=None) -> int:
    parser = build_parser()
    started = time.time()
    try:
        ns = parser.parse_args(argv)
        _check_flags(ns)
        out = ns.out = ns.out or _default_out(ns.command, ns.format)
        try:
            results = RUNNERS[ns.command](ns)
        except (VerificationError, InvariantViolation) as exc:
            results = getattr(exc, "results", {"pass": False, "violation": str(exc)})
            _write_report(out, ns, results, started)
            print(f"VIOLATION: {exc}", file=sys.stderr)
            print(f"report: {out}")
            return EXIT_VIOLATION
        _write_report(out, ns, results, started)
        print(f"report: {out}")
        return EXIT_OK
    except (ValueError, KeyError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
