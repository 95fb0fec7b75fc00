"""Output gates: the checks a step's report must pass for its run to count.

Each gate takes a report body (the parsed ``body`` object) and returns a list
of failure messages, empty when the report is correct. Identity of bodies
across repeats and across runs is checked on the SHA-256 of the body text as
the program wrote it, since report bodies are canonical and byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

FIXTURE = Path("tests") / "fixtures" / "constant_search_p05_theta05.json"
FIXTURE_TOL = 1e-6
SANDWICH_TOL = 1e-9
WITNESS_TOL = 1e-9
SPECTRUM_ROWS = 10
SPECTRUM_TOL = 1e-3
HEADER_MARKER = b'{"header":'
BODY_MARKER = b',"body":'


def body_sha256(path: Path) -> str:
    """SHA-256 of the body text of a report laid out as {"header":...,"body":...}.

    Streams the file, so hashing a large report does not grow this process:
    a child spawned later would count the growth in its own peak RSS. The
    header holds only scalars, so the first ``,"body":`` ends it.
    """
    with open(path, "rb") as fh:
        head = fh.read(1 << 16)
        start = head.find(BODY_MARKER)
        if not head.startswith(HEADER_MARKER) or start < 0:
            raise ValueError(f"{path} is not laid out as {{\"header\":...,\"body\":...}}")
        size = os.fstat(fh.fileno()).st_size
        fh.seek(max(0, size - 64))
        tail = fh.read()
        if not tail.rstrip().endswith(b"}"):
            raise ValueError(f"{path} does not end with its body")
        end = size - (len(tail) - len(tail.rstrip())) - 1
        fh.seek(start + len(BODY_MARKER))
        left = end - fh.tell()
        digest = hashlib.sha256()
        while left > 0:
            chunk = fh.read(min(left, 1 << 20))
            if not chunk:
                raise ValueError(f"{path} ended early")
            digest.update(chunk)
            left -= len(chunk)
    return digest.hexdigest()


def read_body(path: Path) -> dict:
    """The parsed body of a report."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["body"]


def load_fixture(root: Path) -> dict:
    with open(root / FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def fixture_drift(body: dict, fixture: dict) -> float | None:
    """Largest relative per_dim drift from the fixture, or None when the
    report's search config differs from the fixture's (other seed or size)."""
    cfg = body.get("config", {})
    same = (cfg.get("trials") == fixture["trials"] and cfg.get("seed") == fixture["seed"]
            and cfg.get("signed") == fixture["signed"]
            and _as_float(cfg.get("p")) == fixture["p"]
            and _as_float(cfg.get("theta")) == fixture["theta"])
    if not same:
        return None
    per_dim = body["results"]["per_dim"]
    frozen = fixture["per_dim"]
    return max(abs(per_dim[k] - frozen[k]) / abs(frozen[k]) for k in per_dim)


def _as_float(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def gate_search(body: dict, fixture: dict) -> list[str]:
    # the deterministic witness (diag(1, 0, ...), 0) opens every dimension at ratio 1
    per_dim = body["results"]["per_dim"]
    fails = [f"per_dim[{k}] = {v!r} is below the witness ratio 1"
             for k, v in per_dim.items() if not _finite(v) or v < 1.0 - WITNESS_TOL]
    drift = fixture_drift(body, fixture)
    if drift is not None and not drift <= FIXTURE_TOL:
        fails.append(f"per_dim drifts {drift:.3e} from {FIXTURE} (gate {FIXTURE_TOL:g})")
    return fails


def gate_pass(body: dict) -> list[str]:
    return [] if body["results"].get("pass") is True else ["report says pass: false"]


def gate_ratio(body: dict) -> list[str]:
    ratio = body["results"]["max_ratio"]
    return [] if _finite(ratio) and ratio > 0 else [f"max_ratio {ratio!r} is not a positive number"]


def gate_sandwich(body: dict) -> list[str]:
    res = body["results"]
    lower, upper = res["lower"], res["upper"]
    if not (_finite(lower) and _finite(upper)):
        return [f"bounds are not finite: lower {lower!r}, upper {upper!r}"]
    if lower > upper + SANDWICH_TOL:
        return [f"sandwich violated: lower {lower!r} > upper {upper!r} + {SANDWICH_TOL:g}"]
    return []


def gate_factorize(body: dict) -> list[str]:
    res = body["results"]
    recon, trunc = res["reconstruction_error"], res["truncation_error"]
    if not (_finite(recon) and _finite(trunc) and recon <= trunc):
        return [f"reconstruction_error {recon!r} exceeds truncation_error {trunc!r}"]
    return []


def gate_bound(body: dict) -> list[str]:
    value = body["value"]
    return [] if _finite(value) and value > 0 else [f"bound {value!r} is not a positive number"]


def gate_spectrum(body: dict) -> list[str]:
    # the exact spectrum of the exponential kernel matches its discretisation
    rows = body["results"]["table"][:SPECTRUM_ROWS]
    worst = max(row["rel_err"] for row in rows)
    if not worst <= SPECTRUM_TOL:
        return [f"Nystrom eigenvalues miss the exact ones by {worst:.3e} (gate {SPECTRUM_TOL:g})"]
    return []


def check(gate: str, body: dict, fixture: dict) -> list[str]:
    """Run the named gate on a parsed report body."""
    try:
        if gate == "search":
            return gate_search(body, fixture)
        return {"pass": gate_pass, "ratio": gate_ratio, "sandwich": gate_sandwich,
                "factorize": gate_factorize, "bound": gate_bound,
                "spectrum": gate_spectrum}[gate](body)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [f"report body lacks what gate {gate!r} reads: {exc!r}"]


class Ledger:
    """Body hashes of earlier runs, keyed by source digest, workload, size, seed,
    step and the step's arguments.

    A later run of the same code on the same inputs must write the same bodies.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.entries = json.load(fh)
        except FileNotFoundError:
            self.entries = {}

    def check(self, key: str, sha: str) -> list[str]:
        seen = self.entries.setdefault(key, sha)
        if seen != sha:
            return [f"body sha256 {sha[:12]} differs from an earlier run's {seen[:12]}"]
        return []

    def save(self) -> None:
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh, sort_keys=True, indent=0)
        os.replace(tmp, self.path)
