"""Each output gate of the benchmark fails when it should, on real reports."""

import copy
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

ROOT = BENCH.parent


def _cli(tmp_path, name, *argv):
    out = tmp_path / f"{name}.json"
    subprocess.run([sys.executable, "-m", "schurlab", *argv, "--out", str(out)],
                   env=run.child_env(ROOT), check=True, capture_output=True, timeout=120)
    return out


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    return {
        "bound": _cli(tmp, "bound", "multiplier-bound", "--kernel", "von-mises", "--p", "0.5",
                      "--samples", "8", "--trials", "1"),
        "factorize": _cli(tmp, "factorize", "factorize", "--kernel", "von-mises", "--p", "1",
                          "--cutoff", "8"),
        "spectrum": _cli(tmp, "spectrum", "kernel-spectrum", "--kmax", "5", "--nystrom", "256",
                         "--quadrature", "256", "--sums-kmax", "100"),
    }


def _fixture_body(fixture):
    config = {"p": "0.5", "theta": fixture["theta"], "signed": fixture["signed"],
              "trials": fixture["trials"], "seed": fixture["seed"], "dims": [2, 8]}
    per_dim = {k: fixture["per_dim"][k] for k in ("2", "8")}
    return {"config": config, "results": {"per_dim": per_dim}}


def test_search_gate_fails_on_perturbed_fixture_value():
    fixture = gates.load_fixture(ROOT)
    body = _fixture_body(fixture)
    assert gates.fixture_drift(body, fixture) == 0.0
    assert gates.check("search", body, fixture) == []
    perturbed = copy.deepcopy(fixture)
    perturbed["per_dim"]["8"] *= 1 + 2e-6
    assert gates.fixture_drift(body, perturbed) > gates.FIXTURE_TOL
    assert any("drifts" in msg for msg in gates.check("search", body, perturbed))


def test_search_fixture_applies_only_to_its_config():
    fixture = gates.load_fixture(ROOT)
    body = _fixture_body(fixture)
    body["config"]["seed"] += 1
    assert gates.fixture_drift(body, fixture) is None
    body["results"]["per_dim"]["2"] = 0.5  # below the deterministic witness ratio
    assert gates.check("search", body, fixture)


def test_fixture_config_runs_once_untimed_at_seed_0():
    fixture = gates.load_fixture(ROOT)
    for seed, size in ((0, "full"), (1, "full"), (0, "tiny")):
        checks = [s for s in run.WORKLOADS["search-sweep"](seed, size) if not s.timed]
        assert len(checks) == (seed == 0 and size == "full")
    (check,) = [s for s in run.WORKLOADS["search-sweep"](0, "full") if not s.timed]
    argv = {flag: check.args[i + 1] for i, flag in enumerate(check.args)
            if flag in ("--trials", "--seed", "--dims")}
    assert int(argv["--trials"]) == fixture["trials"] and int(argv["--seed"]) == fixture["seed"]
    assert check.gate == "search"
    assert set(argv["--dims"].split(",")) <= set(fixture["per_dim"])
    rows = [{"median_s": 1.0, "rss_mb": 40.0, "timed": True},
            {"median_s": 9.0, "rss_mb": 90.0, "timed": False}]
    assert run.end_to_end(rows, [0.3]) == {"wall_s": 1.0, "setup_s": 0.3, "peak_rss_mb": 40.0}


def test_body_hash_is_the_canonical_body_and_catches_a_mutation(reports, tmp_path):
    from schurlab import serialize

    path = reports["bound"]
    body = gates.read_body(path)
    sha = gates.body_sha256(path)
    assert sha == hashlib.sha256(serialize.dumps_canonical(body).encode()).hexdigest()

    text = path.read_text(encoding="utf-8")
    mutated = tmp_path / "mutated.json"
    mutated.write_text(text.replace('"lower":', '"lower":1', 1), encoding="utf-8")
    assert gates.read_body(mutated)["results"]["lower"] != body["results"]["lower"]
    assert gates.body_sha256(mutated) != sha

    ledger = gates.Ledger(tmp_path / "ledger.json")
    assert ledger.check("key", sha) == []
    ledger.save()
    reloaded = gates.Ledger(tmp_path / "ledger.json")
    assert reloaded.check("key", sha) == []
    assert reloaded.check("key", gates.body_sha256(mutated))


def test_header_change_keeps_the_body_hash(reports, tmp_path):
    text = reports["bound"].read_text(encoding="utf-8")
    other = tmp_path / "other-header.json"
    other.write_text(text.replace('"timestamp":"', '"timestamp":"x'), encoding="utf-8")
    assert gates.body_sha256(other) == gates.body_sha256(reports["bound"])


def test_sandwich_gate_fails_on_forced_violation(reports):
    body = gates.read_body(reports["bound"])
    assert gates.check("sandwich", body, {}) == []
    broken = copy.deepcopy(body)
    broken["results"]["lower"] = broken["results"]["upper"] * 2
    assert any("sandwich violated" in msg for msg in gates.check("sandwich", broken, {}))


def test_factorize_gate_fails_when_reconstruction_exceeds_tail(reports):
    body = gates.read_body(reports["factorize"])
    assert gates.check("factorize", body, {}) == []
    broken = copy.deepcopy(body)
    broken["results"]["reconstruction_error"] = 2 * broken["results"]["truncation_error"]
    assert gates.check("factorize", broken, {})


def test_spectrum_gate_fails_when_discretisation_misses(reports):
    body = gates.read_body(reports["spectrum"])
    assert gates.check("spectrum", body, {}) == []
    broken = copy.deepcopy(body)
    broken["results"]["table"][0]["rel_err"] = 0.1
    assert gates.check("spectrum", broken, {})


def test_gate_reports_missing_fields_instead_of_crashing():
    assert gates.check("sandwich", {"results": {}}, {})
    assert gates.check("bound", {}, {})


def test_tracer_times_functions_at_every_import_site(tmp_path):
    spans = tmp_path / "spans.npz"
    out = tmp_path / "report.json"
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans), "cli",
                    "estimate-constant", "--p", "0.5", "--theta", "0.5", "--signed",
                    "--trials", "20", "--dims", "2", "--out", str(out)],
                   env=run.child_env(ROOT), check=True, capture_output=True, timeout=120)
    metrics, absent = layers.pass_metrics([spans], 10.0, out.stat().st_size)
    assert absent == []
    # experiments holds its own reference to operators.spectral_decompose
    assert metrics["operators.spectral_decompose.calls"] > 40
    assert metrics["cli.main.self_s"] > 0
    assert metrics["experiments.ando_ratio.self_s"] > 0
    for mod in layers.MODULES:
        assert metrics[f"{mod}.self_s"] >= 0
    assert sum(metrics[f"{mod}.share"] for mod in layers.MODULES) <= 1.0

    loaded = layers.load_spans(spans)
    calls, selfs = layers.self_times(loaded)
    total = float((loaded["end"] - loaded["start"])[loaded["parent"] < 0].sum())
    assert sum(selfs.values()) == pytest.approx(total)


def test_removed_name_is_reported_absent(tmp_path):
    spans = tmp_path / "spans.npz"
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans), "api",
                    str(tmp_path / "r.json"), "solve_theta", "[3]"],
                   env=run.child_env(ROOT), check=True, capture_output=True, timeout=120)
    metrics, absent = layers.pass_metrics([spans], 1.0, 0)
    assert metrics["expkernel.solve_theta.calls"] == 1
    assert metrics["expkernel.solve_theta.distinct_frac"] == 1.0
    assert absent == []

    import numpy as np

    with np.load(spans) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta"]))
    meta["names"] = [n.replace("solve_theta", "solve_theta_renamed") for n in meta["names"]]
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(spans, **arrays)
    metrics, absent = layers.pass_metrics([spans], 1.0, 0)
    assert "expkernel.solve_theta" in absent
    assert metrics["expkernel.solve_theta.calls"] == 0


def test_benchmark_json_matches_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.metric_units().items())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
