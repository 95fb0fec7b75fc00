"""Tiny-size runs of every workload through the benchmark's command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402


def _bench(out_dir, *args, bench=BENCH):
    return subprocess.run([sys.executable, str(bench / "run.py"), *args, "--size", "tiny",
                           "--seconds", "1", "--out-dir", str(out_dir)],
                          cwd=bench.parent, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_workload_is_correct(workload, tmp_path):
    proc = _bench(tmp_path, "--workload", workload, "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in ("wall_s", "setup_s", "peak_rss_mb", "failed_frac"):
        assert f"metric {name} " in proc.stdout


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    proc = _bench(tmp_path, "--workload", "search-sweep", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == layers.metric_units()
    assert result["metrics"]["operators.spectral_decompose.calls"]["value"] > 0
    assert result["metrics"]["interpolation.k_functional.calls"]["value"] > 0
    assert "absent" not in proc.stdout


def test_changed_body_fails_the_run(tmp_path):
    for _ in range(2):  # a rerun of the same code and seed reproduces every body
        proc = _bench(tmp_path, "--workload", "certify-spectrum")
        assert proc.returncode == 0, proc.stdout + proc.stderr
    ledger = tmp_path / "ledger.json"
    entries = json.loads(ledger.read_text())
    entries = {k: "0" * 64 for k in entries}
    ledger.write_text(json.dumps(entries))
    proc = _bench(tmp_path, "--workload", "certify-spectrum")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path / "out", "--workload", "search-sweep", bench=tmp_path / "perfbench")
    assert proc.returncode not in (0, None)
    assert '"metrics"' not in proc.stdout
