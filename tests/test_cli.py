import argparse
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import schurlab.cli as cli
from schurlab import serialize
from schurlab.experiments import RatioBlock, random_pair, trial_rng
from schurlab.interpolation import kfonc_ratios, weak_lp_ratios
from schurlab.operators import spectral_decompose


SCHEMA_DIR = Path(cli.__file__).parent / "schemas"


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def body_bytes(path):
    return serialize.dumps_canonical(load_report(path)["body"]).encode()


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


def with_trials(argv, trials="3"):
    """argv with --trials inserted after the command, if the command takes it."""
    takes = any(action.dest == "trials" for action in _subparsers()[argv[0]]._actions)
    return argv[:1] + (["--trials", trials] if takes else []) + argv[1:]


def validate(path, command):
    with open(SCHEMA_DIR / f"report.{command}.schema.json", encoding="utf-8") as fh:
        schema = json.load(fh)
    jsonschema.validate(load_report(path), schema)


class TestExitCodes:
    def test_bks_success(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["bks", "--p", "1", "--theta", "0.5", "--dims", "2,4",
                         "--trials", "50", "--seed", "7", "--out", str(out)])
        assert code == 0
        validate(out, "bks")
        report = load_report(out)
        assert report["body"]["results"]["max_ratio"] <= 1.0 + 1e-9
        assert report["body"]["seed"] == 7

    def test_zero_trials_is_input_error(self, tmp_path):
        code = cli.main(["estimate-constant", "--p", "0.5", "--theta", "0.5",
                         "--trials", "0", "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_unknown_command_is_input_error(self):
        assert cli.main(["no-such-command"]) == 1

    def test_bad_flag_value(self, tmp_path):
        assert cli.main(["bks", "--p", "zero", "--theta", "0.5",
                         "--out", str(tmp_path / "r.json")]) == 1

    def test_violation_exits_2(self, tmp_path, monkeypatch):
        def fake_bks(x, y, p, theta):
            ones = np.ones(x.entries.shape[0])
            return RatioBlock(2.0 * ones, ones)
        monkeypatch.setattr(cli, "bks_ratios", fake_bks)
        out = tmp_path / "r.json"
        code = cli.main(["bks", "--p", "1", "--theta", "0.5", "--trials", "3",
                         "--out", str(out)])
        assert code == 2
        assert load_report(out)["body"]["results"]["pass"] is False

    def test_zero_samples_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli.main(["multiplier-bound", "--kernel", "von-mises", "--p", "0.5",
                         "--samples", "0", "--out", str(out)])
        assert code == 1
        assert "--samples must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_is_gone(self, tmp_path):
        assert cli.main(["bks", "--p", "1", "--theta", "0.5", "--threads", "2",
                         "--out", str(tmp_path / "r.json")]) == 1

    def test_certificate_below_witness_exits_2_with_report(self, tmp_path, monkeypatch):
        import schurlab.factorization as factorization
        monkeypatch.setattr(factorization, "certified_pcb_bound", lambda kernel, d, p: 1e-6)
        out = tmp_path / "r.json"
        code = cli.main(["multiplier-bound", "--kernel", "cosine-product", "--p", "1",
                         "--trials", "2", "--samples", "8", "--out", str(out)])
        assert code == 2
        validate(out, "multiplier-bound")
        res = load_report(out)["body"]["results"]
        assert res["pass"] is False
        assert res["upper"] == 1e-6 < res["lower"]

    def test_factorization_self_check_exits_2_with_report(self, tmp_path, monkeypatch):
        from schurlab.factorization import RankOneFactorization
        monkeypatch.setattr(RankOneFactorization, "grid_rows",
                            lambda self, rows, phases: np.full((self.grid_size,) * 2, 1e6)[rows])
        out = tmp_path / "r.json"
        code = cli.main(["factorize", "--kernel", "cosine-product", "--p", "1",
                         "--cutoff", "8", "--out", str(out)])
        assert code == 2
        res = load_report(out)["body"]["results"]
        assert res["pass"] is False
        assert "self-check failed" in res["violation"]

    def test_root_bracket_failure_exits_2_with_report(self, tmp_path, monkeypatch):
        import schurlab.expkernel as expkernel
        monkeypatch.setattr(expkernel, "_bracket_residual", lambda t, k: 1.0)
        out = tmp_path / "r.json"
        code = cli.main(["kernel-spectrum", "--kmax", "3", "--nystrom", "128",
                         "--quadrature", "256", "--out", str(out)])
        assert code == 2
        res = load_report(out)["body"]["results"]
        assert res["pass"] is False
        assert "bracket failed" in res["violation"]

    def test_bracket_check_runs_after_a_memoized_spectrum(self, tmp_path, monkeypatch):
        # a full run fills the memoized partial-sum table first; the roots of
        # the eigenvalue table are still solved, and their brackets checked
        import schurlab.expkernel as expkernel
        assert cli.main(["kernel-spectrum", "--kmax", "3", "--nystrom", "128",
                         "--quadrature", "256", "--out", str(tmp_path / "ok.json")]) == 0
        monkeypatch.setattr(expkernel, "_bracket_residual", lambda t, k: 1.0)
        out = tmp_path / "r.json"
        code = cli.main(["kernel-spectrum", "--kmax", "3", "--nystrom", "128",
                         "--quadrature", "256", "--out", str(out)])
        assert code == 2
        assert "bracket failed" in load_report(out)["body"]["results"]["violation"]

    @pytest.mark.parametrize("sums_kmax", [10, 13, 50, 12345, 100000])
    def test_partial_sum_grid_ends_at_sums_kmax(self, tmp_path, sums_kmax):
        # int() of the last log-spaced point fell one short for 13 and 50
        out = tmp_path / "r.json"
        assert cli.main(["kernel-spectrum", "--kmax", "2", "--nystrom", "64",
                         "--quadrature", "256", "--sums-p", "1",
                         "--sums-kmax", str(sums_kmax), "--out", str(out)]) == 0
        grid = load_report(out)["body"]["results"]["partial_sums"]["K"]
        assert grid[0] == 10 and grid[-1] == sums_kmax
        assert grid == sorted(set(grid)) and len(grid) <= 12

    def test_kmax_above_nystrom_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli.main(["kernel-spectrum", "--kmax", "100", "--nystrom", "64",
                         "--quadrature", "256", "--sums-kmax", "100", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--kmax (100) must not exceed --nystrom (64)" in err
        assert not out.exists()


    @pytest.mark.parametrize("command", [
        ["commutator", "--p", "1", "--theta", "0.5"],
        ["mazur", "--p", "1", "--q", "2"],
        ["kfunctional", "--p0", "1", "--p1", "2"],
        ["weak-lp", "--p", "1"],
    ])
    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_nonpositive_dim_is_input_error(self, tmp_path, capsys, command, dim):
        out = tmp_path / "r.json"
        code = cli.main(command + ["--dim", dim, "--trials", "5", "--out", str(out)])
        assert code == 1
        assert "--dim must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["multiplier-bound", "--samples", "8", "--trials", "1"],
        ["factorize"],
    ])
    @pytest.mark.parametrize("a", ["0.3", "nan"])
    def test_resolvent_pole_is_input_error(self, tmp_path, capsys, command, a):
        out = tmp_path / "r.json"
        code = cli.main(command + ["--kernel", "shifted-resolvent", "--p", "1", "--a", a,
                                   "--out", str(out)])
        assert code == 1
        assert "shifted-resolvent kernel needs a >= 0.5" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv, message", [
        # integer flags below their minimum, checked once after parsing
        (["bks", "--p", "1", "--theta", "0.5", "--trials", "0"], "--trials must be >= 1"),
        (["kernel-spectrum", "--kmax", "0"], "--kmax must be >= 1"),
        (["kernel-spectrum", "--nystrom", "32", "--kmax", "3"], "--nystrom must be >= 64"),
        (["kernel-spectrum", "--sums-kmax", "9"], "--sums-kmax must be >= 10"),
        # ranges the library rejects before any ratio is computed
        (["verify-ando", "--thetas", "0.5,1.5"], "theta must lie strictly inside (0, 1)"),
        (["bks", "--p", "1", "--theta", "0"], "theta must lie strictly inside (0, 1)"),
        (["bks", "--p", "0.25", "--theta", "0.5"], "needs p >= theta"),
        (["multiplier-bound", "--kernel", "von-mises", "--p", "inf"], "require p <= 1"),
        (["multiplier-bound", "--kernel", "von-mises", "--p", "2"], "require p <= 1"),
        (["multiplier-bound", "--kernel", "von-mises", "--p", "0.5", "--d", "2"], "d > 1/p"),
        (["factorize", "--kernel", "von-mises", "--p", "inf"], "require p <= 1"),
        (["factorize", "--kernel", "von-mises", "--p", "0.5", "--d", "2"], "d > 1/p"),
        (["kfunctional", "--p0", "2", "--p1", "1"], "need p0 < p1"),
        (["kfunctional", "--p0", "1", "--p1", "2", "--t", "1,-1"], "t must be positive"),
        (["kfunctional", "--p0", "1", "--p1", "2", "--t", "0"], "t must be positive"),
        (["weak-lp", "--p", "0"], "p must be positive"),
        (["weak-lp", "--p", "-1"], "p must be positive"),
        (["mazur", "--p", "2", "--q", "1"], "need q > p > 0"),
        (["mazur", "--p", "0", "--q", "1"], "need q > p > 0"),
        (["estimate-constant", "--p", "0.5", "--theta", "0.5", "--dims", "3,2,3"],
         "dim 3 more than once"),
        # checks the command line keeps
        (["estimate-constant", "--p", "0.5", "--theta", "0.5,1"],
         "theta must lie strictly inside (0, 1), got 1.0"),
        # a (p, theta) sweep grid never checkpoints: both flags that steer
        # checkpoints are refused there, not ignored
        (["estimate-constant", "--p", "0.5,1", "--theta", "0.5", "--dims", "2",
          "--checkpoint-every", "5"], "--checkpoint-every only supports a single (p, theta) pair"),
        (["estimate-constant", "--p", "0.5,1", "--theta", "0.5", "--dims", "2", "--resume"],
         "--resume only supports a single (p, theta) pair"),
        (["multiplier-bound", "--kernel", "no-such-kernel", "--p", "0.5"], "unknown kernel"),
        (["factorize", "--kernel", "no-such-kernel", "--p", "0.5"], "unknown kernel"),
        # theta's own range, checked before p >= theta and before any kernel sampling
        (["bks", "--p", "1", "--theta", "1.5"], "theta must lie strictly inside (0, 1)"),
        *[([command, "--kernel", "power-ratio-window", "--p", "0.5", "--theta", theta],
           "theta must lie strictly inside (0, 1)")
          for command in ("multiplier-bound", "factorize") for theta in ("1.5", "0")],
        # the witness search is real: a complex kernel is refused, not cut to its real part
        (["multiplier-bound", "--kernel", "complex-mode", "--p", "1", "--samples", "8"],
         "symbol values must be real"),
    ])
    def test_out_of_range_input_exits_1_without_report(self, tmp_path, capsys, argv, message):
        out = tmp_path / "r.json"
        assert cli.main(with_trials(argv) + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # the command line names the flag where the library says
        # quadrature_points, mode_cutoff or checkpoint_every; a zero
        # checkpoint interval is an input error, not checkpointing off
        (["kernel-spectrum", "--quadrature", "100"], "--quadrature must be >= 256"),
        (["factorize", "--kernel", "von-mises", "--p", "1", "--cutoff", "0"],
         "--cutoff must be >= 1"),
        (["estimate-constant", "--p", "0.5", "--theta", "0.5", "--checkpoint-every", "0"],
         "--checkpoint-every must be >= 1"),
        # a negative seed failed in numpy's SeedSequence, after a whole
        # certificate for multiplier-bound; grid and d had the library's names
        (["mazur", "--p", "1", "--q", "2", "--seed", "-1"], "--seed must be >= 0"),
        (["multiplier-bound", "--kernel", "von-mises", "--p", "1", "--seed", "-1"],
         "--seed must be >= 0"),
        (["kfunctional", "--p0", "1", "--p1", "2", "--grid", "8"], "--grid must be >= 16"),
        (["factorize", "--kernel", "von-mises", "--p", "1", "--d", "0"], "--d must be >= 1"),
    ])
    def test_integer_flag_below_minimum_names_the_flag(self, tmp_path, capsys, argv, message):
        out = tmp_path / "r.json"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not out.exists()

    def test_every_integer_flag_has_a_minimum(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        int_flags = {action.dest for sp in subparsers.values() for action in sp._actions
                     if action.type is int}
        assert int_flags - cli.INT_MINIMA.keys() == set()

    @pytest.mark.parametrize("argv, message", [
        (["bks", "--p", "1", "--theta", "nan"], "--theta must be finite"),
        (["commutator", "--p", "1", "--theta", "inf"], "--theta must be finite"),
        (["multiplier-bound", "--kernel", "power-ratio-window", "--p", "0.5", "--theta", "nan"],
         "--theta must be finite"),
        # neither kernel reads a, so it is refused whatever its value
        (["multiplier-bound", "--kernel", "power-ratio-window", "--p", "0.5", "--a", "nan"],
         "kernel 'power-ratio-window' takes no parameter 'a'"),
        (["factorize", "--kernel", "von-mises", "--p", "1", "--a", "inf"],
         "kernel 'von-mises' takes no parameter 'a'"),
        (["weak-lp", "--p", "inf"], "--p must be finite"),
        (["mazur", "--p", "nan", "--q", "2"], "--p must be finite"),
        (["mazur", "--p", "1", "--q", "inf"], "--q must be finite"),
        (["kfunctional", "--p0", "1", "--p1", "2", "--t", "0.1,1e400"], "--t must be finite"),
        (["kfunctional", "--p0", "1", "--p1", "2", "--t", "nan"], "--t must be finite"),
        (["verify-ando", "--thetas", "0.5,nan"], "--thetas must be finite"),
        (["kernel-spectrum", "--sums-p", "0.5,inf"], "--sums-p must be finite"),
        (["estimate-constant", "--p", "0.5", "--theta", "0.5,nan"], "--theta must be finite"),
    ])
    def test_non_finite_value_exits_1_without_report(self, tmp_path, capsys, argv, message):
        out = tmp_path / "r.json"
        assert cli.main(with_trials(argv) + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_schatten_index_stays_valid(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["bks", "--p", "inf", "--theta", "0.5", "--dims", "2", "--trials", "3",
                         "--out", str(out)]) == 0
        assert load_report(out)["body"]["results"]["p"] == "inf"


class TestDeterminism:
    def test_byte_identical_bodies(self, tmp_path):
        args = ["verify-ando", "--trials", "10", "--dims", "2,3", "--seed", "3"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert body_bytes(out1) == body_bytes(out2)

    @pytest.mark.parametrize("cutoff", ["8", "127"])
    def test_json_report_text_is_canonical(self, tmp_path, cutoff):
        # the report is encoded piece by piece straight into the file (at
        # cutoff 127 the 65,280 f_samples values of each part cross
        # FLOAT_PIECE); its text must still be the canonical encoding of
        # header and body, then one newline
        out = tmp_path / "r.json"
        assert cli.main(["factorize", "--kernel", "cosine-product", "--p", "1",
                         "--cutoff", cutoff, "--out", str(out)]) == 0
        report = load_report(out)
        assert out.read_text(encoding="utf-8") == (
            '{"header":' + serialize.dumps_canonical(report["header"])
            + ',"body":' + serialize.dumps_canonical(report["body"]) + "}\n")
        assert not (tmp_path / "r.json.tmp").exists()

    @pytest.mark.parametrize("earlier", [False, True])
    def test_body_that_fails_to_encode_leaves_no_report(self, tmp_path, monkeypatch, capsys,
                                                        earlier):
        # the body is written to <out>.tmp as it is encoded; a value that
        # fails to encode after much of it is written exits 1, removes the
        # partial file and leaves an earlier report at <out> as it was
        from schurlab.factorization import RankOneFactorization

        out = tmp_path / "r.json"
        argv = ["factorize", "--kernel", "cosine-product", "--p", "1", "--cutoff", "127",
                "--out", str(out)]
        if earlier:
            assert cli.main(argv) == 0
        before = out.read_bytes() if earlier else None
        to_json = RankOneFactorization.to_json
        # "truncation_error" sorts after "f_samples", so the samples are written first
        monkeypatch.setattr(RankOneFactorization, "to_json",
                            lambda self: {**to_json(self), "truncation_error": math.inf})
        assert cli.main(argv) == 1
        assert "non-finite value inf" in capsys.readouterr().err
        assert not (tmp_path / "r.json.tmp").exists()
        assert (out.read_bytes() if out.exists() else None) == before

    def test_csv_body_identical(self, tmp_path):
        args = ["kernel-spectrum", "--kmax", "3", "--nystrom", "128",
                "--quadrature", "256", "--format", "csv"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        strip = lambda p: [l for l in p.read_text().splitlines()
                           if not l.startswith("# timestamp")
                           and not l.startswith("# duration")]
        assert strip(out1) == strip(out2)


class TestReports:
    def test_kernel_spectrum_table(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["kernel-spectrum", "--kmax", "4", "--nystrom", "256",
                         "--quadrature", "256", "--out", str(out)]) == 0
        validate(out, "kernel-spectrum")
        table = load_report(out)["body"]["results"]["table"]
        assert [row["k"] for row in table] == [1, 2, 3, 4]
        assert all(set(row) == {"k", "theta", "lambda", "nystrom_lambda", "rel_err"}
                   for row in table)

    def test_kernel_spectrum_csv_columns(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli.main(["kernel-spectrum", "--kmax", "2", "--nystrom", "128",
                         "--quadrature", "256", "--format", "csv",
                         "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "k,theta,lambda,nystrom_lambda,rel_err"
        assert len(lines) == 3

    def test_estimate_constant_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["estimate-constant", "--p", "0.5", "--theta", "0.5",
                         "--dims", "2", "--trials", "20", "--seed", "11",
                         "--out", str(out)]) == 0
        validate(out, "estimate-constant")
        body = load_report(out)["body"]
        assert body["results"]["best_ratio"] >= 1.0 - 1e-9
        assert body["results"]["witness_x"]["dim"] == 2
        assert not (tmp_path / "r.json.ckpt.json").exists()

    def test_multiplier_bound_sandwich(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["multiplier-bound", "--kernel", "cosine-product",
                         "--p", "1", "--trials", "2", "--samples", "8",
                         "--out", str(out)]) == 0
        validate(out, "multiplier-bound")
        res = load_report(out)["body"]["results"]
        assert res["lower"] <= res["upper"] + 1e-9

    def test_factorize_export(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["factorize", "--kernel", "cosine-product", "--p", "1",
                         "--cutoff", "8", "--out", str(out)]) == 0
        validate(out, "factorize")
        res = load_report(out)["body"]["results"]
        assert res["reconstruction_error"] <= 1e-9

    def test_kfunctional_sweep(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["kfunctional", "--p0", "0.5", "--p1", "2", "--dim", "3",
                         "--trials", "2", "--t", "0.5,2", "--grid", "32",
                         "--out", str(out)]) == 0
        validate(out, "kfunctional")
        rows = load_report(out)["body"]["results"]["table"]
        assert len(rows) == 4

    def test_weak_lp_sweep(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["weak-lp", "--p", "1", "--q", "0.5,inf", "--dim", "3",
                         "--trials", "2", "--out", str(out)]) == 0
        validate(out, "weak-lp")

    @pytest.mark.parametrize("argv, labels, ratio", [
        (["kfunctional", "--p0", "0.5", "--p1", "2", "--t", "0.5,4", "--grid", "16", "--dim", "2"],
         [{"t": t, "p0": 0.5, "p1": 2.0, "theta": 0.5} for t in (0.5, 4.0)],
         lambda x, y, case: kfonc_ratios(x, y, 0.5, 2.0, 0.5, False, [case["t"]], grid=16)),
        (["weak-lp", "--p", "1", "--q", "0.5,1,inf", "--dim", "3"],
         [{"p": 1.0, "q": q, "theta": 0.5} for q in (0.5, 1.0, "inf")],
         lambda x, y, case: weak_lp_ratios(x, y, 1.0, [case["q"]], 0.5, False)),
    ])
    def test_case_rows_are_trial_major(self, tmp_path, argv, labels, ratio):
        # 66 trials cross a block boundary; every trial has one row per case
        out = tmp_path / "r.json"
        assert cli.main(argv + ["--trials", "66", "--seed", "5", "--out", str(out)]) == 0
        res = load_report(out)["body"]["results"]
        rows = res["table"]
        assert [row["trial"] for row in rows] == [t for t in range(66) for _ in labels]
        assert [{k: row[k] for k in labels[0]} for row in rows] == labels * 66
        assert res["max_ratio"] == max(row["ratio"] for row in rows if not row["degenerate"])
        for row in rows[:2 * len(labels)] + rows[-len(labels):]:
            x, y = random_pair(3 if argv[0] == "weak-lp" else 2, trial_rng(5, row["trial"]),
                               kind=row["trial"])
            assert row["ratio"] == ratio(spectral_decompose(x), spectral_decompose(y),
                                         row).ratio[0, 0]
        csv = tmp_path / "r.csv"
        assert cli.main(argv + ["--trials", "2", "--format", "csv", "--out", str(csv)]) == 0
        header = [l for l in csv.read_text().splitlines() if not l.startswith("#")][0]
        assert header == ",".join([*labels[0], "trial", "ratio", "degenerate"])

    @pytest.mark.parametrize("argv, pairs, blocks", [
        (["weak-lp", "--p", "1", "--q", "0.5,1,inf", "--trials", "100"], 100, 2),
        (["kfunctional", "--p0", "1", "--p1", "2", "--t", "0.1,1,10", "--trials", "6"], 6, 1),
    ])
    def test_case_sweep_draws_and_decomposes_each_trial_once(self, tmp_path, monkeypatch,
                                                             argv, pairs, blocks):
        # every case is scored from the same block: one draw per trial, and
        # one decomposition and one calculus per operand stack, whatever the
        # number of cases
        import schurlab.interpolation as interpolation
        calls = {"random_pair": 0, "decompose_stack": 0, "calculus_stack": 0}
        for module, name in ((cli, "random_pair"), (cli, "decompose_stack"),
                             (interpolation, "calculus_stack")):
            def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == 0
        assert calls == {"random_pair": pairs, "decompose_stack": 2 * blocks,
                         "calculus_stack": 2 * blocks}

    def test_verify_ando_blocks_equal_one_pair_at_a_time(self, tmp_path, monkeypatch):
        # reference: each trial's pair decomposed on its own, the calculus and
        # the defect formed per map, as the sweep ran before it went in blocks
        from schurlab.experiments import random_hermitian
        from schurlab.multipliers import divided_difference_symbol, schur_apply
        from schurlab.operators import SignedPowerFunction, apply_calculus, eigenvalue_groups

        seed, trials, dims, thetas = 5, 70, [2, 5, 3], [0.3, 0.8]
        maps = [SignedPowerFunction(t, s) for t in thetas for s in (False, True)]

        def reference(idx):
            rng = trial_rng(seed, idx)
            dim = dims[idx % len(dims)]
            x = spectral_decompose(random_hermitian(dim, rng))
            y = spectral_decompose(random_hermitian(dim, rng))
            radius = max(float(np.abs(x.eigenvalues).max()), float(np.abs(y.eigenvalues).max()),
                         1e-300)
            spec_x = eigenvalue_groups(x.eigenvalues[0])[0]
            spec_y = eigenvalue_groups(y.eigenvalues[0])[0]
            defects = []
            for f in maps:
                sym = divided_difference_symbol(spec_x, spec_y, f)
                diff = apply_calculus(x, f).entries[0] - apply_calculus(y, f).entries[0]
                rhs = schur_apply(sym, x, y, x.entries[0] - y.entries[0])
                defects.append(np.abs(diff - rhs).max() / radius**f.theta)
            return defects

        seen, decompositions = {}, []

        def recording(trial_ids, draw, evaluate, _real=cli.sweep_trials):
            for row in _real(trial_ids, draw, evaluate):
                seen.setdefault(row[0], []).append(row[1])
                yield row

        def counted(*args, _real=cli.decompose_stack, **kwargs):
            decompositions.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, "sweep_trials", recording)
        monkeypatch.setattr(cli, "decompose_stack", counted)
        out = tmp_path / "r.json"
        assert cli.main(["verify-ando", "--trials", str(trials), "--dims", "2,5,3",
                         "--thetas", "0.3,0.8", "--seed", str(seed), "--out", str(out)]) == 0
        assert len(decompositions) == len(dims)  # one block per dim at 70 trials
        assert seen == {i: reference(i) for i in range(trials)}
        worst = load_report(out)["body"]["results"]["max_relative_defect"]
        assert worst == max(max(d) for d in seen.values())

    def test_commutator_and_mazur(self, tmp_path):
        out = tmp_path / "c.json"
        assert cli.main(["commutator", "--p", "0.5", "--theta", "0.5", "--dim", "3",
                         "--trials", "5", "--out", str(out)]) == 0
        validate(out, "commutator")
        out2 = tmp_path / "m.json"
        assert cli.main(["mazur", "--p", "1", "--q", "2", "--dim", "3",
                         "--trials", "5", "--out", str(out2)]) == 0
        validate(out2, "mazur")

    def test_witness_reevaluates_offline(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["bks", "--p", "1", "--theta", "0.5", "--dims", "3",
                         "--trials", "30", "--seed", "2", "--out", str(out)]) == 0
        res = load_report(out)["body"]["results"]
        from schurlab.experiments import bks_ratios
        x = spectral_decompose(serialize.matrix_from_json(res["witness_x"]))
        y = spectral_decompose(serialize.matrix_from_json(res["witness_y"]))
        replay = bks_ratios(x, y, 1.0, 0.5)
        assert replay.ratio[0] == pytest.approx(res["max_ratio"], rel=1e-12)

    def test_bks_max_is_the_witness_check_bit_for_bit(self, tmp_path):
        # the sweep's maximum is reported as is; the witness's single-pair
        # check gives the same bits
        from schurlab.experiments import bks_ratios
        out = tmp_path / "r.json"
        assert cli.main(["bks", "--p", "0.75", "--theta", "0.5", "--dims", "2,5",
                         "--trials", "70", "--seed", "3", "--out", str(out)]) == 0
        res = load_report(out)["body"]["results"]
        x = spectral_decompose(serialize.matrix_from_json(res["witness_x"]))
        y = spectral_decompose(serialize.matrix_from_json(res["witness_y"]))
        assert bks_ratios(x, y, 0.75, 0.5).ratio[0] == res["max_ratio"]

    def test_bks_dim_without_trials(self, tmp_path):
        # two trials over three dims: trial i runs at dims[i % 3], so dim 6 gets none
        out = tmp_path / "r.json"
        assert cli.main(["bks", "--p", "1", "--theta", "0.5", "--dims", "2,4,6",
                         "--trials", "2", "--seed", "4", "--out", str(out)]) == 0
        validate(out, "bks")
        res = load_report(out)["body"]["results"]
        from schurlab.experiments import bks_ratios, random_psd, trial_rng
        samples = []
        for trial, dim in enumerate((2, 4)):
            rng = trial_rng(4, trial)
            x, y = random_psd(dim, rng), random_psd(dim, rng)
            ratio = bks_ratios(spectral_decompose(x), spectral_decompose(y), 1.0, 0.5).ratio[0]
            samples.append((ratio, x, y))
        best, x, y = max(samples, key=lambda s: s[0])
        assert res["max_ratio"] == best
        assert np.array_equal(serialize.matrix_from_json(res["witness_x"]), x)
        assert np.array_equal(serialize.matrix_from_json(res["witness_y"]), y)

    def test_control_character_in_a_flag_leaves_the_report_json(self, tmp_path):
        # float() reads "1\x0b" as 1, and the config keeps the raw --p text
        out = tmp_path / "r.json"
        assert cli.main(["bks", "--p", "1\x0b", "--theta", "0.5", "--dims", "2",
                         "--trials", "3", "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh)["body"]["config"]["p"] == "1\x0b"

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCHURLAB_OUTDIR", str(tmp_path))
        assert cli.main(["bks", "--p", "1", "--theta", "0.5", "--trials", "5"]) == 0
        assert (tmp_path / "bks-report.json").exists()


class TestResume:
    def test_resume_reproduces_full_run(self, tmp_path):
        out_full = tmp_path / "full.json"
        args = ["estimate-constant", "--p", "0.5", "--theta", "0.5", "--dims", "2,3",
                "--trials", "30", "--seed", "4"]
        assert cli.main(args + ["--out", str(out_full)]) == 0

        # fabricate an interrupted run: library-level checkpoint written to
        # the path the CLI will look up with --resume
        from schurlab.experiments import estimate_constant
        snaps = []
        estimate_constant(0.5, 0.5, False, [2, 3], 30, seed=4,
                          checkpoint_every=20, checkpoint_cb=snaps.append)
        out_res = tmp_path / "resumed.json"
        ckpt = Path(str(out_res) + ".ckpt.json")
        ckpt.write_text(serialize.dumps_canonical(snaps[0]))
        assert cli.main(args + ["--resume", "--out", str(out_res)]) == 0
        full = load_report(out_full)["body"]["results"]
        resumed = load_report(out_res)["body"]["results"]
        assert resumed["best_ratio"] == full["best_ratio"]
        assert resumed["per_dim"] == full["per_dim"]
        assert not ckpt.exists()

    def test_crash_during_checkpoint_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        args = ["estimate-constant", "--p", "0.5", "--theta", "0.5", "--dims", "2,3",
                "--trials", "30", "--seed", "4", "--checkpoint-every", "20"]
        out_full = tmp_path / "full.json"
        assert cli.main(args + ["--out", str(out_full)]) == 0

        out = tmp_path / "r.json"
        ckpt = Path(str(out) + ".ckpt.json")
        dumps = serialize.dumps_canonical
        written = []

        def crash_on_second_checkpoint(obj):
            if isinstance(obj, dict) and "counter" in obj:
                written.append(obj["counter"])
                if len(written) == 2:
                    raise KeyboardInterrupt("killed mid-write")
            return dumps(obj)

        monkeypatch.setattr(serialize, "dumps_canonical", crash_on_second_checkpoint)
        with pytest.raises(KeyboardInterrupt):
            cli.main(args + ["--out", str(out)])
        monkeypatch.setattr(serialize, "dumps_canonical", dumps)
        assert written == [20, 40]
        assert json.loads(ckpt.read_text())["counter"] == 20

        assert cli.main(args + ["--resume", "--out", str(out)]) == 0
        full = load_report(out_full)["body"]["results"]
        resumed = load_report(out)["body"]["results"]
        for key in ("best_ratio", "per_dim", "history", "witness_x", "witness_y"):
            assert resumed[key] == full[key]
        assert not ckpt.exists() and not Path(str(ckpt) + ".tmp").exists()

    def test_resume_rejects_other_config(self, tmp_path):
        from schurlab.experiments import estimate_constant
        snaps = []
        estimate_constant(0.5, 0.5, False, [2, 3], 30, seed=4,
                          checkpoint_every=20, checkpoint_cb=snaps.append)
        out = tmp_path / "r.json"
        ckpt = Path(str(out) + ".ckpt.json")
        ckpt.write_text(serialize.dumps_canonical(snaps[0]))
        code = cli.main(["estimate-constant", "--p", "2", "--theta", "0.25", "--dims", "2,3",
                         "--trials", "30", "--seed", "99", "--resume", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert ckpt.exists()


def test_resume_rejects_checkpoint_without_dimension_best(tmp_path, capsys):
    # a checkpoint from before the running per-dimension best was saved
    from schurlab.experiments import estimate_constant
    snaps = []
    estimate_constant(0.5, 0.5, False, [2, 3], 30, seed=4,
                      checkpoint_every=20, checkpoint_cb=snaps.append)
    old = {k: v for k, v in snaps[0].items() if not k.startswith("dim_best")}
    out = tmp_path / "r.json"
    ckpt = Path(str(out) + ".ckpt.json")
    ckpt.write_text(serialize.dumps_canonical(old))
    code = cli.main(["estimate-constant", "--p", "0.5", "--theta", "0.5", "--dims", "2,3",
                     "--trials", "30", "--seed", "4", "--resume", "--out", str(out)])
    assert code == 1
    assert "checkpoint lacks the fields ['dim_best', 'dim_best_x', 'dim_best_y']" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_all_zero_sampled_symbol_reports_lower_0_without_witness(tmp_path):
    # one sample pair of shifted-resolvent falls outside the bumps at seeds 0
    # and 1, so every sampled value is 0 and no witness exists; the report
    # used to fail serializing the missing witness
    for seed in ("0", "1"):
        out = tmp_path / f"r{seed}.json"
        assert cli.main(["multiplier-bound", "--kernel", "shifted-resolvent", "--p", "1",
                         "--samples", "1", "--trials", "1", "--seed", seed,
                         "--out", str(out)]) == 0
        validate(out, "multiplier-bound")
        res = load_report(out)["body"]["results"]
        assert res["symbol"]["values"] == [0]
        assert res["lower"] == 0 and res["pass"] is True and "witness" not in res


class TestConfigHoldsWhatShapesResults:
    # a small run of every command, with each flag the command declares given,
    # but for the kernel parameters that cosine-product does not take
    WALK = {
        "verify-ando": ["--trials", "2", "--dims", "2", "--thetas", "0.5"],
        "estimate-constant": ["--p", "0.5", "--theta", "0.5", "--signed", "--trials", "2",
                              "--dims", "2", "--checkpoint-every", "1"],
        "bks": ["--p", "1", "--theta", "0.5", "--trials", "2", "--dims", "2"],
        "multiplier-bound": ["--kernel", "cosine-product", "--p", "1", "--d", "2",
                             "--samples", "2", "--trials", "1"],
        "factorize": ["--kernel", "cosine-product", "--p", "1", "--d", "2", "--cutoff", "4"],
        "kernel-spectrum": ["--kmax", "2", "--nystrom", "64", "--quadrature", "256",
                            "--sums-p", "0.5", "--sums-kmax", "10"],
        "kfunctional": ["--p0", "1", "--p1", "2", "--theta", "0.5", "--signed", "--t", "1",
                        "--trials", "1", "--dim", "2", "--grid", "16"],
        "weak-lp": ["--p", "1", "--q", "1", "--theta", "0.5", "--signed", "--trials", "1",
                    "--dim", "2"],
        "commutator": ["--p", "1", "--theta", "0.5", "--signed", "--trials", "1", "--dim", "2"],
        "mazur": ["--p", "1", "--q", "2", "--trials", "1", "--dim", "2"],
    }

    def test_walk_covers_every_command(self):
        assert set(self.WALK) == set(cli.RUNNERS) == set(_subparsers())

    @pytest.mark.parametrize("command", sorted(WALK))
    def test_every_flag_but_run_control_is_read(self, tmp_path, command):
        # a flag the run never reads cannot shape its results, so it has no
        # place on the command line or in the report's config
        reads = set()

        class Recorder(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        out = tmp_path / "r.json"
        ns = cli.build_parser().parse_args([command, *self.WALK[command], "--out", str(out)],
                                           namespace=Recorder())
        dests = set(vars(ns))
        reads.clear()
        cli._write_report(str(out), ns, cli.RUNNERS[command](ns), 0.0)
        shaping = dests - {"command", *cli.RUN_CONTROL}
        assert shaping - reads == set()
        given = {k for k in shaping if vars(ns)[k] is not None}
        assert set(load_report(out)["body"]["config"]) == given

    def test_resumed_and_recheckpointed_bodies_are_byte_identical(self, tmp_path):
        from schurlab.experiments import estimate_constant
        args = ["estimate-constant", "--p", "0.5", "--theta", "0.5", "--dims", "2,3",
                "--trials", "30", "--seed", "4"]
        full, resumed, every = (tmp_path / f"{n}.json" for n in ("full", "resumed", "every"))
        assert cli.main(args + ["--out", str(full)]) == 0
        snaps = []
        estimate_constant(0.5, 0.5, False, [2, 3], 30, seed=4,
                          checkpoint_every=20, checkpoint_cb=snaps.append)
        Path(str(resumed) + ".ckpt.json").write_text(serialize.dumps_canonical(snaps[0]))
        assert cli.main(args + ["--resume", "--out", str(resumed)]) == 0
        assert cli.main(args + ["--checkpoint-every", "10", "--out", str(every)]) == 0
        assert body_bytes(resumed) == body_bytes(full) == body_bytes(every)

    @pytest.mark.parametrize("given, received", [([], cli.DEFAULT_CHECKPOINT_EVERY),
                                                  (["--checkpoint-every", "7"], 7)])
    def test_single_pair_checkpoint_interval(self, tmp_path, monkeypatch, given, received):
        # the sweep grid refuses an explicit --checkpoint-every; a single pair
        # keeps its default
        seen = []
        real = cli.estimate_constant

        def spy(*args, **kwargs):
            seen.append(kwargs["checkpoint_every"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "estimate_constant", spy)
        assert cli.main(["estimate-constant", "--p", "0.5", "--theta", "0.5", "--dims", "2",
                         "--trials", "3", *given, "--out", str(tmp_path / "r.json")]) == 0
        assert seen == [received]

    @pytest.mark.parametrize("argv", [
        ["factorize", "--kernel", "von-mises", "--p", "1", "--cutoff", "8", "--trials", "5"],
        ["kernel-spectrum", "--kmax", "2", "--nystrom", "64", "--trials", "7"],
    ])
    def test_unread_trials_flag_exits_1(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert "unrecognized arguments: --trials" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, kernel, param", [
        (["multiplier-bound", "--kernel", "von-mises", "--p", "0.5", "--theta", "0.3"],
         "von-mises", "theta"),
        (["factorize", "--kernel", "von-mises", "--p", "1", "--cutoff", "8", "--theta", "0.3",
          "--a", "9"], "von-mises", "theta"),
        (["factorize", "--kernel", "power-ratio-window", "--p", "1", "--a", "2"],
         "power-ratio-window", "a"),
        (["multiplier-bound", "--kernel", "shifted-resolvent", "--p", "1", "--theta", "0.5"],
         "shifted-resolvent", "theta"),
    ])
    def test_parameter_the_kernel_does_not_read_exits_1(self, tmp_path, capsys, argv, kernel,
                                                         param):
        out = tmp_path / "r.json"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert f"kernel {kernel!r} takes no parameter {param!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_resolvent_shift_keeps_its_message(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli.main(["factorize", "--kernel", "shifted-resolvent", "--p", "1", "--a", "inf",
                         "--out", str(out)]) == 1
        assert "kernel parameter a must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_unset_kernel_parameter_is_the_catalog_default(self, tmp_path):
        # only a given --a reaches the body; the unset one is the catalog's
        # a = 1, so both runs have the same results
        argv = ["factorize", "--kernel", "shifted-resolvent", "--p", "1", "--cutoff", "4"]
        unset, given = tmp_path / "unset.json", tmp_path / "given.json"
        assert cli.main(argv + ["--out", str(unset)]) == 0
        assert cli.main(argv + ["--a", "1", "--out", str(given)]) == 0
        unset, given = load_report(unset)["body"], load_report(given)["body"]
        assert unset["results"] == given["results"]
        assert "a" not in unset["config"] and given["config"]["a"] == 1.0
