import hashlib
import json
import re

import numpy as np
import pytest

from aggtherm.cli import RunConfig, cmd_dispatch, load_config_file
from aggtherm.dataio import parse_dataset


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cluster.csv"
    code = cmd_dispatch(
        ["generate", "--out", str(path), "--zones", "4", "--periods", "120",
         "--noise", "0.15", "--seed", "5", "--t-occ", "12"]
    )
    assert code == 0
    return path


class TestDefaults:
    def test_reference_defaults(self):
        cfg = RunConfig()
        assert cfg.order == 2
        assert cfg.lam == 100.0
        assert cfg.t_occ == 48
        assert cfg.tol == 1e-6
        assert cfg.train_fraction == 0.75
        assert cfg.mode == "plain"


class TestGenerate:
    def test_writes_parseable_csv(self, data_csv):
        ds = parse_dataset(data_csv, M=2)
        assert ds.K == 4 and ds.T == 120

    def test_truth_out_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ta = tmp_path / "truth.json"
        assert cmd_dispatch(["generate", "--out", str(a), "--zones", "2",
                             "--periods", "30", "--seed", "3", "--t-occ", "6",
                             "--truth-out", str(ta)]) == 0
        assert cmd_dispatch(["generate", "--out", str(b), "--zones", "2",
                             "--periods", "30", "--seed", "3", "--t-occ", "6"]) == 0
        assert a.read_bytes() == b.read_bytes()
        truth = json.loads(ta.read_text())
        assert len(truth["xi"]) == 2
        assert abs(sum(truth["xi"]) - 1.0) < 1e-12


class TestFit:
    def test_plain_fit_reports(self, data_csv, tmp_path):
        out = tmp_path / "plain"
        code = cmd_dispatch(["fit", "--data", str(data_csv), "--mode", "plain",
                             "--lambda", "10", "--t-occ", "12", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "fit_result.json").read_text())
        assert doc["converged"] is True
        assert len(doc["gap_trace"]) == doc["iterations"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rmse"] > 0
        lines = (out / "predictions.csv").read_text().strip().split("\n")
        assert lines[0] == "period,real,predicted"
        assert len(lines) == 121

    def test_private_fit_writes_transcript(self, data_csv, tmp_path):
        out = tmp_path / "priv"
        code = cmd_dispatch(["fit", "--data", str(data_csv), "--mode", "private",
                             "--lambda", "10", "--t-occ", "12", "--seed", "5",
                             "--out-dir", str(out)])
        assert code == 0
        assert (out / "transcript.jsonl").exists()
        doc = json.loads((out / "fit_result.json").read_text())
        assert doc["config"]["mode"] == "private"
        assert len(doc["gap_trace"]) <= 5

    def test_seven_zone_private_fit_converges_fast(self, tmp_path):
        data = tmp_path / "seven.csv"
        assert cmd_dispatch(["generate", "--out", str(data), "--zones", "7",
                             "--periods", "480", "--noise", "0.2", "--seed", "7"]) == 0
        out = tmp_path / "seven_fit"
        code = cmd_dispatch(["fit", "--data", str(data), "--mode", "private",
                             "--lambda", "100", "--order", "2", "--seed", "7",
                             "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "fit_result.json").read_text())
        assert doc["converged"] is True
        assert len(doc["gap_trace"]) <= 3

    def test_same_seed_same_report(self, data_csv, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cmd_dispatch(["fit", "--data", str(data_csv), "--mode", "private",
                                 "--lambda", "10", "--t-occ", "12", "--seed", "9",
                                 "--out-dir", str(out)]) == 0
            outs.append((out / "fit_result.json").read_bytes())
        assert outs[0] == outs[1]


class TestCompare:
    def test_modes_agree_within_tenth_percent(self, data_csv, tmp_path):
        out = tmp_path / "compare.json"
        code = cmd_dispatch(["compare", "--data", str(data_csv), "--lambda", "10",
                             "--t-occ", "12", "--seed", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["max_relative_error"] < 1e-3
        assert set(doc["parameters"]) == {"xi", "alpha", "beta", "gamma", "theta",
                                          "tau_occ_free"}
        assert doc["plain_warnings"] == [] and doc["private_warnings"] == []


class TestCounting:
    def test_paper_verdict(self, capsys):
        assert cmd_dispatch(["counting", "--K", "6", "--L", "3", "--T", "48",
                             "--order", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["type2"]["under_determined"] is True
        assert doc["type1"]["under_determined"] is True
        assert doc["type3"]["over_determined"] is True

    def test_out_file(self, tmp_path):
        out = tmp_path / "counting.json"
        assert cmd_dispatch(["counting", "--K", "5", "--L", "1", "--T", "4",
                             "--order", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["type2"]["under_determined"] is False

    def test_size_below_one_exit_code(self, tmp_path, capsys):
        out = tmp_path / "counting.json"
        assert cmd_dispatch(["counting", "--K", "0", "--L", "1", "--T", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == "error: K must be >= 1, got 0"
        assert not out.exists()


class TestAttackCommand:
    def test_small_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        summary = tmp_path / "summary.json"
        code = cmd_dispatch(["attack", "--K", "3", "--L", "2", "--T-list", "1,2",
                             "--scenarios", "2", "--max-iter", "40",
                             "--out", str(out), "--summary-out", str(summary)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "case_T,scenario,relative_error,residual,time_seconds,converged"
        assert len(lines) == 5
        doc = json.loads(summary.read_text())
        assert set(doc) == {"1", "2"}

    def test_bad_t_list(self, tmp_path):
        code = cmd_dispatch(["attack", "--T-list", "1,x", "--out",
                             str(tmp_path / "s.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "flags, err",
        [(["--scenarios", "0"], "scenarios must be >= 1, got 0"),
         (["--T-list", "0"], "T must be >= 1, got 0"),
         (["--T-list", "1", "--scenarios", "1", "--max-iter", "0"], "max_iter must be >= 1, got 0")],
    )
    def test_size_below_one_exit_code(self, tmp_path, capsys, flags, err):
        out = tmp_path / "s.csv"
        assert cmd_dispatch(["attack", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {err}"
        assert not out.exists()


class TestEvaluate:
    def test_holdout_metrics(self, data_csv, tmp_path):
        out = tmp_path / "eval"
        code = cmd_dispatch(["evaluate", "--data", str(data_csv), "--lambda", "10",
                             "--t-occ", "12", "--train-fraction", "0.75",
                             "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "evaluation.json").read_text())
        assert doc["train_periods"] == 90
        assert doc["test_periods"] == 30
        assert doc["metrics"]["r2"] <= 1.0


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, data_csv, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lambda = 7.5\nt_occ = 12\nseed = 4  # comment\n")
        values = load_config_file(cfg_file)
        assert values == {"lam": 7.5, "t_occ": 12, "seed": 4}

        out = tmp_path / "cfgfit"
        code = cmd_dispatch(["fit", "--data", str(data_csv), "--config", str(cfg_file),
                             "--lambda", "10", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "fit_result.json").read_text())
        assert doc["config"]["lam"] == 10.0  # flag wins
        assert doc["config"]["t_occ"] == 12  # file beats default
        assert doc["config"]["tol"] == 1e-6  # default

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("penalty = 7\n")
        with pytest.raises(ValueError, match="unknown option"):
            load_config_file(cfg_file)

    @pytest.mark.parametrize("key", ["w_mean", "w_sd"])
    def test_encryption_distribution_is_not_an_option(self, data_csv, tmp_path, capsys, key):
        """The encryption columns' distribution is fixed: neither a flag nor a
        config key sets it."""
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text(f"{key} = 0.1\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{cfg_file}:1: unknown option '{key}'") + "$"):
            load_config_file(cfg_file)
        flag = "--" + key.replace("_", "-")
        out = tmp_path / "gone"
        assert cmd_dispatch(["fit", "--data", str(data_csv), flag, "0.1", "--out-dir", str(out)]) == 2
        assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err
        assert not out.exists()


class TestErrors:
    def test_missing_file_exit_code(self, tmp_path):
        assert cmd_dispatch(["fit", "--data", str(tmp_path / "nope.csv")]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cmd_dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_malformed_csv_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,outdoor_c\n2020-01-01,1\n")
        assert cmd_dispatch(["fit", "--data", str(bad)]) == 2

    def test_generate_zero_t_occ(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cmd_dispatch(["generate", "--out", str(out), "--t-occ", "0"]) == 2
        assert capsys.readouterr().err.strip() == "error: T_occ must be >= 1, got 0"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["plain", "private"])
    def test_fit_zero_t_occ(self, data_csv, tmp_path, capsys, mode):
        out = tmp_path / "fit"
        code = cmd_dispatch(["fit", "--data", str(data_csv), "--mode", mode,
                             "--t-occ", "0", "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: T_occ must be >= 1, got 0"
        assert not (out / "fit_result.json").exists()

    @pytest.mark.parametrize("mode", ["plain", "private"])
    @pytest.mark.parametrize(
        "flags, err",
        [(["--lambda", "-1"], "penalty lambda must be finite and >= 0, got -1.0"),
         (["--lambda", "nan"], "penalty lambda must be finite and >= 0, got nan"),
         (["--tol", "nan"], "tol must be > 0, got nan")],
    )
    def test_fit_bad_penalty_or_tol(self, data_csv, tmp_path, capfd, mode, flags, err):
        out = tmp_path / "fit"
        code = cmd_dispatch(["fit", "--data", str(data_csv), "--mode", mode, "--t-occ", "12",
                             *flags, "--out-dir", str(out)])
        assert code == 2
        captured = capfd.readouterr()
        assert (captured.out, captured.err.strip()) == ("", f"error: {err}")
        assert not (out / "fit_result.json").exists()



class TestReportBytes:
    def test_every_report_file_is_pinned(self, tmp_path, capsys):
        """One sha256 over every JSON/JSONL/CSV file that generate, fit in both
        modes, evaluate, compare and counting write for one seeded K=3 dataset:
        a change to how a report is serialized shows here.  Attack output is
        left out because it records wall times."""
        data = tmp_path / "data.csv"
        common = ["--t-occ", "6", "--seed", "1"]
        runs = [
            ["generate", "--out", str(data), "--zones", "3", "--periods", "120",
             "--truth-out", str(tmp_path / "truth.json"), *common],
            ["fit", "--data", str(data), "--mode", "plain", "--out-dir",
             str(tmp_path / "plain"), *common],
            ["fit", "--data", str(data), "--mode", "private", "--out-dir",
             str(tmp_path / "private"), *common],
            ["evaluate", "--data", str(data), "--out-dir", str(tmp_path / "eval"), *common],
            ["compare", "--data", str(data), "--out", str(tmp_path / "compare.json"), *common],
            ["counting", "--K", "3", "--L", "2", "--T", "120",
             "--out", str(tmp_path / "counting.json")],
        ]
        for argv in runs:
            assert cmd_dispatch(argv) == 0, argv
        capsys.readouterr()
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        assert [p.relative_to(tmp_path).as_posix() for p in files] == [
            "compare.json", "counting.json", "data.csv",
            "eval/evaluation.json", "eval/fit_result.json", "eval/predictions.csv",
            "plain/fit_result.json", "plain/metrics.json", "plain/predictions.csv",
            "private/fit_result.json", "private/metrics.json", "private/predictions.csv",
            "private/transcript.jsonl", "truth.json",
        ]
        h = hashlib.sha256()
        for p in files:
            h.update(p.relative_to(tmp_path).as_posix().encode() + b"\0" + p.read_bytes())
        assert h.hexdigest() == "83c424de30cff41f95bf76f431d45ed9783e5e5b6dca35289d6eb5470ab8daa8"
