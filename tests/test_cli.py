"""Command-line interface: subcommands, config/flag plumbing, exit codes."""

import errno
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from twostage.cli import main
from twostage import estimator as est
from twostage import experiment as exp
from twostage import solvers
from twostage.priors import PriorSpec
from twostage.rng import SeedSpec


@pytest.fixture
def runner():
    return CliRunner()


def tiny_config_file(tmp_path, **overrides):
    data = {
        "training": {
            "m_theta": 10,
            "n_obs": 120,
            "n_quantiles": 4,
            "ridge": 1e-8,
            "theta_distribution": {"kind": "uniform", "lower": 1.0, "upper": 20.0},
            "seed": {"root_seed": 7, "stream_index": 0},
        },
        "eval_points": [[2.0, 2.0]],
        "mc_runs": 2,
        "output_dir": str(tmp_path / "results"),
        "emit": ["table", "model", "scatter"],
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


# flags that some subcommands accept but do not read, with a value for each
UNREAD_FLAGS = [
    ("fit", "--mc-runs", "5"),
    ("evaluate", "--m-theta", "5"),
    ("evaluate", "--ridge", "0.1"),
    ("evaluate", "--prior", "uniform"),
    ("evaluate", "--method", "bayes"),
    ("evaluate", "--n-quantiles", "4"),
    ("crlb", "--seed", "1"),
    ("crlb", "--m-theta", "5"),
    ("crlb", "--n-quantiles", "3"),
    ("crlb", "--ridge", "0.1"),
    ("crlb", "--prior", "uniform"),
    ("crlb", "--method", "minimax"),
    ("crlb", "--mc-runs", "5"),
    ("reproduce-table1", "--prior", "uniform"),
    ("reproduce-table1", "--method", "bayes"),
    ("scatter", "--ridge", "0.1"),
    ("scatter", "--method", "bayes"),
    ("scatter", "--mc-runs", "5"),
    ("scatter", "--n-quantiles", "4"),
]


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS)
def test_rejects_flag_it_does_not_read(runner, command, flag, value):
    result = runner.invoke(main, [command, flag, value])
    assert result.exit_code == 2
    assert "No such option" in result.output and flag in result.output


# a bad value of each checked config field, given by a flag where one exists,
# and the message it fails with
RIDGE = "ridge must be a finite non-negative real"
BAD_VALUES = [
    (["fit", "--m-theta", "0"], {}, "m_theta must be >= 1"),
    (["fit"], {"training": {"m_y": 0}}, "m_y must be >= 1"),
    (["fit", "--n-quantiles", "0"], {}, "n_quantiles must be >= 1"),
    (["fit", "--ridge", "-1"], {}, RIDGE),
    (["fit", "--ridge", "nan"], {}, RIDGE),
    (["fit", "--ridge", "inf"], {}, RIDGE),
    (["reproduce-table1", "--mc-runs", "0"], {}, "mc_runs must be >= 1"),
    (["reproduce-table1"], {"eval_points": []}, "eval_points must be non-empty"),
]


@pytest.mark.parametrize("args, data, message", BAD_VALUES)
def test_bad_value_exits_2(runner, tmp_path, args, data, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "results"), **data}))
    result = runner.invoke(main, [*args, "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert f"invalid input: {message}" in result.output


def tiny_training(cfg_path, **changes):
    """The training config of a config file, with changes."""
    data = json.loads(Path(cfg_path).read_text())
    return replace(exp.config_from_dict(data).training, **changes)


def fitted_fingerprint(runner, tmp_path, *args):
    """The config fingerprint of the model that `fit` writes with args."""
    out = tmp_path / "model.txt"
    result = runner.invoke(main, ["fit", *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return est.load_model(out).config_fingerprint


class TestFlagsReachConfig:
    def test_n_obs(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        expected = tiny_training(cfg, n_obs=200).fingerprint()
        assert fitted_fingerprint(
            runner, tmp_path, "--config", str(cfg), "--n-obs", "200"
        ) == expected

    def test_prior(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        reciprocal = PriorSpec("reciprocal", 1.0, 20.0)
        expected = tiny_training(cfg, theta_distribution=reciprocal).fingerprint()
        assert fitted_fingerprint(
            runner, tmp_path, "--config", str(cfg), "--prior", "reciprocal"
        ) == expected

    def test_mc_runs(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        model_path = tmp_path / "model.txt"
        runner.invoke(main, ["fit", "--config", str(cfg), "--out", str(model_path)])
        report_path = tmp_path / "report.csv"
        result = runner.invoke(
            main,
            ["evaluate", "--config", str(cfg), "--model", str(model_path),
             "--mc-runs", "3", "--out", str(report_path)],
        )
        assert result.exit_code == 0, result.output
        config = replace(exp.config_from_dict(json.loads(cfg.read_text())), mc_runs=3)
        report = exp.run_mse_experiment(config, est.load_model(model_path))
        expected = exp.write_risk_reports([report], tmp_path / "expected.csv")
        assert report_path.read_text() == expected.read_text()


class TestConfigAndFlags:
    def test_flags_complete_a_partial_config(self, runner, tmp_path):
        # the file alone fails n_quantiles < n_obs; with the flag it does not
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"training": {"n_obs": 8, "m_theta": 5}}))
        expected = est.TrainingConfig(n_obs=8, m_theta=5, n_quantiles=3).fingerprint()
        assert fitted_fingerprint(
            runner, tmp_path, "--config", str(cfg), "--n-quantiles", "3"
        ) == expected

    @pytest.mark.parametrize(
        "nested, value",
        [
            ({"theta_distribution": {"kind": "reciprocal"}},
             {"theta_distribution": PriorSpec("reciprocal", 1.0, 20.0)}),
            ({"seed": {"stream_index": 1}}, {"seed": SeedSpec(0, 1)}),
        ],
    )
    def test_partial_nested_object_takes_defaults(self, runner, tmp_path, nested, value):
        cfg = tmp_path / "config.json"
        sizes = {"m_theta": 10, "n_obs": 120, "n_quantiles": 4}
        cfg.write_text(json.dumps({"training": {**sizes, **nested}}))
        expected = est.TrainingConfig(**sizes, **value).fingerprint()
        assert fitted_fingerprint(runner, tmp_path, "--config", str(cfg)) == expected

    def test_seed_flag_keeps_stream_index(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        data = json.loads(cfg.read_text())
        data["training"]["seed"]["stream_index"] = 3
        cfg.write_text(json.dumps(data))
        expected = tiny_training(cfg, seed=SeedSpec(99, 3)).fingerprint()
        assert fitted_fingerprint(
            runner, tmp_path, "--config", str(cfg), "--seed", "99"
        ) == expected


class TestFit:
    def test_writes_model_file(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        out = tmp_path / "model.txt"
        result = runner.invoke(
            main, ["fit", "--config", str(cfg), "--method", "bayes", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        model = est.load_model(out)
        assert model.method == "bayes"
        assert model.n_quantiles == 4

    def test_flags_override_config(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        out = tmp_path / "model.txt"
        result = runner.invoke(
            main,
            ["fit", "--config", str(cfg), "--n-quantiles", "3", "--seed", "99",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert est.load_model(out).n_quantiles == 3

    def test_invalid_config_exits_2(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        result = runner.invoke(
            main, ["fit", "--config", str(cfg), "--n-quantiles", "500"]
        )
        assert result.exit_code == 2  # n_quantiles >= n_obs

    def test_wrongly_typed_config_exits_2(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        data = json.loads(cfg.read_text())
        data["training"]["m_theta"] = "x"
        cfg.write_text(json.dumps(data))
        result = runner.invoke(main, ["fit", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "m_theta" in result.output

    def test_internal_type_error_is_not_invalid_input(self, runner, tmp_path, monkeypatch):
        # a programming error must surface as one, not as bad input
        def broken(config):
            raise TypeError("unsupported operand type(s)")

        monkeypatch.setattr(est, "fit_bayes", broken)
        result = runner.invoke(main, ["fit", "--config", str(tiny_config_file(tmp_path))])
        assert result.exit_code != 2
        assert isinstance(result.exception, TypeError)

    def test_solver_failure_exits_3(self, runner, tmp_path):
        # ridge 0 with more features than rows is rank-deficient
        cfg = tiny_config_file(tmp_path)
        result = runner.invoke(
            main,
            ["fit", "--config", str(cfg), "--ridge", "0", "--m-theta", "3"],
        )
        assert result.exit_code == 3

    def test_minimax_solver_failure_exits_3(self, runner, tmp_path, monkeypatch):
        # a minimax fit that no bound certifies to tolerance
        def uncertified(problem, tolerance=None):
            coeff = solvers.Coefficients(np.zeros(problem.n_features), 1.0, 1.0)
            raise solvers.SolverBudgetError("certified gap 1.000e+00 above tolerance", coeff)

        monkeypatch.setattr(solvers, "fit_minimax", uncertified)
        cfg = tiny_config_file(tmp_path)
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--method", "minimax"])
        assert result.exit_code == 3
        assert "solver failure" in result.output

    @pytest.mark.parametrize("n_obs", ["100000000000000000000", "9223372036854775807"])
    def test_n_obs_beyond_float64_exits_2(self, tmp_path, n_obs):
        # quantile positions are float64, so a larger N is refused by name
        # before the index cast can overflow or warn
        result = run_python("-m", "twostage.cli", "fit", "--m-theta", "5", "--n-quantiles", "3",
                            "--n-obs", n_obs, "--out", str(tmp_path / "model.txt"))
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("invalid input: n_obs")
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr

    def test_unreadable_config_exits_4(self, runner, tmp_path):
        result = runner.invoke(main, ["fit", "--config", str(tmp_path / "missing.json")])
        assert result.exit_code == 4


class TestEvaluate:
    def test_writes_report(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        model_path = tmp_path / "model.txt"
        assert runner.invoke(
            main, ["fit", "--config", str(cfg), "--out", str(model_path)]
        ).exit_code == 0
        report_path = tmp_path / "report.csv"
        result = runner.invoke(
            main,
            ["evaluate", "--config", str(cfg), "--model", str(model_path),
             "--out", str(report_path)],
        )
        assert result.exit_code == 0, result.output
        parsed = exp.read_risk_reports(report_path)
        assert len(parsed[0].rows) == 1

    def test_quantile_mismatch_exits_2(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        model_path = tmp_path / "model.txt"
        runner.invoke(main, ["fit", "--config", str(cfg), "--out", str(model_path)])
        data = json.loads(cfg.read_text())
        data["training"]["n_quantiles"] = 3
        cfg.write_text(json.dumps(data))
        result = runner.invoke(
            main, ["evaluate", "--config", str(cfg), "--model", str(model_path)]
        )
        assert result.exit_code == 2
        assert "model has 4 quantiles, config expects 3" in result.output


    @pytest.mark.parametrize("scale", [1e100, 1e155])
    def test_risk_that_overflows_exits_2(self, runner, tmp_path, scale):
        # the readout at a huge scale overflows: at 1e100 the shape MSE, at
        # 1e155 both MSEs; no report is written and no numpy warning printed
        training = {"m_theta": 50, "n_obs": 200, "n_quantiles": 4}
        fit_cfg, eval_cfg = tmp_path / "fit.json", tmp_path / "eval.json"
        fit_cfg.write_text(json.dumps({"training": training}))
        eval_cfg.write_text(json.dumps({
            "training": {**training, "theta_distribution": {"lower": 1.0, "upper": 1e200}},
            "eval_points": [[scale, 2.0]],
            "mc_runs": 20,
        }))
        model_path, report_path = tmp_path / "model.txt", tmp_path / "report.csv"
        fitted = runner.invoke(main, ["fit", "--config", str(fit_cfg), "--out", str(model_path)])
        assert fitted.exit_code == 0, fitted.output
        result = run_python("-m", "twostage.cli", "evaluate", "--config", str(eval_cfg),
                            "--model", str(model_path), "--out", str(report_path))
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"invalid input: mse and efficiency at ({scale:g}, 2)")
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        assert not report_path.exists()


@pytest.mark.parametrize("args", [["fit", "--method", "bayes"], ["fit", "--method", "minimax"],
                                  ["reproduce-table1"]])
@pytest.mark.parametrize("upper, readout", [(1e100, "shape"), (1e200, "scale")])
def test_fit_that_overflows_exits_2(tmp_path, args, upper, readout):
    # at 1e100 the shape normal matrix overflows, at 1e200 the scale one; no
    # fit may hand on coefficients, an objective or a certificate that is not
    # finite, and no numpy warning is printed
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "training": {"m_theta": 50, "n_obs": 200, "n_quantiles": 4,
                     "theta_distribution": {"lower": 1.0, "upper": upper}},
        "eval_points": [[2.0, 2.0]],
        "mc_runs": 20,
    }))
    out = tmp_path / "out"
    result = run_python("-m", "twostage.cli", *args, "--config", str(cfg), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"invalid input: the {readout} readout overflows float64")
    assert "Traceback" not in result.stderr and "Warning" not in result.stderr
    # --out names the model file of fit and the output directory of the table
    assert not out.is_file() and not any(out.glob("*"))


@pytest.mark.parametrize("args", [["fit", "--method", "bayes"], ["fit", "--method", "minimax"],
                                  ["reproduce-table1"]])
def test_ridge_0_fit_that_overflows_prints_one_line(tmp_path, args):
    # two rows against three shape columns at ridge 0: the normal matrix is
    # singular and its column norms overflow.  The overflow is the error; a
    # least-squares fallback on such columns makes LAPACK print DLASCL
    # errors itself, past numpy's warning filters
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "training": {"m_theta": 2, "n_obs": 120, "n_quantiles": 1, "ridge": 0.0,
                     "theta_distribution": {"lower": 1.0, "upper": 1e100}},
        "eval_points": [[2.0, 2.0]],
        "mc_runs": 20,
    }))
    out = tmp_path / "out"
    result = run_python("-m", "twostage.cli", *args, "--config", str(cfg), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert result.stderr.splitlines() == [
        "invalid input: the shape readout overflows float64: feature column norms must be finite"
    ]
    assert "DLASCL" not in result.stdout + result.stderr
    assert not out.is_file() and not any(out.glob("*"))


# a config of each malformed shape and the message naming its key
MALFORMED_CONFIGS = [
    ({"eval_points": 5}, "config key 'eval_points' must be an array, got 5"),
    ({"training": {"theta_distribution": 3}},
     "training key 'theta_distribution' must be an object, got 3"),
    ({"training": {"theta_distribution": {"kindx": 1}}},
     "unknown theta_distribution keys: ['kindx']"),
    ({"training": {"seed": {"root_seed": True}}},
     "seed key 'root_seed' must be an integer, got True"),
    ([1], "config must be an object, got [1]"),
    ({"emit": "table"}, "config key 'emit' must be an array, got 'table'"),
]


@pytest.mark.parametrize("data, message", MALFORMED_CONFIGS)
def test_malformed_config_exits_2(runner, tmp_path, data, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    result = runner.invoke(main, ["reproduce-table1", "--config", str(cfg),
                                  "--out", str(tmp_path / "results")])
    assert result.exit_code == 2, result.output
    assert result.output == f"invalid input: {message}\n"


@pytest.mark.parametrize("command", ["evaluate", "scatter"])
def test_quantile_count_comes_from_model(runner, tmp_path, command):
    cfg = tiny_config_file(tmp_path)
    model_path = tmp_path / "model.txt"
    runner.invoke(main, ["fit", "--config", str(cfg), "--out", str(model_path)])
    data = json.loads(cfg.read_text())
    args = [command, "--config", str(cfg), "--model", str(model_path),
            "--out", str(tmp_path / "out")]
    del data["training"]["n_quantiles"]
    cfg.write_text(json.dumps(data))
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    # a config that names another count contradicts the model
    data["training"]["n_quantiles"] = 3
    cfg.write_text(json.dumps(data))
    assert runner.invoke(main, args).exit_code == 2


class TestCrlb:
    def test_prints_bounds(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        result = runner.invoke(main, ["crlb", "--config", str(cfg)])
        assert result.exit_code == 0
        assert "crlb_eta" in result.output
        assert len(result.output.strip().splitlines()) >= 2

    def test_n_obs_below_default_quantile_count(self, runner):
        # the bound needs no compression, so N need not exceed n_quantiles
        result = runner.invoke(main, ["crlb", "--n-obs", "5"])
        assert result.exit_code == 0, result.output
        assert "2.00000e+00,2.00000e+00,2.21733e-01,4.86342e-01" in result.output

    def test_default_grid_without_config(self, runner):
        result = runner.invoke(main, ["crlb", "--n-obs", "10000"])
        assert result.exit_code == 0
        # six benchmark points plus header
        assert len(result.output.strip().splitlines()) == 7
        assert "1.10866e-04" in result.output

    def test_config_n_obs_below_default_quantile_count(self, runner, tmp_path):
        # N from the file is no more checked against n_quantiles than --n-obs
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"training": {"n_obs": 5}}))
        result = runner.invoke(main, ["crlb", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "2.00000e+00,2.00000e+00,2.21733e-01,4.86342e-01" in result.output

    @pytest.mark.parametrize("training", [{"n_obs": "5"}, {"n_obs": 5, "n_quantiles": 2.5}])
    def test_config_sizes_of_wrong_type_exit_2(self, runner, tmp_path, training):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"training": training}))
        result = runner.invoke(main, ["crlb", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "must be an integer" in result.output

    @pytest.mark.parametrize(
        "lower, upper, point",
        [(1.0, 1e200, [1e180, 2.0]), (1e-200, 20.0, [1e-170, 2.0])],
        ids=["information-underflows", "information-overflows"],
    )
    def test_bound_out_of_float64_range_exits_2(self, tmp_path, lower, upper, point):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "training": {"theta_distribution": {"lower": lower, "upper": upper}},
            "eval_points": [point],
        }))
        result = run_python("-m", "twostage.cli", "crlb", "--config", str(cfg))
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("invalid input: no Cramér-Rao bound")
        assert repr(point[0]) in result.stderr
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr

    def test_failed_out_write_keeps_existing_file(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "bounds.csv"
        path.write_text("old\n")
        real_write_text = Path.write_text

        def disk_full(self, data, *args, **kwargs):
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", disk_full)
        result = runner.invoke(main, ["crlb", "--n-obs", "100", "--out", str(path)])
        assert result.exit_code == 4
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bounds.csv"]


class TestReproduceTable:
    def test_end_to_end(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path, eval_points=[[2.0, 2.0], [8.0, 8.0]])
        out_dir = tmp_path / "results"
        result = runner.invoke(
            main, ["reproduce-table1", "--config", str(cfg), "--out", str(out_dir)]
        )
        assert result.exit_code == 0, result.output
        parsed = exp.read_risk_reports(out_dir / "table1.csv")
        assert sum(len(r.rows) for r in parsed) == 6
        assert (out_dir / "scatter_minimax.csv").exists()
        assert result.output.startswith((out_dir / "table1.csv").read_text())

    def test_does_not_echo_a_table_it_did_not_write(self, runner, tmp_path):
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        (out_dir / "table1.csv").write_text("STALE TABLE FROM AN EARLIER RUN\n")
        cfg = tiny_config_file(tmp_path, emit=["model"])
        result = runner.invoke(
            main, ["reproduce-table1", "--config", str(cfg), "--out", str(out_dir)]
        )
        assert result.exit_code == 0, result.output
        assert "STALE" not in result.output
        assert result.output.startswith("3 rows evaluated")


class TestScatter:
    def test_emits_rows(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        model_path = tmp_path / "model.txt"
        runner.invoke(main, ["fit", "--config", str(cfg), "--out", str(model_path)])
        result = runner.invoke(
            main,
            ["scatter", "--config", str(cfg), "--model", str(model_path),
             "--out", str(tmp_path / "sc")],
        )
        assert result.exit_code == 0, result.output
        data = exp.read_scatter(tmp_path / "sc" / "scatter_bayes.csv")
        assert data.shape == (10, 4)


class TestEstimate:
    @pytest.fixture
    def model_and_data(self, runner, tmp_path):
        cfg = tiny_config_file(tmp_path)
        model_path = tmp_path / "model.txt"
        assert runner.invoke(
            main, ["fit", "--config", str(cfg), "--out", str(model_path)]
        ).exit_code == 0
        y = 3.0 * np.random.default_rng(8).weibull(2.0, 200)
        return model_path, y

    def test_prints_estimate(self, runner, tmp_path, model_and_data):
        model_path, y = model_and_data
        # the fixture's 10-draw model reads a negative shape off y, which
        # exits 3; 200 draws give an estimate in range
        refit = ["fit", "--config", str(tiny_config_file(tmp_path)), "--m-theta", "200",
                 "--n-obs", "1000", "--out", str(model_path)]
        assert runner.invoke(main, refit).exit_code == 0
        data = tmp_path / "y.txt"
        data.write_text("\n".join(f"{v:.17g}" for v in y) + "\n")
        result = runner.invoke(
            main, ["estimate", "--model", str(model_path), "--data", str(data)]
        )
        assert result.exit_code == 0, result.output
        header, line = result.output.strip().splitlines()
        assert header == "est_eta,est_gamma"
        got = tuple(float(tok) for tok in line.split(","))
        assert got == est.estimate(est.load_model(model_path), y)

    def test_out_of_range_estimate_exits_3(self, runner, tmp_path):
        # a small Bayes model reads a negative shape off Weibull(3, 2) data
        model_path, data = tmp_path / "model.txt", tmp_path / "y.txt"
        fit = ["fit", "--m-theta", "50", "--n-obs", "500", "--n-quantiles", "5",
               "--seed", "0", "--out", str(model_path)]
        assert runner.invoke(main, fit).exit_code == 0
        y = 3.0 * np.random.default_rng(1).weibull(2.0, 500)
        data.write_text("\n".join(f"{v:.17g}" for v in y) + "\n")
        result = runner.invoke(
            main, ["estimate", "--model", str(model_path), "--data", str(data)]
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        _, gamma_hat = est.estimate(est.load_model(model_path), y)
        assert gamma_hat < 0
        assert f"est_gamma = {gamma_hat:.17g}" in result.stderr

    def test_non_positive_data_exits_2(self, runner, tmp_path, model_and_data):
        model_path, y = model_and_data
        y[:50] *= -1
        data = tmp_path / "y.txt"
        data.write_text(" ".join(f"{v:.17g}" for v in y))
        result = runner.invoke(
            main, ["estimate", "--model", str(model_path), "--data", str(data)]
        )
        assert result.exit_code == 2
        assert "positive and finite" in result.output

    def test_version_1_model_exits_2(self, runner, tmp_path, model_and_data):
        model_path, y = model_and_data
        text = model_path.read_text()
        model_path.write_text(text.replace("ts_model_version: 2\n", "ts_model_version: 1\n"))
        data = tmp_path / "y.txt"
        data.write_text(" ".join(f"{v:.17g}" for v in y))
        result = runner.invoke(
            main, ["estimate", "--model", str(model_path), "--data", str(data)]
        )
        assert result.exit_code == 2
        assert "unsupported model version '1'" in result.output and "refit" in result.output

    def test_model_missing_header_key_exits_2(self, runner, tmp_path, model_and_data):
        model_path, y = model_and_data
        lines = model_path.read_text().splitlines()
        model_path.write_text(
            "\n".join(l for l in lines if not l.startswith("shape_objective:")) + "\n"
        )
        data = tmp_path / "y.txt"
        data.write_text(" ".join(f"{v:.17g}" for v in y))
        result = runner.invoke(
            main, ["estimate", "--model", str(model_path), "--data", str(data)]
        )
        assert result.exit_code == 2
        assert "model.txt" in result.output and "shape_objective" in result.output


def run_python(*args, **environ):
    """Run a fresh interpreter on this checkout's sources with ``args``,
    adding ``environ`` to the environment."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_start_up_imports_no_scipy():
    # the solvers run on numpy alone; scipy is a test-only dependency
    code = (
        "import sys, twostage, twostage.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
