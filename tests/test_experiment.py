"""Monte-Carlo risk harness, table/scatter emission, and parse-back."""

import errno
import json
import re
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from twostage import (
    ExperimentConfig,
    PriorKind,
    PriorSpec,
    SeedSpec,
    TrainingConfig,
    WeibullParams,
    crlb,
    emit_scatter,
    fit_bayes,
    reproduce_table,
    run_mse_experiment,
)
from twostage import estimator as est
from twostage import experiment as exp
from twostage.compression import quantile_plan
from twostage.rng import stream
from twostage.weibull import sample_uniform_order_statistics, weibull_quantile_rows

from oracles import run_errors, weibull_quantile

TINY_TRAIN = TrainingConfig(
    m_theta=12,
    n_obs=150,
    n_quantiles=4,
    ridge=1e-8,
    theta_distribution=PriorSpec(PriorKind.UNIFORM, 1.0, 20.0),
    seed=SeedSpec(303),
)


def tiny_config(**kwargs):
    defaults = dict(
        training=TINY_TRAIN,
        eval_points=((2.0, 2.0), (4.0, 8.0)),
        mc_runs=4,
        emit=frozenset(),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_rejects_eval_point_outside_support(self):
        with pytest.raises(ValueError):
            tiny_config(eval_points=((0.5, 2.0),))

    def test_rejects_unknown_emit(self):
        with pytest.raises(ValueError):
            tiny_config(emit=frozenset({"plots"}))

    def test_from_dict_round_trip(self):
        data = {
            "training": {
                "m_theta": 5,
                "n_obs": 80,
                "n_quantiles": 3,
                "ridge": 1e-8,
                "theta_distribution": {"kind": "reciprocal", "lower": 1, "upper": 20},
                "seed": {"root_seed": 9, "stream_index": 1},
            },
            "eval_points": [[2, 2]],
            "mc_runs": 3,
            "output_dir": "out",
            "emit": ["table"],
        }
        config = exp.config_from_dict(data)
        assert config.training.m_theta == 5
        assert config.training.theta_distribution.kind is PriorKind.RECIPROCAL
        assert config.training.seed == SeedSpec(9, 1)
        assert config.mc_runs == 3
        assert config.emit == frozenset({"table"})

    def test_schema_maps_every_field(self):
        # a field of a type with no JSON type would fail its user, not a test
        def leaves(cls):
            hints = get_type_hints(cls)
            for f in fields(cls):
                hint = hints[f.name]
                yield from leaves(hint) if is_dataclass(hint) else [(cls, f.name, hint)]

        walked = list(leaves(ExperimentConfig))
        assert {TrainingConfig, PriorSpec, SeedSpec} <= {cls for cls, _, _ in walked}
        assert [(cls, name) for cls, name, hint in walked if hint not in exp._JSON_TYPES] == []
        # the fingerprint flattens TrainingConfig by field name
        names = [name for _, name, _ in leaves(TrainingConfig)]
        assert len(set(names)) == len(names)

    def test_readme_config_example_loads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
        config = exp.config_from_dict(json.loads(block))
        assert config == ExperimentConfig(training=TrainingConfig(seed=SeedSpec(1)))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            exp.config_from_dict({"mc_run": 3})
        with pytest.raises(ValueError):
            exp.config_from_dict({"training": {"m": 2}})

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {"training": []},
            {"training": {"m_theta": "x"}},
            {"training": {"m_y": 1.5}},
            {"training": {"n_obs": True}},
            {"training": {"ridge": "1e-8"}},
            {"training": {"seed": {"root_seed": "1"}}},
            {"training": {"theta_distribution": {"kind": 1, "lower": 1, "upper": 20}}},
            {"training": {"theta_distribution": {"kind": "uniform", "lower": None, "upper": 20}}},
            {"mc_runs": None},
            {"output_dir": 3},
            {"eval_points": [2, 2]},
            {"eval_points": [[2, None]]},
            {"eval_points": [[2, 2, 2]]},
            {"emit": [["table"]]},
        ],
    )
    def test_from_dict_rejects_wrong_types(self, data):
        with pytest.raises(ValueError):
            exp.config_from_dict(data)


class TestRunMseExperiment:
    def test_perfect_oracle_stub_has_zero_mse(self, monkeypatch):
        config = tiny_config(eval_points=((5.0, 7.0),), mc_runs=2)
        model = fit_bayes(TINY_TRAIN)
        monkeypatch.setattr(
            exp.est,
            "estimate_from_quantiles",
            lambda model, alphas: np.tile([5.0, 7.0], (len(alphas), 1)),
        )
        report = run_mse_experiment(config, model)
        assert report.rows[0].mse_eta == 0.0
        assert report.rows[0].mse_gamma == 0.0

    def test_doubling_runs_extends_error_stream(self):
        model = fit_bayes(TINY_TRAIN)
        short = run_errors(tiny_config(mc_runs=3), model)
        long = run_errors(tiny_config(mc_runs=6), model)
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a, b[:3])

    def test_crlb_columns_match_module_exactly(self):
        model = fit_bayes(TINY_TRAIN)
        config = tiny_config()
        report = run_mse_experiment(config, model)
        for row, point in zip(report.rows, config.eval_points):
            bounds = crlb(WeibullParams(*point), TINY_TRAIN.n_obs)
            assert (row.crlb_eta, row.crlb_gamma) == bounds
            assert row.efficiency_eta == row.mse_eta / row.crlb_eta

    def test_rejects_quantile_mismatch(self):
        model = fit_bayes(TINY_TRAIN)
        other = tiny_config(
            training=TrainingConfig(
                m_theta=4, n_obs=150, n_quantiles=5, seed=SeedSpec(1)
            )
        )
        with pytest.raises(ValueError):
            run_mse_experiment(other, model)

    def test_shared_quantiles_give_the_same_rows(self):
        # a caller scoring several rules passes one set of evaluation
        # quantiles; they must be the config's own
        model = fit_bayes(TINY_TRAIN)
        config = tiny_config()
        shared = exp.evaluation_quantiles(config)
        assert run_mse_experiment(config, model, quantiles=shared).rows == (
            run_mse_experiment(config, model).rows
        )
        with pytest.raises(ValueError, match="evaluation quantiles must be shaped"):
            run_mse_experiment(config, model, quantiles=shared[:, :3])

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_block_size_does_not_change_results(self, block_rows, monkeypatch):
        # the readout splits the runs into blocks; how many rows a block
        # holds must not change the results
        model = fit_bayes(TINY_TRAIN)
        base = run_mse_experiment(tiny_config(), model)
        monkeypatch.setattr(est, "_BLOCK_ROWS", block_rows)
        other = run_mse_experiment(tiny_config(), model)
        assert base.rows == other.rows

    def test_blocked_run_matches_per_row_estimate(self):
        # more runs than one readout block holds, and not a multiple of it;
        # run r is row r of the point's sub-stream, read out on its own
        runs = est._BLOCK_ROWS + 3
        model = fit_bayes(TINY_TRAIN)
        config = tiny_config(mc_runs=runs, eval_points=((4.0, 8.0),))
        errors = run_errors(config, model)
        plan = quantile_plan(TINY_TRAIN.n_obs, TINY_TRAIN.n_quantiles)
        u = sample_uniform_order_statistics(
            stream(TINY_TRAIN.seed, est.EVAL_STREAM, 0), TINY_TRAIN.n_obs, plan.ranks, runs
        )
        alphas = plan.quantiles(weibull_quantile(u, WeibullParams(4.0, 8.0)))
        expected = np.array(
            [est.estimate_from_quantiles(model, alphas[r : r + 1])[0] for r in range(runs)]
        )
        np.testing.assert_allclose(errors[0], expected - (4.0, 8.0), rtol=1e-12, atol=0)

    def test_one_pass_equals_point_by_point(self):
        # every point simulated and read out in one pass, with readout
        # blocks that straddle points, gives each point's own values
        runs = est._BLOCK_ROWS // 2 + 5
        points = ((2.0, 2.0), (4.0, 8.0), (8.0, 2.0))
        config = tiny_config(mc_runs=runs, eval_points=points)
        model = fit_bayes(TINY_TRAIN)
        ones = np.ones(runs)
        quantiles = exp.evaluation_quantiles(config)
        report = run_mse_experiment(config, model)
        for p, ((eta, gam), row) in enumerate(zip(points, report.rows)):
            path = (est.EVAL_STREAM, p)
            alphas = est.simulated_quantiles(TINY_TRAIN, path, eta * ones, gam * ones)
            np.testing.assert_array_equal(quantiles[p], alphas)
            errors = est.estimate_from_quantiles(model, alphas) - (eta, gam)
            mse = np.mean(errors * errors, axis=0)
            bounds = crlb(WeibullParams(eta, gam), TINY_TRAIN.n_obs)
            assert row == exp.RiskRow(
                true_eta=eta,
                true_gamma=gam,
                crlb_eta=bounds[0],
                crlb_gamma=bounds[1],
                mse_eta=float(mse[0]),
                mse_gamma=float(mse[1]),
                efficiency_eta=float(mse[0]) / bounds[0],
                efficiency_gamma=float(mse[1]) / bounds[1],
            )

    def test_split_halves_agree_within_standard_errors(self):
        model = fit_bayes(TINY_TRAIN)
        errors = run_errors(tiny_config(mc_runs=200, eval_points=((2.0, 2.0),)), model)
        sq = errors[0] ** 2
        first, second = sq[:100], sq[100:]
        for col in (0, 1):
            diff = abs(first[:, col].mean() - second[:, col].mean())
            se = np.sqrt(first[:, col].var() / 100 + second[:, col].var() / 100)
            assert diff <= 4 * se


def test_simulated_quantiles_rejects_a_shape_vector_one_row_short():
    ones = np.ones(TINY_TRAIN.m_theta)
    est.simulated_quantiles(TINY_TRAIN, (est.TRAIN_DATA_STREAM, 0), ones, ones)
    with pytest.raises(ValueError, match="one scale and one shape per row"):
        est.simulated_quantiles(TINY_TRAIN, (est.TRAIN_DATA_STREAM, 0), ones, ones[:-1])


def test_evaluation_set_holds_one_points_draws_at_a_time():
    # the protocol's datasets at 20,000 runs a point: the order statistics
    # and their intermediates of every point at once would take several
    # times the quantiles' own bytes
    config = ExperimentConfig(mc_runs=20_000, emit=frozenset())
    exp.evaluation_quantiles(config)
    tracemalloc.start()
    try:
        quantiles = exp.evaluation_quantiles(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * quantiles.nbytes


class TestScatter:
    def test_row_count_and_determinism(self, tmp_path):
        model = fit_bayes(TINY_TRAIN)
        config = tiny_config(output_dir=tmp_path / "a", emit=frozenset({"scatter"}))
        path = emit_scatter(model, config)
        lines = path.read_text().splitlines()
        assert len(lines) == TINY_TRAIN.m_theta + 1
        config2 = tiny_config(output_dir=tmp_path / "b", emit=frozenset({"scatter"}))
        path2 = emit_scatter(model, config2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_quantile_mismatch(self, tmp_path):
        model = fit_bayes(TINY_TRAIN)
        other = tiny_config(
            training=TrainingConfig(m_theta=4, n_obs=150, n_quantiles=5, seed=SeedSpec(1)),
            output_dir=tmp_path,
        )
        with pytest.raises(ValueError):
            emit_scatter(model, other)

    def test_priors_share_one_scatter_path(self):
        # each prior draws its own parameters, simulated on one path's
        # order statistics
        plan = quantile_plan(TINY_TRAIN.n_obs, TINY_TRAIN.n_quantiles)
        u = sample_uniform_order_statistics(
            stream(TINY_TRAIN.seed, est.SCATTER_STREAM, 2),
            TINY_TRAIN.n_obs,
            plan.ranks,
            TINY_TRAIN.m_theta,
        )
        thetas = []
        for kind in (PriorKind.UNIFORM, PriorKind.RECIPROCAL):
            training = replace(TINY_TRAIN, theta_distribution=PriorSpec(kind, 1.0, 20.0))
            theta, alphas = exp.scatter_datasets(tiny_config(training=training))
            expected = plan.quantiles(weibull_quantile_rows(u, theta[:, 0], theta[:, 1]))
            np.testing.assert_array_equal(alphas, expected)
            thetas.append(theta)
        assert not np.array_equal(*thetas)

    def test_parse_back_lossless(self, tmp_path):
        model = fit_bayes(TINY_TRAIN)
        config = tiny_config(output_dir=tmp_path)
        path = emit_scatter(model, config)
        data = exp.read_scatter(path)
        assert data.shape == (TINY_TRAIN.m_theta, 4)
        # 17 significant digits round-trip float64 exactly
        rewritten = "\n".join(
            ",".join(f"{v:.17g}" for v in row) for row in data
        )
        assert rewritten in path.read_text()


class TestRiskRow:
    ROW = dict(true_eta=2.0, true_gamma=8.0, crlb_eta=0.5, crlb_gamma=0.25,
               mse_eta=1.0, mse_gamma=1.0, efficiency_eta=2.0, efficiency_gamma=4.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["mse_eta", "mse_gamma", "efficiency_eta", "efficiency_gamma"])
    def test_rejects_risk_that_is_not_finite(self, name, value):
        exp.RiskRow(**self.ROW)
        with pytest.raises(ValueError, match=r"at \(2, 8\) must be finite and non-negative"):
            exp.RiskRow(**{**self.ROW, name: value})


class TestReports:
    def test_write_read_round_trip(self, tmp_path):
        model = fit_bayes(TINY_TRAIN)
        report = run_mse_experiment(tiny_config(), model)
        path = exp.write_risk_reports([report], tmp_path / "report.csv")
        parsed = exp.read_risk_reports(path)
        assert len(parsed) == 1
        assert parsed[0].method == report.method
        # file -> objects -> file is byte-identical
        second = exp.write_risk_reports(parsed, tmp_path / "again.csv")
        assert second.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("reader", [exp.read_scatter, exp.read_risk_reports])
def test_readers_reject_foreign_file_and_malformed_rows(reader, tmp_path):
    model = fit_bayes(TINY_TRAIN)
    config = tiny_config(output_dir=tmp_path)
    scatter = emit_scatter(model, config)
    table = exp.write_risk_reports([run_mse_experiment(config, model)], tmp_path / "t.csv")
    own, foreign = (scatter, table) if reader is exp.read_scatter else (table, scatter)
    reader(own)
    with pytest.raises(ValueError, match="not a"):
        reader(foreign)
    header, *rows = own.read_text().splitlines()
    # every row loses its last field, or its last field is not a number
    for tail in ("", ",x"):
        bad = [row.rsplit(",", 1)[0] + tail for row in rows]
        own.write_text("\n".join([header] + bad) + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{own}: malformed row {bad[0]!r}")):
            reader(own)


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", ["model", "table", "scatter"])
    def test_failed_write_keeps_existing_file(self, writer, tmp_path, monkeypatch):
        model = fit_bayes(TINY_TRAIN)
        config = tiny_config(output_dir=tmp_path)
        report = run_mse_experiment(config, model)
        target, write = {
            "model": ("model.txt", lambda path: est.save_model(model, path)),
            "table": ("table1.csv", lambda path: exp.write_risk_reports([report], path)),
            "scatter": ("scatter_bayes.csv", lambda path: emit_scatter(model, config)),
        }[writer]
        path = tmp_path / target
        path.write_text("old\n")
        real_write_text = Path.write_text

        def disk_full(self, data, *args, **kwargs):
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", disk_full)
        with pytest.raises(OSError):
            write(path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == [target]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("table")
    config = ExperimentConfig(
        training=TINY_TRAIN,
        eval_points=exp.TABLE_POINTS,
        mc_runs=2,
        output_dir=out,
        emit=frozenset({"table", "scatter", "model"}),
    )
    reports = reproduce_table(config)
    return out, config, reports


class TestReproduceTable:
    def test_three_method_reports_with_six_rows_each(self, outputs):
        _, _, reports = outputs
        assert [r.method for r in reports] == [
            "bayes-uniform",
            "bayes-reciprocal",
            "minimax",
        ]
        assert sum(len(r.rows) for r in reports) == 18

    def test_crlb_columns_identical_across_methods(self, outputs):
        _, _, reports = outputs
        for a, b in zip(reports[0].rows, reports[1].rows):
            assert (a.crlb_eta, a.crlb_gamma) == (b.crlb_eta, b.crlb_gamma)
        for a, b in zip(reports[0].rows, reports[2].rows):
            assert (a.crlb_eta, a.crlb_gamma) == (b.crlb_eta, b.crlb_gamma)

    def test_emits_all_requested_files(self, outputs):
        out, _, _ = outputs
        names = {p.name for p in out.iterdir()}
        assert "table1.csv" in names
        for label in ("bayes-uniform", "bayes-reciprocal", "minimax"):
            assert f"model_{label}.txt" in names
            assert f"scatter_{label}.csv" in names

    def test_table_file_has_eighteen_rows(self, outputs):
        out, _, reports = outputs
        parsed = exp.read_risk_reports(out / "table1.csv")
        assert [r.method for r in parsed] == [r.method for r in reports]
        assert sum(len(r.rows) for r in parsed) == 18

    def test_saved_models_reload(self, outputs):
        out, _, _ = outputs
        model = est.load_model(out / "model_minimax.txt")
        assert model.method == "minimax"

    def test_rerun_is_byte_identical(self, outputs, tmp_path):
        out, config, _ = outputs
        reproduce_table(replace(config, output_dir=tmp_path))
        for path in out.iterdir():
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()

    def test_rows_equal_standalone_mse_experiment(self, outputs):
        # the table shares one set of simulated datasets between the rules;
        # each rule evaluated on its own must give the same rows exactly
        out, config, reports = outputs
        kinds = {"bayes-uniform": "uniform", "bayes-reciprocal": "reciprocal", "minimax": "uniform"}
        for report in reports:
            training = replace(
                config.training,
                theta_distribution=PriorSpec(kinds[report.method], 1.0, 20.0),
            )
            model = est.load_model(out / f"model_{report.method}.txt")
            alone = run_mse_experiment(replace(config, training=training), model, report.method)
            assert alone.rows == report.rows

    def test_models_equal_standalone_fits(self, outputs, tmp_path):
        # each saved model must equal the model its own config fits from
        # scratch
        out, config, _ = outputs
        variants = (
            ("bayes-uniform", est.fit_bayes, "uniform"),
            ("bayes-reciprocal", est.fit_bayes, "reciprocal"),
            ("minimax", est.fit_minimax, "uniform"),
        )
        for label, fit, kind in variants:
            training = replace(
                config.training, theta_distribution=PriorSpec(kind, 1.0, 20.0)
            )
            alone = est.save_model(fit(training), tmp_path / f"{label}.txt")
            assert alone.read_bytes() == (out / f"model_{label}.txt").read_bytes(), label

    def test_scatter_equals_standalone_emit_scatter(self, outputs, tmp_path):
        # the table shares its scatter datasets between Bayes/uniform and
        # minimax; each rule scattered on its own must give the same file
        out, config, _ = outputs
        kinds = {"bayes-uniform": "uniform", "bayes-reciprocal": "reciprocal", "minimax": "uniform"}
        for label, kind in kinds.items():
            model = est.load_model(out / f"model_{label}.txt")
            training = replace(config.training, theta_distribution=PriorSpec(kind, 1.0, 20.0))
            path = emit_scatter(
                model, replace(config, training=training, output_dir=tmp_path), label
            )
            assert path.read_bytes() == (out / f"scatter_{label}.csv").read_bytes(), label
