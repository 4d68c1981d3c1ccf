"""Self-test of the benchmark's tracer, run on a small protocol:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from twostage import estimator, experiment, parallel, rng  # noqa: E402

M, N, RUNS = 100, 1000, 40


def small_config(out: Path):
    training = estimator.TrainingConfig(m_theta=M, n_obs=N, seed=rng.SeedSpec(1))
    return experiment.ExperimentConfig(training=training, mc_runs=RUNS, output_dir=out)


def traced_table(out: Path):
    tracer = Tracer()
    tracer.trace(lambda: experiment.reproduce_table(small_config(out)))
    return tracer, tracer.wall_s


@pytest.fixture
def estimate_trace():
    """A single-threaded trace: one pass of ``estimate`` over small datasets."""
    config = estimator.TrainingConfig(m_theta=M, n_obs=N, seed=rng.SeedSpec(1))
    model = estimator.fit_bayes(config)
    datasets = workloads.weibull_datasets(1, workloads.TAG_SMALL, [200, 300, 5000] * 10)
    tracer = Tracer()
    tracer.trace(lambda: workloads.time_pass(model, datasets))
    return tracer


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    experiment.reproduce_table(small_config(base / "plain"))
    first = traced_table(base / "traced1")
    second = traced_table(base / "traced2")
    return base, first, second


def test_single_thread_self_times_sum_to_traced_wall(estimate_trace):
    s = estimate_trace.summary()
    assert s.threads == 1 and s.nested
    assert s.calls["estimator.estimate"] == 30
    slack = bench.SELF_TIME_SLACK[0] + bench.SELF_TIME_SLACK[1] * estimate_trace.wall_s
    assert abs(s.total_self() - estimate_trace.wall_s) <= slack
    assert bench.trace_faults(s, estimate_trace.wall_s) == []


def test_pool_overlap_is_bounded_and_only_under_the_pool(runs):
    _, (tracer, wall), _ = runs
    s = tracer.summary()
    assert s.nested and s.calls["experiment.reproduce_table"] == 1
    assert s.stray_overlap_s <= bench.OVERLAP_SLACK_S
    assert s.same_thread_overlap_s <= bench.OVERLAP_SLACK_S
    assert 0 <= s.concurrency_s <= s.concurrency_bound_s
    assert bench.trace_faults(s, wall) == []


def test_trace_faults_catch_lost_time(estimate_trace):
    # the timer around the root span saw 10 ms that no span holds
    faults = bench.trace_faults(estimate_trace.summary(), estimate_trace.wall_s + 0.01)
    assert any("self times sum" in f for f in faults)


def test_trace_faults_catch_overlap_on_one_thread(estimate_trace):
    # each estimate span now ends after the next one starts, as spans would
    # if the tracer counted time twice
    nid = estimate_trace.names.index("estimator.estimate")
    for sid, name in enumerate(estimate_trace.span_name):
        if name == nid:
            estimate_trace.end[sid] += 1e-4
    faults = bench.trace_faults(estimate_trace.summary(), estimate_trace.wall_s)
    assert any("spans of one thread overlap" in f for f in faults)
    assert any("outside the pool" in f for f in faults)


def test_traced_and_untraced_outputs_are_byte_identical(runs):
    base, _, _ = runs
    assert workloads.same_files(base / "plain", base / "traced1") == []
    assert len(list((base / "plain").iterdir())) == 7


def test_counts_repeat_exactly_and_match_the_protocol(runs):
    _, (t1, _), (t2, _) = runs
    s1, s2 = t1.summary(), t2.summary()
    assert s1.counts == s2.counts
    assert s1.calls == s2.calls
    # per rule variant: training and scatter datasets, evaluation runs and
    # two prior draws of M values each for training and for scatter
    points = len(experiment.TABLE_POINTS)
    assert s1.counts["rng.uniforms"] == 3 * (2 * M * N + points * RUNS * N + 4 * M)
    assert s1.counts["weibull.values"] == 3 * (2 * M * N + points * RUNS * N)
    assert s1.counts["experiment.mc_runs"] == 3 * points * RUNS
    assert s1.calls["estimator.estimate"] == 3 * (points * RUNS + M)


def test_mse_check_flags_reports_beyond_its_factor(runs, monkeypatch):
    base, _, _ = runs
    out = base / "plain"
    config = small_config(out)
    monkeypatch.setattr(workloads, "MSE_RUNS", 20)
    reports = experiment.read_risk_reports(out / "table1.csv")
    models = [estimator.load_model(out / f"model_{r.method}.txt") for r in reports]
    mse = workloads.model_mse(config, models, 1)

    def reported(factor):
        """The reports with each MSE set to factor x the check's own."""

        def row_with(m, row):
            p = config.eval_points.index((row.true_eta, row.true_gamma))
            return replace(row, mse_eta=factor * mse[m, p, 0], mse_gamma=factor * mse[m, p, 1])

        return [
            replace(r, rows=tuple(row_with(m, row) for row in r.rows))
            for m, r in enumerate(reports)
        ]

    assert workloads.mse_disagreements(config, reported(1.7), out, 1) == []
    assert workloads.mse_disagreements(config, reported(1 / 1.7), out, 1) == []
    assert len(workloads.mse_disagreements(config, reported(1.8), out, 1)) == 2 * 18
    assert len(workloads.mse_disagreements(config, reported(1 / 1.8), out, 1)) == 2 * 18


def test_wrappers_are_removed_after_tracing(runs):
    assert experiment.reproduce_table.__module__ == "twostage.experiment"
    assert not hasattr(experiment.reproduce_table, "__wrapped__")
    assert not hasattr(estimator.estimate, "__wrapped__")


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.delitem(sys.modules, "twostage.parallel")
    tracer = Tracer()
    config = estimator.TrainingConfig(m_theta=20, n_obs=200, seed=rng.SeedSpec(3))
    tracer.trace(lambda: estimator.fit_bayes(config))
    s = tracer.summary()
    assert s.absent_layers == ["parallel"]
    metrics, absent = bench.layer_metrics(s, 0.0, 0, 0, 1.0, 1.0)
    assert {"parallel.map_calls", "parallel.map_s", "parallel.self_s"} <= set(absent)
    assert "rng.uniforms" not in absent
    assert metrics["rng.uniforms"][0] == 20 * 200 + 2 * 20
    assert parallel.indexed_map is sys.modules["twostage.estimator"].indexed_map


def test_metric_names_match_benchmark_json(runs):
    _, (tracer, wall), _ = runs
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = bench.layer_metrics(tracer.summary(), 1.0, 210, 165, wall, wall)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in metrics.values()]
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(bench.END_TO_END.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
