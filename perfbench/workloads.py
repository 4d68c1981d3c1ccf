"""The benchmark's workloads: program-side set-up, one repetition of the timed
body, and the output checks.

Every workload drives the package from outside through its public functions
with their default arguments; functions are looked up on their module at
call time so that the tracer's wrappers are seen.  Inputs that the program
does not make itself come from ``numpy.random.default_rng([seed, tag])``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from twostage import estimator, experiment, rng

PROTOCOL_SEED = 1  # root seed of the paper protocol
CONFIRM_SEED = 2  # held back for confirming claims made on the protocol seed

# the paper's Table 1: Bayes/uniform MSE (scale, shape) at N = 10000.  It is
# one training realization, so like the acceptance gate the benchmark holds
# only the protocol seed to it: 2 of 25 other seeds exceed its factors.
PUBLISHED_BAYES_UNIFORM_MSE = {
    (2.0, 2.0): (2.58e-4, 5.77e-2),
    (2.0, 8.0): (1.11e-5, 5.61e-2),
    (4.0, 2.0): (6.74e-4, 1.05e-1),
    (4.0, 8.0): (3.84e-5, 6.40e-2),
    (8.0, 2.0): (2.26e-3, 1.89e-1),
    (8.0, 8.0): (1.58e-4, 7.901e-2),
}
GATE_FACTOR = (5.0, 10.0)  # acceptance-gate factors (scale, shape)

# Every seed: each reported MSE must agree with the MSE the run's own model
# files give on MSE_RUNS datasets per table point that the benchmark draws
# itself.  The log of the ratio has a standard deviation of about
# sqrt(2/MSE_RUNS + 2/mc_runs) = 0.1, so MSE_FACTOR is over 5 of them.
MSE_RUNS = 250
MSE_FACTOR = 1.75

# Estimate-latency probe of table1, between the two repetitions of its timed
# body and within --seconds: passes of each of its three fitted models over
# PROBE_PER_POINT datasets of the protocol's N at each of the table's points,
# the calls its MC evaluation makes.  The probe also keeps the repetitions
# apart, so that one burst of host load seldom slows both.
PROBE_SECONDS = 12.0
PROBE_PER_POINT = 10

# estimate-raw: per pass, 3 small datasets for every 2 large ones, so the
# median call lies inside the small group rather than on the gap between
SMALL_SIZES = np.linspace(100, 400, 60).round().astype(int)
LARGE_SIZES = np.geomspace(1e4, 1e5, 40).round().astype(int)
LARGE_N = 10_000
# large-N estimates must lie within these absolute errors of the truth
TOLERANCE = {"scale": 0.25, "shape": 1.5}
PARAM_RANGE = (2.0, 8.0)

# input tags for numpy.random.default_rng([seed, tag])
TAG_SMALL, TAG_LARGE, TAG_PROBE, TAG_MSE = 1, 2, 3, 4


@dataclass
class Outcome:
    """One operation of the timed body: what it returned, what it wrote and
    per-call latencies if it timed any."""

    value: object = None
    out_dir: Path | None = None
    latencies_ns: list = field(default_factory=list)
    calls: int = 1


def weibull_datasets(seed: int, tag: int, sizes) -> list[tuple[float, float, np.ndarray]]:
    """(scale, shape, data) per size, parameters uniform on PARAM_RANGE."""
    gen = np.random.default_rng([seed, tag])
    out = []
    for n in sizes:
        scale, shape = gen.uniform(*PARAM_RANGE, size=2)
        out.append((float(scale), float(shape), scale * gen.weibull(shape, int(n))))
    return out


def time_pass(model, datasets):
    """Apply ``estimator.estimate`` once to each dataset; returns per-call
    latencies in ns and the estimates."""
    latencies, estimates = [], []
    clock = time.perf_counter_ns
    for _, _, y in datasets:
        t0 = clock()
        estimates.append(estimator.estimate(model, y))
        latencies.append(clock() - t0)
    return latencies, estimates


def same_files(a: Path, b: Path) -> list[str]:
    """Names of files that differ between two output directories."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [
        n
        for n in names
        if not ((a / n).is_file() and (b / n).is_file())
        or (a / n).read_bytes() != (b / n).read_bytes()
    ]


def model_mse(config, models, seed: int) -> np.ndarray:
    """MSE (scale, shape) of each model at each of the config's points over
    MSE_RUNS datasets drawn here, one at a time; models x points x 2."""
    points = config.eval_points
    gen = np.random.default_rng([seed, TAG_MSE])
    squared = np.zeros((len(models), len(points), 2))
    for p, (scale, shape) in enumerate(points):
        for _ in range(MSE_RUNS):
            y = scale * gen.weibull(shape, config.training.n_obs)
            for m, model in enumerate(models):
                squared[m, p] += np.subtract(estimator.estimate(model, y), (scale, shape)) ** 2
    return squared / MSE_RUNS


def mse_disagreements(config, reports, out: Path, seed: int) -> list[str]:
    """Reported MSEs more than MSE_FACTOR away from those of the written
    models on fresh datasets."""
    models = [estimator.load_model(out / f"model_{r.method}.txt") for r in reports]
    mse = model_mse(config, models, seed)
    points = config.eval_points
    fails = []
    for m, r in enumerate(reports):
        for row in r.rows:
            p = points.index((row.true_eta, row.true_gamma))
            for got, want in zip((row.mse_eta, row.mse_gamma), mse[m, p]):
                if not max(got / want, want / got) <= MSE_FACTOR:
                    fails.append(
                        f"{r.method} {points[p]}: reported MSE {got:.3e}, "
                        f"its model gives {want:.3e} on fresh data"
                    )
    return fails


class Table1:
    """The paper's full protocol through ``experiment.reproduce_table``."""

    name = "table1"
    min_reps = 2
    single_threaded = False

    def setup(self, seed: int):
        training = estimator.TrainingConfig(seed=rng.SeedSpec(seed))
        return experiment.ExperimentConfig(training=training)

    def prepare(self, config, seed: int):
        return config

    def rep(self, config, workdir: Path, index: int) -> Outcome:
        out = workdir / f"rep{index}"
        reports = experiment.reproduce_table(replace(config, output_dir=out))
        return Outcome(value=reports, out_dir=out)

    def check(self, config, outcome: Outcome) -> list[str]:
        fails = []
        reports = outcome.value
        seed = config.training.seed.root_seed
        rows = [(r.method, row) for r in reports for row in r.rows]
        if len(rows) != 18:
            fails.append(f"expected 18 rows, got {len(rows)}")
        for method, row in rows:
            mse = (row.mse_eta, row.mse_gamma)
            if not all(math.isfinite(v) and v > 0 for v in mse):
                fails.append(f"{method} {row.true_eta, row.true_gamma}: MSE {mse}")
            if method == "bayes-uniform" and seed == PROTOCOL_SEED:
                ref = PUBLISHED_BAYES_UNIFORM_MSE[(row.true_eta, row.true_gamma)]
                for got, want, limit in zip(mse, ref, GATE_FACTOR):
                    if not max(got / want, want / got) <= limit:
                        fails.append(f"bayes-uniform MSE {got:.3e} vs {want:.3e}")
        out = outcome.out_dir
        read = experiment.read_risk_reports(out / "table1.csv")
        read_rows = [(r.method, row) for r in read for row in r.rows]
        for (m1, r1), (m2, r2) in zip(rows, read_rows):
            for f in ("true_eta", "true_gamma", "mse_eta", "mse_gamma"):
                v1, v2 = getattr(r1, f), getattr(r2, f)
                if m1 != m2 or float(f"{v1:.5e}") != v2:
                    fails.append(f"table1.csv row {m1} {f}: {v1!r} read back as {v2!r}")
        if len(read_rows) != len(rows):
            fails.append("table1.csv row count differs from the reports")
        m_theta = config.training.m_theta
        for r in reports:
            scatter = experiment.read_scatter(out / f"scatter_{r.method}.csv")
            if scatter.shape != (m_theta, 4) or not np.all(np.isfinite(scatter)):
                fails.append(f"scatter_{r.method}.csv: shape {scatter.shape}")
            path = out / f"model_{r.method}.txt"
            again = estimator.save_model(estimator.load_model(path), out / "resaved.txt")
            if again.read_bytes() != path.read_bytes():
                fails.append(f"model_{r.method}.txt does not round-trip")
            again.unlink()
        fails += mse_disagreements(config, reports, out, seed)
        return fails

    def probe(self, config, outcome: Outcome, seed: int):
        """Models and datasets for the estimate-latency probe."""
        models = [
            estimator.load_model(path)
            for path in sorted(outcome.out_dir.glob("model_*.txt"))
        ]
        gen = np.random.default_rng([seed, TAG_PROBE])
        n_obs = config.training.n_obs
        datasets = [
            (scale, shape, scale * gen.weibull(shape, n_obs))
            for _ in range(PROBE_PER_POINT)
            for scale, shape in config.eval_points
        ]
        return models, datasets

    def same_output(self, a: Outcome, b: Outcome) -> list[str]:
        return same_files(a.out_dir, b.out_dir)


class EstimateRaw:
    """``estimator.estimate`` of a Bayes/uniform model, one generated dataset
    per call; one repetition is one pass over the dataset pool."""

    name = "estimate-raw"
    min_reps = 1
    single_threaded = True

    def setup(self, seed: int):
        return estimator.fit_bayes(estimator.TrainingConfig(seed=rng.SeedSpec(seed)))

    def prepare(self, model, seed: int):
        """The model with the pass's datasets, small and large interleaved."""
        small = weibull_datasets(seed, TAG_SMALL, SMALL_SIZES)
        large = weibull_datasets(seed, TAG_LARGE, LARGE_SIZES)
        order = []
        for k in range(len(LARGE_SIZES) // 2):
            order += small[3 * k : 3 * k + 3] + large[2 * k : 2 * k + 2]
        return model, order

    def rep(self, state, workdir: Path, index: int) -> Outcome:
        model, datasets = state
        latencies, estimates = time_pass(model, datasets)
        return Outcome(value=estimates, latencies_ns=latencies, calls=len(datasets))

    def check(self, state, outcome: Outcome) -> list[str]:
        _, datasets = state
        fails = []
        for (scale, shape, y), est in zip(datasets, outcome.value):
            if not all(math.isfinite(v) for v in est):
                fails.append(f"N={y.size}: non-finite estimate {est}")
            elif y.size >= LARGE_N and (
                abs(est[0] - scale) > TOLERANCE["scale"]
                or abs(est[1] - shape) > TOLERANCE["shape"]
            ):
                fails.append(f"N={y.size}: estimate {est} for truth {(scale, shape)}")
        return fails

    def same_output(self, a: Outcome, b: Outcome) -> list[str]:
        return [] if a.value == b.value else ["estimates"]


WORKLOADS = {w.name: w for w in (Table1(), EstimateRaw())}
