"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

The benchmark protocol is pinned to one training realization (root seed 1);
the quantitative MSE gates are factor tolerances against the published
table, which itself reflects a single realization.
"""

import math
import time

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
    estimate,
    fisher_per_sample,
    fit_bayes,
    generate_training_set,
    run_mse_experiment,
)
from twostage import solvers
from twostage.compression import FeatureKind, order_statistics, sorted_quantiles
from twostage.estimator import build_feature_matrix, fit_methods
from twostage.rng import stream

from oracles import (
    fisher_oracle,
    minimax_oracle,
    random_small_problem,
    run_errors,
    sample_weibull,
    weibull_quantile,
)

PROTOCOL_SEED = SeedSpec(1)

# published benchmark columns at N = 10000 (CRLB, Bayes MSE under the uniform prior)
TABLE_CRLB = {
    (2.0, 2.0): (1.11e-4, 2.43e-4),
    (2.0, 8.0): (6.93e-6, 3.89e-3),
    (4.0, 2.0): (4.43e-4, 2.43e-4),
    (4.0, 8.0): (2.77e-5, 3.89e-3),
    (8.0, 2.0): (1.77e-3, 2.43e-4),
    (8.0, 8.0): (1.11e-4, 3.89e-3),
}
TABLE_BAYES_UNIFORM_MSE = {
    (2.0, 2.0): (2.58e-4, 5.77e-2),
    (2.0, 8.0): (1.11e-5, 5.61e-2),
    (4.0, 2.0): (6.74e-4, 1.05e-1),
    (4.0, 8.0): (3.84e-5, 6.40e-2),
    (8.0, 2.0): (2.26e-3, 1.89e-1),
    (8.0, 8.0): (1.58e-4, 7.901e-2),
}


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status} {name} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def uniform_training():
    return TrainingConfig(seed=PROTOCOL_SEED)


@pytest.fixture(scope="session")
def reciprocal_training():
    return TrainingConfig(
        seed=PROTOCOL_SEED,
        theta_distribution=PriorSpec(PriorKind.RECIPROCAL, 1.0, 20.0),
    )


@pytest.fixture(scope="session")
def uniform_training_set(uniform_training):
    return generate_training_set(uniform_training)


@pytest.fixture(scope="session")
def bayes_uniform(uniform_training, uniform_training_set):
    (model,) = fit_methods(
        uniform_training_set,
        uniform_training.ridge,
        ("bayes",),
        uniform_training.fingerprint(),
    )
    return model


@pytest.fixture(scope="session")
def uniform_config(uniform_training):
    return ExperimentConfig(training=uniform_training, emit=frozenset())


@pytest.fixture(scope="session")
def uniform_report(uniform_config, bayes_uniform):
    return run_mse_experiment(uniform_config, bayes_uniform)


@pytest.fixture(scope="session")
def reciprocal_report(reciprocal_training):
    model = fit_bayes(reciprocal_training)
    config = ExperimentConfig(
        training=reciprocal_training,
        eval_points=((2.0, 2.0), (4.0, 2.0), (8.0, 2.0)),
        emit=frozenset(),
    )
    return run_mse_experiment(config, model)


def test_criterion_1_crlb_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for point, expected in TABLE_CRLB.items():
        bounds = crlb(WeibullParams(*point), 10000)
        for got, want in zip(bounds, expected):
            exp10 = math.floor(math.log10(abs(got)))
            rounded = round(got, 2 - exp10)
            worst = max(worst, abs(rounded - want) / want)
    elapsed = time.perf_counter() - start
    report(
        1,
        "CRLB grid matches published values to 3 significant figures",
        worst < 1e-9 and elapsed < 1.0,
        f"(worst rel dev {worst:.1e}, {elapsed * 1e3:.0f} ms)",
    )


def test_criterion_2_fisher_closed_form_oracle():
    start = time.perf_counter()
    worst = 0.0
    for eta in (1.0, 2.0, 8.0):
        for gamma in (1.0, 2.0, 8.0):
            params = WeibullParams(eta, gamma)
            seed = SeedSpec(1000 + int(10 * eta + gamma))
            est_info = fisher_oracle(params, 10**6, seed)
            ref = fisher_per_sample(params)
            worst = max(worst, float(np.max(np.abs(est_info - ref) / np.abs(ref))))
    elapsed = time.perf_counter() - start
    report(
        2,
        "Fisher closed form within 1% of the Monte-Carlo oracle on the 3x3 grid",
        worst < 0.01 and elapsed < 30.0,
        f"(worst entry dev {worst:.2%}, {elapsed:.1f} s)",
    )


def test_criterion_3_bayes_uniform_mse_factors(uniform_report):
    worst_eta = worst_gamma = 0.0
    for row in uniform_report.rows:
        ref_eta, ref_gamma = TABLE_BAYES_UNIFORM_MSE[(row.true_eta, row.true_gamma)]
        fe = max(row.mse_eta / ref_eta, ref_eta / row.mse_eta)
        fg = max(row.mse_gamma / ref_gamma, ref_gamma / row.mse_gamma)
        worst_eta = max(worst_eta, fe)
        worst_gamma = max(worst_gamma, fg)
    report(
        3,
        "Bayes/uniform MSE within factor 5 (scale) and 10 (shape) of the table",
        worst_eta <= 5.0 and worst_gamma <= 10.0,
        f"(worst factor: scale {worst_eta:.2f}, shape {worst_gamma:.2f})",
    )


def test_criterion_4_reciprocal_prior_improves_shape(uniform_report, reciprocal_report):
    uniform_gamma = {
        (row.true_eta, row.true_gamma): row.mse_gamma for row in uniform_report.rows
    }
    deltas = []
    ok = True
    for row in reciprocal_report.rows:
        ref = uniform_gamma[(row.true_eta, row.true_gamma)]
        ok = ok and row.mse_gamma < ref
        deltas.append(f"{row.mse_gamma:.3e}<{ref:.3e}")
    report(
        4,
        "reciprocal prior lowers shape MSE at the three shape=2 points",
        ok,
        "(" + ", ".join(deltas) + ")",
    )


def test_criterion_5_minimax_solver_vs_oracle():
    rng = np.random.default_rng(123)
    worst_rel = 0.0
    cert_violations = 0
    for _ in range(50):
        problem = random_small_problem(rng)
        fit = solvers.fit_minimax(problem)
        oracle = minimax_oracle(problem, fit.beta)
        worst_rel = max(worst_rel, abs(fit.objective - oracle) / max(abs(oracle), 1e-12))
        if oracle < fit.objective - fit.certificate - 1e-9 * (1 + abs(oracle)):
            cert_violations += 1
    report(
        5,
        "minimax objective within 1e-3 of the exact LP/QP oracle, certificate sound",
        worst_rel <= 1e-3 and cert_violations == 0,
        f"(worst rel dev {worst_rel:.2e}, certificate violations {cert_violations})",
    )


def test_criterion_6_minimax_dominates_ridge(uniform_training, uniform_training_set):
    targets = uniform_training_set.thetas[uniform_training_set.parent_index]
    margins = []
    ok = True
    for kind, column in ((FeatureKind.SCALE, 0), (FeatureKind.SHAPE, 1)):
        problem = solvers.RegressionProblem(
            build_feature_matrix(uniform_training_set.alphas, kind),
            targets[:, column],
            uniform_training.ridge,
        )
        ridge_fit = solvers.fit_ridge(problem)
        mm_fit = solvers.fit_minimax(problem)
        worst_ridge, _ = solvers.evaluate_max_quadratic(ridge_fit.beta, problem)
        slack = max(1e-6 * worst_ridge, 1e-9)
        ok = ok and mm_fit.objective <= worst_ridge + slack
        margins.append(f"{kind.value}: {mm_fit.objective:.4e} <= {worst_ridge:.4e}")
    rng = np.random.default_rng(77)
    for _ in range(10):
        problem = random_small_problem(rng)
        mm_fit = solvers.fit_minimax(problem)
        worst_ridge, _ = solvers.evaluate_max_quadratic(
            solvers.fit_ridge(problem).beta, problem
        )
        ok = ok and mm_fit.objective <= worst_ridge + max(1e-6 * worst_ridge, 1e-9)
    report(
        6,
        "minimax worst-row objective never exceeds the ridge fit's",
        ok,
        "(" + "; ".join(margins) + ")",
    )


def test_criterion_7_pipeline_invariants(bayes_uniform):
    # permutation invariance of the fitted rule
    y = sample_weibull(2000, WeibullParams(3.0, 4.0), SeedSpec(4242))
    rng = np.random.default_rng(0)
    shuffled = y.copy()
    rng.shuffle(shuffled)
    perm_ok = estimate(bayes_uniform, shuffled) == estimate(bayes_uniform, y)

    # bit-identical refits
    cfg = TrainingConfig(m_theta=30, n_obs=400, n_quantiles=5, seed=SeedSpec(555))
    models = [fit_bayes(cfg), fit_bayes(cfg)]
    refit_ok = (
        len({m.beta_scale.beta.tobytes() for m in models}) == 1
        and len({m.beta_shape.beta.tobytes() for m in models}) == 1
        and len({estimate(m, y) for m in models}) == 1
    )

    # quantile consistency below the sample maximum
    params = WeibullParams(2.0, 2.0)
    ys = order_statistics(sample_weibull(10**5, params, SeedSpec(888)))
    alpha = sorted_quantiles(ys, 10)
    quant_ok = all(
        abs(alpha[k - 1] - weibull_quantile(k / 10, params))
        <= 0.02 * weibull_quantile(k / 10, params)
        for k in range(1, 10)
    )
    report(
        7,
        "permutation invariance, refit determinism, quantile consistency",
        perm_ok and refit_ok and quant_ok,
        f"(perm {perm_ok}, refit {refit_ok}, quantiles {quant_ok})",
    )


def test_criterion_8_ridge_optimality_properties():
    rng = np.random.default_rng(2024)
    worst_res = 0.0
    for _ in range(100):
        n_rows = int(rng.integers(1, 501))
        n_feat = int(rng.integers(1, 251))
        ridge = float(rng.choice([1e-8, 1e-4, 1e-1, 1.0]))
        if n_rows >= n_feat + 5 and rng.random() < 0.25:
            ridge = 0.0
        problem = solvers.RegressionProblem(
            rng.normal(size=(n_rows, n_feat)), rng.normal(size=n_rows), ridge
        )
        fit = solvers.fit_ridge(problem)
        grad = 2.0 / n_rows * (
            problem.features.T @ (problem.features @ fit.beta - problem.targets)
        ) + 2.0 * ridge * fit.beta
        tol = 1e-8 * (
            1.0 + np.linalg.norm(problem.features.T @ problem.targets) / n_rows
        )
        worst_res = max(worst_res, float(np.linalg.norm(grad)) / tol)

    worst_deriv = 0.0
    for _ in range(5):
        problem = solvers.RegressionProblem(
            rng.normal(size=(60, 10)), rng.normal(size=60), 1e-4
        )
        fit = solvers.fit_ridge(problem)
        h = 1e-5
        for _ in range(10):
            d = rng.normal(size=10)
            d /= np.linalg.norm(d)
            deriv = (
                solvers.mean_squared_objective(fit.beta + h * d, problem)
                - solvers.mean_squared_objective(fit.beta - h * d, problem)
            ) / (2 * h)
            worst_deriv = max(worst_deriv, abs(deriv))
    report(
        8,
        "ridge stationarity and finite-difference flatness",
        worst_res <= 1.0 and worst_deriv <= 1e-6,
        f"(worst residual/tol {worst_res:.2e}, worst directional deriv {worst_deriv:.2e})",
    )


# --- supporting checks on the same protocol run (not numbered criteria) ---


def test_scale_estimates_track_truth_in_scatter(bayes_uniform, uniform_training, tmp_path):
    config = ExperimentConfig(
        training=uniform_training, output_dir=tmp_path, emit=frozenset({"scatter"})
    )
    path = emit_scatter(bayes_uniform, config)
    from twostage.experiment import read_scatter

    data = read_scatter(path)
    true_eta, est_eta = data[:, 0], data[:, 2]
    slope = float(np.cov(true_eta, est_eta)[0, 1] / np.var(true_eta))
    assert 0.95 <= slope <= 1.05


def test_fresh_data_scale_estimates_concentrate(bayes_uniform, uniform_training):
    params = WeibullParams(2.0, 2.0)
    hits = 0
    for r in range(100):
        u = stream(SeedSpec(31337), r).random(uniform_training.n_obs)
        eta_hat, _ = estimate(bayes_uniform, weibull_quantile(u, params))
        if abs(eta_hat - 2.0) <= 0.1:
            hits += 1
    assert hits >= 95


def test_reciprocal_shape_mse_near_published_value(reciprocal_report):
    row = next(r for r in reciprocal_report.rows if (r.true_eta, r.true_gamma) == (2.0, 2.0))
    factor = max(row.mse_gamma / 2.06e-2, 2.06e-2 / row.mse_gamma)
    assert factor <= 5.0


def test_split_halves_of_mse_runs_agree(uniform_config, bayes_uniform):
    for point_errors in run_errors(uniform_config, bayes_uniform):
        sq = point_errors**2
        half = sq.shape[0] // 2
        first, second = sq[:half], sq[half:]
        for col in (0, 1):
            diff = abs(first[:, col].mean() - second[:, col].mean())
            se = math.sqrt(first[:, col].var() / half + second[:, col].var() / half)
            assert diff <= 4 * se
