"""Ridge and minimax second-stage fitters."""

import ctypes
import json
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from twostage import _blas, solvers
from twostage.compression import FeatureKind
from twostage.estimator import TrainingConfig, build_feature_matrix, generate_training_set
from twostage.priors import PriorSpec
from twostage.rng import SeedSpec
from twostage.solvers import (
    Coefficients,
    RegressionProblem,
    SolverBudgetError,
    _epigraph_dual_value,
    _ipm_epigraph,
    _solve_working_set,
    _weighted_lower_bound,
    evaluate_max_quadratic,
    fit_minimax,
    fit_ridge,
    mean_squared_objective,
)

from oracles import (
    exact_weighted_minimum,
    minimax_oracle,
    nearly_collinear_problem,
    random_small_problem,
    training_problem,
)
from test_cli import run_python


def stationarity_residual(problem, beta):
    phi, t, lam = problem.features, problem.targets, problem.ridge
    grad = 2.0 / problem.n_rows * (phi.T @ (phi @ beta - t)) + 2.0 * lam * beta
    return float(np.linalg.norm(grad))


def stationarity_tol(problem):
    return 1e-8 * (1.0 + np.linalg.norm(problem.features.T @ problem.targets) / problem.n_rows)


def random_ridge_problem(rng):
    n_rows = int(rng.integers(1, 501))
    n_feat = int(rng.integers(1, 251))
    ridge = float(rng.choice([1e-8, 1e-4, 1e-1, 1.0]))
    if n_rows >= n_feat + 5 and rng.random() < 0.25:
        ridge = 0.0
    phi = rng.normal(size=(n_rows, n_feat))
    targets = rng.normal(size=n_rows)
    return RegressionProblem(phi, targets, ridge)


def protocol_problem(kind, ridge, prior="uniform"):
    """The seed-1 protocol's scale or shape problem under the given prior
    (uniform: the minimax and Bayes/uniform fits) at the given ridge."""
    dist = PriorSpec(prior, 1.0, 20.0)
    return training_problem(TrainingConfig(ridge=ridge, theta_distribution=dist, seed=SeedSpec(1)), kind)


# a training range so wide that the shape features reach 1e200
WIDE_RANGE = TrainingConfig(m_theta=50, n_obs=200, n_quantiles=4,
                            theta_distribution=PriorSpec("uniform", 1.0, 1e100))


def stacked_least_squares(problem):
    """The ridge solution by lstsq on [Phi; sqrt(M ridge) I], columns scaled
    to unit norm: the reference that never forms the normal matrix."""
    phi, t = problem.features, problem.targets
    M, m = phi.shape
    col = np.linalg.norm(phi, axis=0)
    stacked = np.vstack([phi / col, np.diag(np.sqrt(M * problem.ridge) / col)])
    return np.linalg.lstsq(stacked, np.concatenate([t, np.zeros(m)]), rcond=None)[0] / col


def wide_five_row_config(seed):
    """Five training rows at ridge 1e-8, parameters drawn from [1, 1000]."""
    return TrainingConfig(m_theta=5, n_obs=120, n_quantiles=4, ridge=1e-8, seed=SeedSpec(seed),
                          theta_distribution=PriorSpec("uniform", 1.0, 1000.0))


def repeated_row_problem():
    """22 distinct rows, each repeated five times in a row, ridge 1e-3."""
    rng = np.random.default_rng(33)
    phi, t = rng.normal(size=(110, 30)), 100 * rng.normal(size=110)
    return RegressionProblem(np.repeat(phi[:22], 5, axis=0), np.repeat(t[:22], 5), 1e-3)


def fit_or_best_iterate(problem):
    """The fit, or the best iterate that its SolverBudgetError carries."""
    try:
        return fit_minimax(problem)
    except SolverBudgetError as err:
        return err.coefficients


class TestProblemValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RegressionProblem([[np.inf]], [1.0], 0.0)

    def test_rejects_negative_ridge(self):
        with pytest.raises(ValueError):
            RegressionProblem([[1.0]], [1.0], -1e-9)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            RegressionProblem([[1.0, 2.0]], [1.0, 2.0], 0.0)

    @pytest.mark.parametrize("beta, objective, certificate", [
        ([np.nan], 0.0, 0.0), ([np.inf], 0.0, 0.0), ([1.0], np.nan, 0.0),
        ([1.0], np.inf, 0.0), ([1.0], 0.0, np.nan), ([1.0], 0.0, np.inf), ([1.0], 0.0, -1.0),
    ])
    def test_coefficients_reject_non_finite_fit(self, beta, objective, certificate):
        Coefficients([1.0], 0.0, 0.0)
        with pytest.raises(ValueError, match="must be finite"):
            Coefficients(beta, objective, certificate)

    @pytest.mark.parametrize("fit", [fit_ridge, fit_minimax])
    def test_fit_whose_sums_overflow_raises(self, fit):
        # shape features up to 1e200 are finite, their normal matrix is not
        problem = training_problem(WIDE_RANGE, FeatureKind.SHAPE)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="must be finite"):
                fit(problem)


class TestFitRidge:
    def test_single_point_interpolation(self):
        fit = fit_ridge(RegressionProblem([[2.0]], [6.0], 0.0))
        assert fit.beta[0] == pytest.approx(3.0, rel=1e-14)
        assert fit.objective == pytest.approx(0.0, abs=1e-24)
        assert fit.certificate == 0.0

    def test_hand_solved_normal_equations(self):
        # Gram [[2,1],[1,2]], rhs (2,2) -> beta = (2/3, 2/3)
        fit = fit_ridge(
            RegressionProblem([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0], 0.0)
        )
        np.testing.assert_allclose(fit.beta, [2.0 / 3.0, 2.0 / 3.0], rtol=1e-13)

    def test_huge_ridge_shrinks_to_zero(self):
        phi = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = np.array([1.0, -2.0])
        lam = 1e12 * float(np.linalg.norm(phi)) ** 2
        fit = fit_ridge(RegressionProblem(phi, t, lam))
        bound = np.linalg.norm(phi.T @ t) / (phi.shape[0] * lam)
        assert np.linalg.norm(fit.beta) <= bound

    def test_rank_deficient_fit_is_the_stacked_least_squares_solution(self):
        # ridge 0 on one row of two columns, and on a duplicated column: the
        # fit is lstsq's minimum-norm solution of the column-scaled rows
        one_row = RegressionProblem([[1.0, 2.0]], [1.0], 0.0)
        duplicated = RegressionProblem([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [1.0, 2.0, 3.0], 0.0)
        for problem in (one_row, duplicated):
            fit = fit_ridge(problem)
            np.testing.assert_allclose(fit.beta, stacked_least_squares(problem), rtol=1e-15)
            assert fit.objective <= 1e-30
        np.testing.assert_allclose(fit_ridge(one_row).beta, [0.5, 0.25], rtol=1e-15)
        np.testing.assert_allclose(fit_ridge(duplicated).beta, [0.5, 0.5], rtol=1e-15)

    def test_stationarity_on_random_problems(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            problem = random_ridge_problem(rng)
            fit = fit_ridge(problem)
            assert stationarity_residual(problem, fit.beta) <= stationarity_tol(problem)

    def test_finite_difference_directional_derivatives(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            problem = RegressionProblem(
                rng.normal(size=(40, 8)), rng.normal(size=40), 1e-4
            )
            fit = fit_ridge(problem)
            h = 1e-5
            for _ in range(10):
                d = rng.normal(size=8)
                d /= np.linalg.norm(d)
                deriv = (
                    mean_squared_objective(fit.beta + h * d, problem)
                    - mean_squared_objective(fit.beta - h * d, problem)
                ) / (2 * h)
                assert abs(deriv) <= 1e-6

    @pytest.mark.parametrize("prior", ["uniform", "reciprocal"])
    def test_protocol_shape_fit_is_the_least_squares_solution(self, prior):
        # the ridge fit is the least-squares solution of [Phi; sqrt(M ridge) I]
        # with the columns scaled; solving the normal equations alone squares
        # Phi's condition number (2.8e8) and misses it by up to 1.3e-4
        problem = protocol_problem(FeatureKind.SHAPE, 1e-8, prior)
        reference = stacked_least_squares(problem)
        beta = fit_ridge(problem).beta
        assert np.linalg.norm(beta - reference) <= 1e-7 * np.linalg.norm(reference)

    def test_bayes_fit_is_alike_at_one_and_two_blas_threads(self):
        code = (
            "import json; from twostage.estimator import TrainingConfig, fit_bayes; "
            "from twostage.rng import SeedSpec; "
            "model = fit_bayes(TrainingConfig(seed=SeedSpec(1))); "
            "print(json.dumps([model.beta_scale.beta.tolist(), model.beta_shape.beta.tolist()]))"
        )
        fits = []
        for threads in ("1", "2"):
            result = run_python("-c", code, OPENBLAS_NUM_THREADS=threads)
            assert result.returncode == 0, result.stderr
            fits.append([np.array(beta) for beta in json.loads(result.stdout)])
        # the protocol's fits run at one thread in either process
        for one, two in zip(*fits):
            assert np.array_equal(one, two)

    def test_overflowing_column_norm_raises_without_warning(self):
        # finite features whose normal matrix is not: before, a clamped
        # eigendecomposition returned beta = [0, 1.5] with objective 0.167,
        # where beta = [1e-200, 0] fits exactly
        problem = RegressionProblem([[1e200, 1.0], [2e200, 1.0], [3e200, 2.0]], [1.0, 2.0, 3.0], 1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="must be finite"):
                fit_ridge(problem)

    def test_singular_scaled_system_solves_by_least_squares(self):
        # the scale problem of the wide range: its scaled normal matrix is
        # singular to working precision (smallest singular value of the
        # scaled features 7e-33), so Cholesky fails at ridge > 0
        problem = training_problem(WIDE_RANGE, FeatureKind.SCALE)
        phi, col = problem.features, np.linalg.norm(problem.features, axis=0)
        ridge_rows = np.diag(problem.n_rows * problem.ridge / col**2)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky((phi / col).T @ (phi / col) + ridge_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_ridge(problem)
        reference = mean_squared_objective(stacked_least_squares(problem), problem)
        assert fit.objective == pytest.approx(reference, rel=1e-12)
        # the fit is exact to rounding: the residual is 1e-16 of the targets
        assert fit.objective <= 1e-30 * float(np.mean(problem.targets**2))

    def test_duplicated_rows_leave_fit_unchanged(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(30, 6))
        t = rng.normal(size=30)
        lam = 1e-6
        single = fit_ridge(RegressionProblem(phi, t, lam))
        doubled = fit_ridge(
            RegressionProblem(np.vstack([phi, phi]), np.concatenate([t, t]), lam)
        )
        np.testing.assert_allclose(single.beta, doubled.beta, rtol=1e-10, atol=1e-12)


class TestEvaluateMaxQuadratic:
    def test_zero_beta_gives_largest_target(self):
        problem = RegressionProblem([[1.0], [1.0], [1.0]], [1.0, -3.0, 2.0], 0.0)
        value, idx = evaluate_max_quadratic(np.zeros(1), problem)
        assert value == 9.0
        assert idx == 1

    def test_single_row(self):
        problem = RegressionProblem([[2.0]], [5.0], 0.5)
        value, idx = evaluate_max_quadratic(np.array([1.0]), problem)
        assert value == pytest.approx((5.0 - 2.0) ** 2 + 0.5)
        assert idx == 0

    def test_tie_breaks_to_smallest_index(self):
        problem = RegressionProblem([[1.0], [1.0]], [2.0, -2.0], 0.0)
        _, idx = evaluate_max_quadratic(np.zeros(1), problem)
        assert idx == 0

    def test_equalized_instance_both_rows_active(self):
        problem = RegressionProblem([[1.0], [2.0]], [0.0, 2.0], 0.0)
        beta = np.array([2.0 / 3.0])
        value, _ = evaluate_max_quadratic(beta, problem)
        r = problem.targets - problem.features @ beta
        assert value == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert np.all(np.abs(r * r - value) <= 1e-9)


class TestFitMinimax:
    def test_single_row_matches_ridge(self):
        # max over one index equals the mean over one index
        problem = RegressionProblem([[2.0]], [6.0], 0.0)
        mm = fit_minimax(problem)
        assert mm.beta[0] == pytest.approx(3.0, rel=1e-12)
        assert mm.objective == pytest.approx(0.0, abs=1e-20)
        problem2 = RegressionProblem([[1.0, 2.0]], [4.0], 0.5)
        mm2 = fit_minimax(problem2)
        rr = fit_ridge(problem2)
        np.testing.assert_allclose(mm2.beta, rr.beta, rtol=1e-8, atol=1e-10)
        assert mm2.objective == pytest.approx(rr.objective, rel=1e-8)

    def test_symmetric_pair_equalizes(self):
        problem = RegressionProblem([[1.0], [1.0]], [0.0, 2.0], 0.0)
        mm = fit_minimax(problem)
        assert mm.beta[0] == pytest.approx(1.0, abs=1e-9)
        assert mm.objective == pytest.approx(1.0, rel=1e-9)

    def test_symmetric_targets_predict_midpoint(self):
        # identical features, targets theta +/- d -> prediction is theta
        phi = np.array([[1.0, 2.0], [1.0, 2.0]])
        problem = RegressionProblem(phi, [3.0 + 0.5, 3.0 - 0.5], 1e-10)
        mm = fit_minimax(problem)
        assert phi[0] @ mm.beta == pytest.approx(3.0, abs=1e-6)

    def test_two_point_hand_instance_with_grid_oracle(self):
        problem = RegressionProblem([[1.0], [2.0]], [0.0, 2.0], 0.0)
        mm = fit_minimax(problem)
        assert mm.beta[0] == pytest.approx(2.0 / 3.0, abs=1e-7)
        assert mm.objective == pytest.approx(4.0 / 9.0, rel=1e-9)
        grid = np.linspace(-1.0, 2.0, 300001)  # step 1e-5
        r0 = 0.0 - grid
        r1 = 2.0 - 2.0 * grid
        dense_min = float(np.minimum.reduce([np.maximum(r0 * r0, r1 * r1)]).min())
        assert mm.objective <= dense_min + 1e-9

    def test_rejects_non_positive_tolerance(self):
        problem = RegressionProblem([[1.0]], [1.0], 0.0)
        with pytest.raises(ValueError):
            fit_minimax(problem, tolerance=0.0)

    def test_budget_error_carries_best_iterate(self):
        rng = np.random.default_rng(5)
        problem = RegressionProblem(rng.normal(size=(12, 2)), rng.normal(size=12), 1e-8)
        with pytest.raises(SolverBudgetError) as err:
            fit_minimax(problem, 1e-300)
        assert str(err.value).endswith("after the interior point and the active-set exchange")
        coeff = err.value.coefficients
        assert isinstance(coeff, Coefficients)
        assert coeff.trace["closed_by"] is None
        assert coeff.certificate > 1e-300
        value, _ = evaluate_max_quadratic(coeff.beta, problem)
        assert value == pytest.approx(coeff.objective)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", [FeatureKind.SCALE, FeatureKind.SHAPE], ids=["scale", "shape"])
    def test_nearly_interpolating_fits_close_at_interior_point(self, seed, kind):
        # 5 training rows: the objective is near 1e-8 and the default
        # tolerance near 1e-14, so the interior point runs until its
        # duality measure is below that tolerance, not to a fixed level
        config = TrainingConfig(m_theta=5, n_obs=120, n_quantiles=4, ridge=1e-8, seed=SeedSpec(seed))
        fit = fit_minimax(training_problem(config, kind))
        assert fit.trace["closed_by"] == "interior point"
        assert fit.trace["exchange_steps"] == 0

    def test_duplicated_columns_at_ridge_zero_fit_both_rules(self):
        # both columns equal: only s = beta0 + beta1 matters.  The Bayes fit
        # is the minimum-norm least-squares solution, s = 17/14 split evenly;
        # the worst of |1 - s|, |2 - 2s|, |4 - 3s| is least where
        # 2s - 2 = 4 - 3s, s = 6/5, with worst squared residual (2/5)^2
        problem = RegressionProblem([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [1.0, 2.0, 4.0], 0.0)
        bayes = fit_ridge(problem)
        np.testing.assert_allclose(bayes.beta, [17.0 / 28.0, 17.0 / 28.0], rtol=1e-14)
        mm = fit_minimax(problem)
        assert mm.objective == pytest.approx(0.16, rel=1e-6)
        assert mm.beta[0] + mm.beta[1] == pytest.approx(6.0 / 5.0, rel=1e-6)
        assert mm.certificate <= 1e-6 * mm.objective

    def test_oracle_agreement_small_instances(self):
        rng = np.random.default_rng(314)
        for _ in range(15):
            problem = random_small_problem(rng)
            fit = fit_minimax(problem)
            oracle = minimax_oracle(problem, fit.beta)
            rel = abs(fit.objective - oracle) / max(abs(oracle), 1e-12)
            assert rel <= 1e-3
            assert oracle >= fit.objective - fit.certificate - 1e-9 * (1 + abs(oracle))

    def test_dominates_ridge_under_worst_row(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n_rows = int(rng.integers(2, 40))
            n_feat = int(rng.integers(1, 6))
            problem = RegressionProblem(
                rng.normal(size=(n_rows, n_feat)), rng.normal(size=n_rows), 1e-8
            )
            mm = fit_minimax(problem)
            rr = fit_ridge(problem)
            worst_ridge, _ = evaluate_max_quadratic(rr.beta, problem)
            assert mm.objective <= worst_ridge + 1e-6

    def test_objective_monotone_in_ridge(self):
        rng = np.random.default_rng(17)
        phi = rng.normal(size=(20, 3))
        t = rng.normal(size=20)
        values = [
            fit_minimax(RegressionProblem(phi, t, lam)).objective
            for lam in (0.0, 1e-8, 1e-4)
        ]
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9

    def test_trace_of_protocol_shape_fit(self):
        # seed-1 protocol shape problem: in the coordinates that whiten the
        # ridge normal matrix the interior point closes the gap by itself,
        # with no exchange
        config = TrainingConfig(seed=SeedSpec(1))
        training_set = generate_training_set(config)
        problem = RegressionProblem(
            build_feature_matrix(training_set.alphas, FeatureKind.SHAPE),
            training_set.thetas[training_set.parent_index, 1],
            config.ridge,
        )
        fit = fit_minimax(problem)
        trace = fit.trace
        tolerance = 1e-6 * evaluate_max_quadratic(fit_ridge(problem).beta, problem)[0]
        assert fit.certificate <= tolerance
        gaps = trace["gaps"]
        assert list(gaps) == ["interior point"]
        assert trace["closed_by"] == "interior point"
        assert trace["tolerance"] == tolerance
        assert gaps["interior point"] <= tolerance
        assert trace["ipm_iterations"] > 0
        assert trace["exchange_steps"] == 0
        # the duality measure after each iteration, last below tolerance / 100
        ipm_gaps = trace["ipm_gaps"]
        assert len(ipm_gaps) == trace["ipm_iterations"]
        assert all(type(gap) is float for gap in ipm_gaps)
        assert ipm_gaps[-1] <= tolerance / 100
        assert json.loads(json.dumps(trace)) == trace
        # the trace takes no part in comparison
        assert fit == Coefficients(fit.beta, fit.objective, fit.certificate)

    @pytest.mark.parametrize("seed", [37, 39])
    @pytest.mark.parametrize("kind", [FeatureKind.SCALE, FeatureKind.SHAPE], ids=["scale", "shape"])
    def test_protocol_fits_that_take_the_exchange_certify(self, seed, kind):
        # on these seeds the dual residual leaves the shape fit's gap at the
        # interior point above tolerance, at one BLAS thread or at two, and
        # the exchange closes it; the scale fits close at the interior point
        fit = fit_minimax(training_problem(TrainingConfig(ridge=1e-8, seed=SeedSpec(seed)), kind))
        assert fit.trace["closed_by"] in ("interior point", "active-set exchange")

    @pytest.mark.parametrize("seed", [649, 38])
    def test_wide_range_fit_takes_exchange_steps_past_the_first(self, seed):
        # five rows, shapes drawn from [1, 1000]: the first working set, the
        # rows near the largest residual and those the interior point's
        # multipliers mark active, still misses rows active at the optimum,
        # and the exchange takes 9 and 7 steps to find them; one solve on
        # the first working set leaves the fit uncertified.  Holds on
        # OpenBLAS's default, Haswell, Zen, Sandybridge and Prescott kernels
        # and with numpy's AVX-512 kernels off
        fit = fit_minimax(training_problem(wide_five_row_config(seed), FeatureKind.SHAPE))
        assert fit.trace["closed_by"] == "active-set exchange"
        assert fit.trace["exchange_steps"] > 1

    @pytest.mark.parametrize("seed", [38, 649, 709, 995, 2030, 1610])
    def test_wide_range_fit_certifies_from_the_interior_points_active_rows(self, seed):
        # five rows, shapes drawn from [1, 1000]: the interior point leaves
        # gaps of 1.3-5.7e-13 above tolerances of 4e-14 to 5e-13.  Started
        # from the rows near the largest residual alone, the exchange spends
        # its whole budget on five of these seeds, on the default kernels and
        # under Haswell alike; with the rows whose multipliers are active
        # added, it closes in 1-9 steps on OpenBLAS's default, Haswell, Zen,
        # Sandybridge and Prescott kernels and with numpy's AVX-512 kernels off
        fit = fit_minimax(training_problem(wide_five_row_config(seed), FeatureKind.SHAPE))
        assert fit.trace["closed_by"] == "active-set exchange"

    @pytest.mark.parametrize(
        "config",
        [
            TrainingConfig(ridge=0.0, seed=SeedSpec(1)),
            # square: 30 rows and 30 shape columns, a nearly singular factor
            TrainingConfig(m_theta=30, n_obs=120, n_quantiles=4, ridge=0.0, seed=SeedSpec(7)),
        ],
        ids=["protocol", "square"],
    )
    def test_ridge_zero_shape_fit_certifies(self, config):
        problem = training_problem(config, FeatureKind.SHAPE)
        fit = fit_minimax(problem)
        assert fit.trace["closed_by"] == "interior point"
        assert fit.certificate <= 1e-6 * evaluate_max_quadratic(fit_ridge(problem).beta, problem)[0]
        # objective - certificate is a global lower bound
        value, _ = evaluate_max_quadratic(fit.beta, problem)
        assert value == pytest.approx(fit.objective)

    def test_ipm_multipliers_lead_with_side_plus_one(self):
        # the first M multipliers belong to r_i <= tau, the last M to
        # -r_i <= tau: with those sides the epigraph dual at the
        # interior-point multipliers meets the primal objective
        rng = np.random.default_rng(6)
        M, m, lam = 20, 3, 1e-2
        problem = RegressionProblem(rng.normal(size=(M, m)), rng.normal(size=M), lam)
        P = np.diag(np.append(np.full(m, 2.0 * lam), 2.0))
        iterates, _ = _ipm_epigraph(problem.features, problem.targets, P, np.zeros(m), 1.0, 1e-9)
        x, z = iterates[-1]
        primal = lam * float(x[:m] @ x[:m]) + float(x[m]) ** 2
        rows = np.tile(np.arange(M), 2)
        plus_first = np.repeat([1.0, -1.0], M)
        dual = _epigraph_dual_value(problem, rows, plus_first, z)
        assert 0.0 <= primal - dual <= 1e-9 * primal
        swapped = _epigraph_dual_value(problem, rows, -plus_first, z)
        assert swapped < 0.5 * primal

    def test_certificate_reported_below_tolerance(self):
        rng = np.random.default_rng(23)
        problem = RegressionProblem(rng.normal(size=(30, 4)), rng.normal(size=30), 1e-6)
        fit = fit_minimax(problem, tolerance=1e-9)
        assert 0.0 <= fit.certificate <= 1e-9

    def test_duplicated_rows_degenerate_working_sets(self):
        # thirty rows, ten copies of each of three: the interior point's own
        # dual certifies the same optimum as the deduplicated fit, with no
        # exchange over the singular working sets that the copies make
        rng = np.random.default_rng(8)
        base_phi = rng.normal(size=(3, 2))
        base_t = rng.normal(size=3) * 3
        dup = fit_minimax(
            RegressionProblem(np.repeat(base_phi, 10, axis=0), np.repeat(base_t, 10), 1e-8)
        )
        dedup = fit_minimax(RegressionProblem(base_phi, base_t, 1e-8))
        assert dup.objective == pytest.approx(dedup.objective, rel=1e-9)
        assert dup.certificate <= 1e-6 * dup.objective
        assert dup.trace["closed_by"] == "interior point"

    def test_phases_per_ridge_regime(self):
        # the interior point, certified by its own dual, runs in both
        # regimes; the exchange only at ridge > 0 and with the gap still open
        rng = np.random.default_rng(12)
        problems = [random_small_problem(rng) for _ in range(60)]
        problems += [
            protocol_problem(kind, ridge)
            for kind in (FeatureKind.SCALE, FeatureKind.SHAPE)
            for ridge in (1e-8, 0.0)
        ]
        assert {p.ridge > 0 for p in problems} == {True, False}
        for problem in problems:
            phases = list(fit_or_best_iterate(problem).trace["gaps"])
            if problem.ridge > 0:
                assert phases in (["interior point"], ["interior point", "active-set exchange"])
            else:
                assert phases == ["interior point"]

    def test_repeated_rows_close_at_interior_point(self):
        # the interior point's dual certifies before any exchange step,
        # where an exchange over the repeated rows meets singular sets
        fit = fit_minimax(repeated_row_problem())
        assert fit.trace["closed_by"] == "interior point"
        assert fit.trace["exchange_steps"] == 0

    def test_first_iterate_at_rounding_level_stays_a_candidate(self):
        # nearly collinear columns at ridge 0 (11 rows, 7 columns, condition
        # 1.9e7): steps past the first iterate at rounding level still shrink
        # s'z, but L(u) at the last multipliers leaves the gap 1.7-4.8
        # tolerances open; the first one's closes it.  Holds on OpenBLAS's
        # default, Haswell, SkylakeX, Zen and Sandybridge kernels
        problem = nearly_collinear_problem(np.random.default_rng(7506))
        fit = fit_minimax(problem)
        assert fit.trace["closed_by"] == "interior point"
        assert fit.trace["ipm_gaps"][-1] <= 1e-8 * fit.objective

    def test_fit_whitened_by_a_truncated_svd_certifies(self):
        # nearly collinear columns at ridge 0 (14 rows, 4 columns): Cholesky
        # cannot factor the normal matrix, and the interior point runs in the
        # 2 coordinates that the SVD of the scaled rows keeps.  The exact
        # W(u) at the fit's multipliers does not support its certificate
        # (ROADMAP item 11), so this checks the path, not the bound
        problem = nearly_collinear_problem(np.random.default_rng(48))
        fit = fit_minimax(problem)
        assert problem._ridge[1].whitening.shape == (4, 2)
        assert fit.trace["closed_by"] == "interior point"

    def test_ridge_zero_fit_of_fewer_rows_than_columns_certifies(self):
        # 6 rows of 10 columns of rank 3: no Cholesky factor is tried, the
        # Bayes fit is lstsq's (rank 3 cannot interpolate 6 targets), and the
        # interior point runs in the 3 coordinates of the SVD whitening
        rng = np.random.default_rng(11)
        phi = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 10))
        problem = RegressionProblem(phi, rng.normal(size=6), 0.0)
        reference = mean_squared_objective(stacked_least_squares(problem), problem)
        assert fit_ridge(problem).objective == pytest.approx(reference, rel=1e-12)
        fit = fit_minimax(problem)
        assert problem._ridge[1].whitening.shape == (10, 3)
        assert fit.trace["closed_by"] == "interior point"
        assert fit.objective == pytest.approx(minimax_oracle(problem, fit.beta), rel=1e-6)

    def test_duplicated_columns_certify_on_a_second_openblas_kernel(self):
        # test_duplicated_columns_at_ridge_zero_fit_both_rules's problem in
        # a process on OpenBLAS's Haswell kernels: the SVD whitening keeps
        # one coordinate, whose Newton systems stay regular there too
        code = (
            "import json; from twostage.solvers import RegressionProblem, fit_minimax; "
            "fit = fit_minimax(RegressionProblem([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [1.0, 2.0, 4.0])); "
            "print(json.dumps([fit.beta.tolist(), fit.objective, fit.certificate]))"
        )
        result = run_python("-c", code, OPENBLAS_CORETYPE="Haswell")
        assert result.returncode == 0, result.stderr
        beta, objective, certificate = json.loads(result.stdout)
        assert objective == pytest.approx(0.16, rel=1e-6)
        assert sum(beta) == pytest.approx(6.0 / 5.0, rel=1e-6)
        assert certificate <= 1e-6 * objective

    def test_fit_past_its_newton_floor_raises_budget_error(self):
        # nearly collinear columns at ridge 0, driven towards a gap of
        # 1e-300: the multipliers concentrate until the Newton system is
        # exactly singular to LU on the default and Haswell kernels, which
        # ends the iteration like the step-length floor
        problem = nearly_collinear_problem(np.random.default_rng(19))
        with pytest.raises(SolverBudgetError) as err:
            fit_minimax(problem, 1e-300)
        coeff = err.value.coefficients
        assert evaluate_max_quadratic(coeff.beta, problem)[0] == pytest.approx(coeff.objective)

    def test_protocol_size_wide_range_shape_fit_certifies(self, monkeypatch):
        # the protocol's sizes with parameters drawn from [1, 1000]: the
        # ridge normal matrix is singular to working precision, and in the
        # SVD whitening the interior point leaves at most two exchange steps
        config = TrainingConfig(seed=SeedSpec(1), theta_distribution=PriorSpec("uniform", 1.0, 1000.0))
        problem = training_problem(config, FeatureKind.SHAPE)
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        fit = fit_minimax(problem)
        # the SVD whitening keeps all 165 coordinates here
        assert len(calls) == 1
        assert fit.trace["closed_by"] in ("interior point", "active-set exchange")
        assert fit.trace["exchange_steps"] <= 2

    @pytest.mark.parametrize("ridge", [1e-8, 0.0])
    def test_lower_bound_never_above_oracle(self, ridge):
        # objective - certificate is a lower bound on the optimum, so no
        # iterate the oracle finds lies below it, up to rounding at the
        # scale of the squared targets
        rng = np.random.default_rng(2026)
        drawn_problems = [random_small_problem(rng) for _ in range(200)]
        # nearly collinear columns (condition 5e15) that nearly fit the
        # targets: at ridge 0 the weighted bound L(u) comes out above the
        # fit's own objective and is discarded, so the fit exits 3 with the
        # bound 0, and its objective must still be one the oracle cannot beat
        drawn_problems.append(nearly_collinear_problem(np.random.default_rng(7877)))
        for drawn in drawn_problems:
            problem = RegressionProblem(drawn.features, drawn.targets, ridge)
            fit = fit_or_best_iterate(problem)
            oracle = minimax_oracle(problem, fit.beta)
            slack = 1e-15 * (1.0 + float(np.max(problem.targets**2)))
            assert fit.objective - fit.certificate <= oracle + slack

    @pytest.mark.parametrize("seed", [68, 418])
    def test_ridge_zero_bound_never_above_own_objective(self, seed):
        # nearly collinear columns: L(u) at the interior point's multipliers
        # lies above the best objective reached (gaps -1.9e-10 at 5.5e-7 and
        # -1.4e-12 at 4.3e-10), which no lower bound can; such a bound is
        # discarded, and what certifies is 0 or a bound within rounding
        fit = fit_or_best_iterate(nearly_collinear_problem(np.random.default_rng(seed)))
        assert fit.trace["gaps"]["interior point"] >= -8.0 * np.finfo(float).eps * fit.objective

    def test_weighted_bound_below_its_own_objective(self):
        # L(u) is a minimum over beta, so it never exceeds the weighted
        # objective at its own minimizer, evaluated in long double; on
        # well-posed, rank-deficient and badly scaled ridge-0 problems
        rng = np.random.default_rng(21)
        problems = [protocol_problem(FeatureKind.SHAPE, 0.0)]
        for _ in range(30):
            M, m = int(rng.integers(1, 200)), int(rng.integers(1, 40))
            phi = rng.normal(size=(M, m)) * 10.0 ** rng.uniform(-3, 3, size=(M, 1))
            problems.append(RegressionProblem(phi, rng.normal(size=M) * 10.0, 0.0))
        for problem in problems:
            M = problem.n_rows
            sparse = rng.dirichlet(np.ones(M)) * (rng.random(M) < 0.3)
            for u in (np.full(M, 1.0 / M), rng.dirichlet(np.ones(M)), sparse):
                if not u.any():
                    continue
                u = u / u.sum()
                bound, beta_u = _weighted_lower_bound(u, problem)
                ld = np.longdouble
                r = problem.targets.astype(ld) - problem.features.astype(ld) @ beta_u.astype(ld)
                assert ld(bound) <= u.astype(ld) @ (r * r)

    def test_weighted_bound_below_exact_minimum(self):
        # nearly collinear columns: the weighted objective at the lstsq
        # solution lies above W(u), the exact minimum, and only the
        # subtracted remaining descent brings L(u) below it
        rng = np.random.default_rng(123)
        problem = nearly_collinear_problem(rng)
        u = rng.dirichlet(np.ones(problem.n_rows))
        bound, _ = _weighted_lower_bound(u, problem)
        assert 0.0 < Fraction(bound) <= exact_weighted_minimum(u, problem)


def kkt_system(problem, rows, sides):
    """The working-set KKT matrix and right-hand side, built densely:
    equations [stationarity, tau, rows], variables [beta, tau, z]."""
    phi, t, lam = problem.features, problem.targets, problem.ridge
    m, k = phi.shape[1], len(rows)
    G = np.column_stack([phi[rows], sides])
    K = np.zeros((m + 1 + k, m + 1 + k))
    K[:m, :m] = 2.0 * lam * np.eye(m)
    K[m, m] = 2.0
    K[: m + 1, m + 1 :] = -(sides[:, None] * G).T
    K[m + 1 :, : m + 1] = G
    return K, np.concatenate([np.zeros(m + 1), t[rows]])


def componentwise_backward_error(K, rhs, x):
    return float(np.max(np.abs(K @ x - rhs) / (np.abs(K) @ np.abs(x) + np.abs(rhs))))


class TestWorkingSetKKT:
    """The exchange's KKT kernel: the working-set system, inverted and
    refined at every solve."""

    @staticmethod
    def solution(problem, rows, sides):
        sol = _solve_working_set(problem, rows, sides)
        assert sol is not None
        beta, tau, z = sol
        return np.concatenate([beta, [tau], z])

    def test_updates_match_fresh_solve(self):
        # random working sets of up to m+1 rows, each solved afresh and
        # checked against the dense system and a dense solve
        rng = np.random.default_rng(9)
        M, m = 14, 5
        problem = RegressionProblem(rng.normal(size=(M, m)), rng.normal(size=M), 1e-3)
        for _ in range(60):
            rows = rng.permutation(M)[: int(rng.integers(1, m + 2))]
            sides = rng.choice([-1.0, 1.0], size=rows.size)
            x = self.solution(problem, rows, sides)
            K, rhs = kkt_system(problem, rows, sides)
            assert componentwise_backward_error(K, rhs, x) <= 1e-15
            np.testing.assert_allclose(x, np.linalg.solve(K, rhs), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("appended", [False, True], ids=["repeated-row", "appended-duplicate"])
    def test_singular_working_set_solves_to_none(self, appended):
        # a working set holding one row twice on the same side is singular,
        # whether the copy is adjacent or appended to a set that solves
        problem = RegressionProblem([[1.0, 2.0], [0.5, -1.0]], [1.0, 0.0], 1e-8)
        if appended:
            assert _solve_working_set(problem, [0, 1], [1.0, 1.0]) is not None
            rows = [0, 1, 0]
        else:
            rows = [0, 0]
        assert _solve_working_set(problem, rows, [1.0] * len(rows)) is None

    def test_drop_of_a_zero_pivot_keeps_no_inverse(self):
        # five copies of one row on one side: the system is exactly singular
        # (rank 33 of 37) and solves to None; the set with one copy taken
        # out is singular too, and solves to None or to finite numbers, with
        # no warning
        problem = repeated_row_problem()
        rows = np.array([74, 51, 53, 50, 54, 52])
        K, _ = kkt_system(problem, rows, np.full(6, -1.0))
        assert (np.linalg.matrix_rank(K), len(K)) == (33, 37)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _solve_working_set(problem, rows, [-1.0] * 6) is None
            sol = _solve_working_set(problem, np.delete(rows, 2), [-1.0] * 5)
        assert sol is None or all(np.all(np.isfinite(part)) for part in sol)

    def test_solve_on_badly_scaled_system(self):
        # feature rows and columns scaled over 12 decades around a
        # well-conditioned core: the KKT matrix spans ~1e24 in magnitude,
        # yet the working-set system is regular
        rng = np.random.default_rng(4)
        M, m = 30, 20
        row, col = 10.0 ** rng.uniform(-6, 6, M), 10.0 ** rng.uniform(-6, 6, m)
        phi = row[:, None] * rng.normal(size=(M, m)) * col[None, :]
        problem = RegressionProblem(phi, rng.normal(size=M) * row, 1e-4)
        rows = rng.permutation(M)[:12]
        sides = rng.choice([-1.0, 1.0], size=12)
        K, rhs = kkt_system(problem, rows, sides)
        # componentwise backward error at rounding level, row by row
        assert componentwise_backward_error(K, rhs, self.solution(problem, rows, sides)) <= 1e-15


# the thread-count symbols of scipy-openblas's 64-bit and 32-bit integer
# builds and of plain OpenBLAS
OPENBLAS_THREAD_SYMBOLS = ["scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                           "openblas_{}_num_threads"]


def mapped_openblas():
    """Path -> (get, set) thread-count functions of each OpenBLAS library
    mapped into the process, found apart from _blas, so that a library it
    misses shows."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1]})
    libs = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        name = next(n for n in OPENBLAS_THREAD_SYMBOLS if hasattr(lib, n.format("get")))
        libs[path] = (getattr(lib, name.format("get")), getattr(lib, name.format("set")))
    return libs


def thread_counts(libs):
    return {path: get() for path, (get, _) in libs.items()}


@pytest.fixture
def two_blas_threads():
    """Every mapped OpenBLAS library at two threads for the test, so that a
    count left at one shows; scipy's library is mapped beside numpy's."""
    pytest.importorskip("scipy.linalg")
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find OpenBLAS in")
    libs = mapped_openblas()
    if not libs:
        pytest.skip("numpy and scipy link no OpenBLAS")
    _blas.libraries.cache_clear()  # found afresh, with scipy's library mapped
    before = thread_counts(libs)
    for _, set_ in libs.values():
        set_(2)
    yield libs
    for path, (_, set_) in libs.items():
        set_(before[path])


def counts_inside_fits(monkeypatch, libs):
    """A list that each Cholesky factorization (the ridge fit) and each LU
    solve (the interior point's Newton systems) of a fit appends the thread
    counts to."""
    seen = []

    def recording(lapack):
        def call(*args):
            seen.append(thread_counts(libs))
            return lapack(*args)

        return call

    for name in ("cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    return seen


def mid_size_problem(seed):
    """300 rows of 40 columns: products above OpenBLAS's threading size, so
    that two threads add in another order than one."""
    rng = np.random.default_rng(seed)
    return RegressionProblem(rng.normal(size=(300, 40)), rng.normal(size=300), 1e-4)


class TestOneBlasThread:
    def test_small_fits_run_on_one_thread_in_every_library(self, two_blas_threads, monkeypatch):
        # numpy's and scipy's libraries both; fit_minimax solves the ridge
        # warm start inside its own scope, so the scope nests
        seen = counts_inside_fits(monkeypatch, two_blas_threads)
        assert len(_blas.libraries()) == len(two_blas_threads)
        fit_ridge(mid_size_problem(1))
        fit_minimax(mid_size_problem(2))
        assert len(seen) > 2
        assert all(set(counts.values()) == {1} for counts in seen)
        assert set(thread_counts(two_blas_threads).values()) == {2}
        assert _blas._depth == 0

    @pytest.mark.parametrize("outcome", ["certified", "budget error", "LAPACK error"])
    def test_counts_restored_after_a_fit(self, two_blas_threads, monkeypatch, outcome):
        before = thread_counts(two_blas_threads)
        problem = mid_size_problem(3)
        if outcome == "certified":
            fit_minimax(problem)
        elif outcome == "budget error":
            with pytest.raises(SolverBudgetError):
                fit_minimax(problem, 1e-300)
        else:
            def not_positive_definite(*args, **kwargs):
                raise np.linalg.LinAlgError("Matrix is not positive definite")

            monkeypatch.setattr(solvers, "_ipm_epigraph", not_positive_definite)
            with pytest.raises(np.linalg.LinAlgError):
                fit_minimax(problem)
        assert thread_counts(two_blas_threads) == before
        assert _blas._depth == 0

    def test_counts_restored_after_fits_in_concurrent_threads(self, two_blas_threads):
        # the scopes of four Python threads overlap, switching often: the
        # last to leave restores, and every fit runs on one BLAS thread
        n_threads, seeds = 4, range(10, 22)
        serial = {seed: fit_minimax(mid_size_problem(seed)).beta for seed in seeds}
        barrier = threading.Barrier(n_threads)

        def fit_share(k):
            barrier.wait()
            return {seed: fit_minimax(mid_size_problem(seed)).beta for seed in seeds[k::n_threads]}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(n_threads) as pool:
                shares = list(pool.map(fit_share, range(n_threads), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        fits = {seed: beta for share in shares for seed, beta in share.items()}
        assert fits.keys() == serial.keys()
        assert all(np.array_equal(fits[seed], serial[seed]) for seed in seeds)
        assert set(thread_counts(two_blas_threads).values()) == {2}
        assert _blas._depth == 0

    @pytest.mark.parametrize("above, expected", [(0, 2), (1, 1)])
    def test_fits_at_the_bound_keep_their_threads(self, two_blas_threads, monkeypatch, above, expected):
        # M (m+1)^2 = 300 * 41^2 at the bound keeps two threads, below it one
        monkeypatch.setattr(solvers, "_ONE_BLAS_THREAD_BELOW", 300 * 41**2 + above)
        seen = counts_inside_fits(monkeypatch, two_blas_threads)
        fit_minimax(mid_size_problem(4))
        assert seen and all(set(counts.values()) == {expected} for counts in seen)

    def test_fit_without_a_library_found_runs_unchanged(self, two_blas_threads, monkeypatch):
        small = RegressionProblem(np.random.default_rng(5).normal(size=(50, 3)), np.arange(50.0), 1e-4)
        reference = fit_minimax(small)
        monkeypatch.setattr(_blas, "libraries", lambda: ())
        seen = counts_inside_fits(monkeypatch, two_blas_threads)
        fit = fit_minimax(RegressionProblem(small.features, small.targets, small.ridge))
        assert np.array_equal(fit.beta, reference.beta) and fit.certificate == reference.certificate
        assert seen and all(set(counts.values()) == {2} for counts in seen)


def test_quick_fit_writes_the_same_model_at_one_and_two_blas_threads(tmp_path):
    # the reproduction script's --quick training set: the warm-start ridge
    # and minimax fits both run at one thread in either process
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"model_{threads}.txt"
        result = run_python("-m", "twostage.cli", "fit", "--method", "minimax", "--m-theta", "100",
                            "--n-obs", "1000", "--n-quantiles", "10", "--out", str(out),
                            OPENBLAS_NUM_THREADS=threads)
        assert result.returncode == 0, result.stderr
        models.append(out.read_bytes())
    assert models[0] == models[1]
