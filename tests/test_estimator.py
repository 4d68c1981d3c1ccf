"""End-to-end pipeline: training-set generation, Bayes/minimax fits,
prediction, and model serialization."""

import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from twostage import (
    METHOD_BAYES,
    METHOD_MINIMAX,
    PriorKind,
    PriorSpec,
    SeedSpec,
    TrainingConfig,
    TSModel,
    WeibullParams,
    estimate,
    fit_bayes,
    fit_minimax,
    generate_training_set,
    load_model,
    save_model,
)
from twostage import estimator, solvers
from twostage import compression
from twostage.compression import (
    DegenerateInputError,
    FeatureKind,
    order_statistics,
    quantile_plan,
    readout_basis,
    scale_feature_len,
    shape_feature_len,
    shape_features,
    sorted_quantiles,
)
from twostage.estimator import (
    THETA_STREAM,
    TRAIN_DATA_STREAM,
    build_feature_matrix,
    estimate_from_quantiles,
    fit_methods,
    simulated_quantiles,
)
from twostage.experiment import ExperimentConfig, evaluation_quantiles, scatter_datasets
from twostage.rng import stream
from twostage.weibull import sample_uniform_order_statistics, weibull_quantile_rows

from oracles import weibull_quantile

SMALL = TrainingConfig(
    m_theta=25,
    m_y=1,
    n_obs=300,
    n_quantiles=5,
    ridge=1e-8,
    theta_distribution=PriorSpec(PriorKind.UNIFORM, 1.0, 20.0),
    seed=SeedSpec(77),
)


class TestTrainingConfig:
    def test_defaults_mirror_protocol(self):
        cfg = TrainingConfig()
        assert (cfg.m_theta, cfg.m_y, cfg.n_obs, cfg.n_quantiles) == (1000, 1, 10000, 10)
        assert cfg.ridge == 1e-8
        assert cfg.theta_distribution.kind is PriorKind.UNIFORM
        assert (cfg.theta_distribution.lower, cfg.theta_distribution.upper) == (1.0, 20.0)

    def test_rejects_quantiles_at_or_above_n_obs(self):
        with pytest.raises(ValueError):
            TrainingConfig(n_obs=10, n_quantiles=10)

    def test_fingerprint_tracks_fields(self):
        a = TrainingConfig(seed=SeedSpec(1))
        b = TrainingConfig(seed=SeedSpec(2))
        assert a.fingerprint() == TrainingConfig(seed=SeedSpec(1)).fingerprint()
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprints_are_pinned(self):
        # every saved model carries one, so the digested payload must not drift
        assert TrainingConfig(seed=SeedSpec(1)).fingerprint() == "2328090a71bcc309"
        assert TrainingConfig().fingerprint() == "bcb0505c35abfd34"


class TestGenerateTrainingSet:
    def test_single_pair_composition(self):
        # the row is the compression of any sorted dataset whose order
        # statistics at the plan's ranks are the drawn ones, mapped through
        # the quantile function of the parameter draw
        cfg = TrainingConfig(
            m_theta=1, n_obs=200, n_quantiles=4, seed=SeedSpec(13)
        )
        ts = generate_training_set(cfg)
        params = WeibullParams(ts.thetas[0, 0], ts.thetas[0, 1])
        ranks = quantile_plan(cfg.n_obs, cfg.n_quantiles).ranks
        u = sample_uniform_order_statistics(
            stream(cfg.seed, TRAIN_DATA_STREAM, 0), cfg.n_obs, ranks, 1
        )[0]
        dataset = np.interp(np.arange(cfg.n_obs), ranks, weibull_quantile(u, params))
        expected = sorted_quantiles(order_statistics(dataset), cfg.n_quantiles)
        np.testing.assert_array_equal(ts.alphas[0], expected)
        assert ts.parent_index.tolist() == [0]

    def test_theta_draws_use_configured_distribution(self):
        cfg = TrainingConfig(m_theta=8, n_obs=50, n_quantiles=3, seed=SeedSpec(14))
        ts = generate_training_set(cfg)
        from twostage.priors import prior_inverse_cdf

        expected = prior_inverse_cdf(
            stream(cfg.seed, THETA_STREAM, 0).random(8), cfg.theta_distribution
        )
        np.testing.assert_array_equal(ts.thetas[:, 0], expected)

    @pytest.mark.parametrize("extra", [1, 2, 5])
    def test_schedule_independent(self, extra):
        # the datasets of each parameter draw, of each evaluation point and
        # of the scatter set are consecutive rows of their own sub-stream, so
        # a run with more draws, replicates or Monte-Carlo runs extends a
        # smaller one row for row
        cfg = TrainingConfig(m_theta=6, m_y=2, n_obs=300, n_quantiles=5, seed=SeedSpec(18))
        big = replace(cfg, m_theta=cfg.m_theta + extra, m_y=cfg.m_y + extra)
        small_set, big_set = generate_training_set(cfg), generate_training_set(big)
        np.testing.assert_array_equal(big_set.thetas[: cfg.m_theta], small_set.thetas)
        rows = big_set.alphas.reshape(big.m_theta, big.m_y, -1)[: cfg.m_theta, : cfg.m_y]
        np.testing.assert_array_equal(rows.reshape(small_set.alphas.shape), small_set.alphas)

        points = ((2.0, 2.0), (8.0, 8.0))
        short = ExperimentConfig(training=cfg, eval_points=points, mc_runs=3)
        long = ExperimentConfig(training=big, eval_points=points, mc_runs=3 + extra)
        np.testing.assert_array_equal(
            evaluation_quantiles(long)[:, :3], evaluation_quantiles(short)
        )
        for long_part, short_part in zip(scatter_datasets(long), scatter_datasets(short)):
            np.testing.assert_array_equal(long_part[: cfg.m_theta], short_part)

    def test_rows_equal_per_dataset_compression(self):
        # replicate j of parameter draw i is row i of replicate j's
        # sub-stream, compressed through the quantile function of draw i
        cfg = TrainingConfig(m_theta=6, m_y=2, n_obs=300, n_quantiles=5, seed=SeedSpec(17))
        ts = generate_training_set(cfg)
        plan = quantile_plan(cfg.n_obs, cfg.n_quantiles)
        for j in range(cfg.m_y):
            u = sample_uniform_order_statistics(
                stream(cfg.seed, TRAIN_DATA_STREAM, j), cfg.n_obs, plan.ranks, cfg.m_theta
            )
            for i in range(cfg.m_theta):
                params = WeibullParams(ts.thetas[i, 0], ts.thetas[i, 1])
                expected = plan.quantiles(weibull_quantile(u[i], params))
                np.testing.assert_array_equal(ts.alphas[i * cfg.m_y + j], expected)

    def test_generator_count_does_not_grow_with_m_theta(self, monkeypatch):
        # two streams for the parameter draws and one per replicate
        calls = []

        def counting_stream(*args):
            calls.append(args)
            return stream(*args)

        monkeypatch.setattr(estimator, "stream", counting_stream)
        counts = []
        for m_theta in (50, 500):
            calls.clear()
            generate_training_set(
                TrainingConfig(m_theta=m_theta, n_obs=300, n_quantiles=5, seed=SeedSpec(19))
            )
            counts.append(len(calls))
        assert counts == [3, 3]

    def test_cost_does_not_grow_with_n_obs(self):
        # drawing and sorting 10**12 observations would take 8 TB per dataset
        cfg = TrainingConfig(m_theta=4, n_obs=10**12, n_quantiles=10, seed=SeedSpec(20))
        assert generate_training_set(cfg).alphas.shape == (4, 10)
        ranks = quantile_plan(cfg.n_obs, cfg.n_quantiles).ranks
        draws = sample_uniform_order_statistics(
            stream(cfg.seed, TRAIN_DATA_STREAM, 0), cfg.n_obs, ranks, 4
        )
        assert draws.shape == (4, 19)
        # the k-th smallest of N uniforms has mean k/(N+1) and, here, a
        # relative standard deviation below 4e-6
        expected = np.tile((ranks + 1) / (cfg.n_obs + 1), (4, 1))
        np.testing.assert_allclose(draws, expected, rtol=1e-4)

    def test_parameter_vectors_on_one_path_read_the_same_draws(self):
        # one path's order statistics, whatever the parameters mapped
        # through them
        cfg = TrainingConfig(n_obs=300, n_quantiles=5, seed=SeedSpec(21))
        plan = quantile_plan(cfg.n_obs, cfg.n_quantiles)
        u = sample_uniform_order_statistics(stream(cfg.seed, 9, 1), cfg.n_obs, plan.ranks, 6)
        vectors = np.random.default_rng(21).uniform(1.0, 20.0, (2, 2, 6))
        for scales, shapes in vectors:
            alphas = simulated_quantiles(cfg, (9, 1), scales, shapes)
            np.testing.assert_array_equal(
                alphas, plan.quantiles(weibull_quantile_rows(u, scales, shapes))
            )

    def test_replicates_share_parent(self):
        cfg = TrainingConfig(m_theta=3, m_y=2, n_obs=60, n_quantiles=3, seed=SeedSpec(15))
        ts = generate_training_set(cfg)
        assert ts.alphas.shape == (6, 3)
        assert ts.parent_index.tolist() == [0, 0, 1, 1, 2, 2]
        assert not np.array_equal(ts.alphas[0], ts.alphas[1])

    def test_prior_mean_within_three_standard_errors(self):
        cfg = TrainingConfig(m_theta=1000, n_obs=20, n_quantiles=2, seed=SeedSpec(16))
        ts = generate_training_set(cfg)
        se = (19.0 / np.sqrt(12.0)) / np.sqrt(1000.0)
        assert abs(ts.thetas[:, 0].mean() - 10.5) <= 3 * se
        assert abs(ts.thetas[:, 1].mean() - 10.5) <= 3 * se


class TestFits:
    def test_bayes_model_shape(self):
        model = fit_bayes(SMALL)
        assert model.method == METHOD_BAYES
        assert model.beta_scale.beta.size == scale_feature_len(5)
        assert model.beta_shape.beta.size == shape_feature_len(5)
        assert model.config_fingerprint == SMALL.fingerprint()

    def test_constant_parameter_training_recovers_intercept(self):
        # all theta_i equal => shape fit concentrates on the intercept as ridge -> 0
        cfg = TrainingConfig(
            m_theta=400,
            n_obs=40,
            n_quantiles=2,
            ridge=1e-15,
            theta_distribution=PriorSpec(PriorKind.UNIFORM, 3.0, 3.0 + 3e-9),
            seed=SeedSpec(5),
        )
        model = fit_bayes(cfg)
        assert abs(model.beta_shape.beta[0] - 3.0) <= 1e-6
        # fresh data from theta* is read back as theta*
        y = weibull_quantile(stream(SeedSpec(123), 9, 0).random(cfg.n_obs), WeibullParams(3.0, 3.0))
        _, gamma_hat = estimate(model, y)
        assert gamma_hat == pytest.approx(3.0, abs=1e-4)

    def test_replicated_datasets_fit(self):
        cfg = TrainingConfig(m_theta=10, m_y=3, n_obs=80, n_quantiles=3, seed=SeedSpec(21))
        model = fit_bayes(cfg)
        assert model.beta_scale.beta.size == scale_feature_len(3)
        y = weibull_quantile(stream(SeedSpec(22), 0).random(100), WeibullParams(4.0, 4.0))
        eta_hat, gamma_hat = estimate(model, y)
        assert np.isfinite(eta_hat) and np.isfinite(gamma_hat)

    def test_minimax_single_draw_meets_bayes(self):
        cfg = TrainingConfig(m_theta=1, n_obs=120, n_quantiles=3, seed=SeedSpec(19))
        bayes = fit_bayes(cfg)
        minimax = fit_minimax(cfg)
        np.testing.assert_allclose(
            bayes.beta_scale.beta, minimax.beta_scale.beta, rtol=1e-6, atol=1e-9
        )
        np.testing.assert_allclose(
            bayes.beta_shape.beta, minimax.beta_shape.beta, rtol=1e-6, atol=1e-9
        )

    def test_shape_features_have_full_column_rank(self):
        # the protocol's training set (seed 1): no shape column repeats another
        ts = generate_training_set(TrainingConfig(seed=SeedSpec(1)))
        phi = build_feature_matrix(ts.alphas, FeatureKind.SHAPE)
        assert phi.shape[1] == 165
        assert np.linalg.matrix_rank(phi) == 165

    def test_minimax_dominates_bayes_on_worst_row(self):
        ts = generate_training_set(SMALL)
        targets = ts.thetas[ts.parent_index]
        phi = build_feature_matrix(ts.alphas, FeatureKind.SCALE)
        problem = solvers.RegressionProblem(phi, targets[:, 0], SMALL.ridge)
        ridge_fit = solvers.fit_ridge(problem)
        mm_fit = solvers.fit_minimax(problem)
        worst_ridge, _ = solvers.evaluate_max_quadratic(ridge_fit.beta, problem)
        assert mm_fit.objective <= worst_ridge + 1e-6

    @pytest.mark.parametrize("method", [METHOD_BAYES, METHOD_MINIMAX])
    def test_perturbing_coefficients_never_improves(self, method):
        ts = generate_training_set(SMALL)
        (model,) = fit_methods(ts, SMALL.ridge, (method,))
        targets = ts.thetas[ts.parent_index]
        phi = build_feature_matrix(ts.alphas, FeatureKind.SCALE)
        problem = solvers.RegressionProblem(phi, targets[:, 0], SMALL.ridge)
        beta = model.beta_scale.beta
        if method == METHOD_BAYES:
            objective = lambda b: solvers.mean_squared_objective(b, problem)
            slack = 0.0
        else:
            objective = lambda b: solvers.evaluate_max_quadratic(b, problem)[0]
            slack = model.beta_scale.certificate
        base = objective(beta)
        rng = np.random.default_rng(202)
        for _ in range(20):
            d = rng.normal(size=beta.size)
            d *= 1e-3 / np.linalg.norm(d)
            assert objective(beta + d) >= base - slack - 1e-12
            assert objective(beta - d) >= base - slack - 1e-12


class TestEstimate:
    def test_permutation_invariant(self):
        model = fit_bayes(SMALL)
        y = weibull_quantile(stream(SeedSpec(501), 0).random(300), WeibullParams(2.0, 2.0))
        rng = np.random.default_rng(4)
        shuffled = y.copy()
        rng.shuffle(shuffled)
        assert estimate(model, shuffled) == estimate(model, y)

    def test_unit_vector_reads_first_quantile(self):
        n = 4
        e1 = np.zeros(scale_feature_len(n))
        e1[0] = 1.0
        model = TSModel(
            beta_scale=solvers.Coefficients(e1, 0.0, 0.0),
            beta_shape=solvers.Coefficients(np.zeros(shape_feature_len(n)), 0.0, 0.0),
            n_quantiles=n,
            method=METHOD_BAYES,
            config_fingerprint="",
        )
        y = np.linspace(1.0, 2.0, 50)
        eta_hat, gamma_hat = estimate(model, y)
        assert eta_hat == sorted_quantiles(order_statistics(y), n)[0]
        assert gamma_hat == 0.0

    def test_rejects_rows_of_another_quantile_count(self):
        model = fit_bayes(SMALL)
        alphas = generate_training_set(SMALL).alphas
        estimate_from_quantiles(model, alphas)
        with pytest.raises(ValueError, match="model has 5 quantiles, rows have 4"):
            estimate_from_quantiles(model, alphas[:, :4])

    def test_needs_more_observations_than_quantiles(self):
        model = fit_bayes(SMALL)
        with pytest.raises(ValueError):
            estimate(model, np.ones(SMALL.n_quantiles))

    def test_rejects_a_sample_that_is_not_a_vector(self):
        model = fit_bayes(SMALL)
        y = weibull_quantile(stream(SeedSpec(503), 0).random(300), WeibullParams(3.0, 2.0))
        estimate(model, y)
        with pytest.raises(ValueError, match="1-D vector"):
            estimate(model, y.reshape(30, 10))

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda y: np.concatenate([-y[:50], y[50:]]),
            lambda y: np.append(y, 0.0),
            lambda y: np.append(y, np.nan),
            lambda y: np.append(y, np.inf),
            lambda y: np.append(y, -np.inf),
        ],
        ids=["negated", "zero", "nan", "inf", "minus-inf"],
    )
    def test_rejects_non_positive_or_non_finite_observations(self, corrupt):
        model = fit_bayes(SMALL)
        y = weibull_quantile(stream(SeedSpec(502), 0).random(300), WeibullParams(3.0, 2.0))
        estimate(model, y)
        with pytest.raises(ValueError, match="positive and finite"):
            estimate(model, corrupt(y))


def protocol_rows(n: int, rows: int, seed: int = 5) -> np.ndarray:
    """Quantile rows of N = 10,000 datasets at parameters drawn uniformly
    from the protocol's range [1, 20]."""
    config = TrainingConfig(n_quantiles=n, seed=SeedSpec(seed))
    params = np.random.default_rng(seed).uniform(1.0, 20.0, (2, rows))
    return simulated_quantiles(config, (9, 0), *params)


def random_model(n: int, seed: int) -> TSModel:
    """A model of random coefficients, of magnitudes spread over decades."""
    rng = np.random.default_rng(seed)

    def coefficients(size):
        beta = rng.normal(size=size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
        return solvers.Coefficients(beta, 0.0, 0.0)

    return TSModel(coefficients(scale_feature_len(n)), coefficients(shape_feature_len(n)),
                   n, METHOD_BAYES, "")


class TestQuadraticFormReadout:
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_long_double_feature_readout(self, n, seed):
        model = random_model(n, seed)
        alphas = protocol_rows(n, 300, seed)
        phi, beta = shape_features(alphas), model.beta_shape.beta
        reference = phi.astype(np.longdouble) @ beta.astype(np.longdouble)
        got = estimate_from_quantiles(model, alphas)
        error = np.abs(got[:, 1] - reference).astype(float)
        assert np.all(error <= 1e-15 * np.abs(phi * beta).sum(axis=1))
        # the scale column is the explicit feature readout, bit for bit
        scale = np.vecdot(readout_basis(alphas)[:, : scale_feature_len(n)], model.beta_scale.beta)
        np.testing.assert_array_equal(got[:, 0], scale)

    def test_fitted_model_matches_long_double_feature_readout(self):
        model = fit_bayes(SMALL)
        alphas = generate_training_set(replace(SMALL, seed=SeedSpec(78))).alphas
        phi, beta = shape_features(alphas), model.beta_shape.beta
        reference = phi.astype(np.longdouble) @ beta.astype(np.longdouble)
        error = np.abs(estimate_from_quantiles(model, alphas)[:, 1] - reference).astype(float)
        assert np.all(error <= 1e-15 * np.abs(phi * beta).sum(axis=1))

    def test_zero_first_quantile_is_degenerate(self):
        with pytest.raises(DegenerateInputError, match="first quantile is zero"):
            estimate_from_quantiles(random_model(3, 0), [[0.0, 1.0, 2.0]])

    def test_zero_top_quantile_is_degenerate(self):
        model = random_model(3, 0)
        # in an ordered row a zero top quantile follows a first quantile that
        # is not positive, which the first-quantile check rejects
        with pytest.raises(DegenerateInputError, match="first quantile is zero or negative"):
            estimate_from_quantiles(model, [[1.0, 2.0, 3.0], [-2.0, -1.0, 0.0]])

    def test_negative_row_is_degenerate(self):
        # ordered, finite and free of zeros, but no positive sample has
        # these quantiles (test_feature_matrix_checks_both_pivots feeds the
        # fits' feature maps a negative row)
        with pytest.raises(DegenerateInputError, match="first quantile is zero or negative"):
            estimate_from_quantiles(fit_bayes(SMALL), [[-5.0, -4.0, -3.0, -2.0, -1.0]])

    def test_does_not_build_shape_features(self, monkeypatch):
        model = fit_bayes(SMALL)
        y = weibull_quantile(stream(SeedSpec(503), 0).random(300), WeibullParams(3.0, 2.0))
        alphas = protocol_rows(SMALL.n_quantiles, 20)
        expected = estimate(model, y), estimate_from_quantiles(model, alphas)

        def refuse(alphas):
            raise AssertionError("the readout built the explicit shape features")

        monkeypatch.setattr(compression, "shape_features", refuse)
        monkeypatch.setattr(estimator, "shape_features", refuse)
        assert estimate(model, y) == expected[0]
        np.testing.assert_array_equal(estimate_from_quantiles(model, alphas), expected[1])


class TestReadoutIsBitExact:
    def test_row_reads_out_alike_alone_and_in_any_batch(self):
        # more rows than one readout block holds, and not a multiple of it
        model = fit_bayes(replace(SMALL, m_theta=200, n_obs=1000, n_quantiles=10))
        alphas = protocol_rows(10, estimator._BLOCK_ROWS + 3)
        batch = estimate_from_quantiles(model, alphas)
        alone = np.array([estimate_from_quantiles(model, row[None])[0] for row in alphas])
        np.testing.assert_array_equal(batch, alone)
        threes = [estimate_from_quantiles(model, alphas[r : r + 3]) for r in range(0, len(alphas), 3)]
        np.testing.assert_array_equal(batch, np.concatenate(threes))

    @pytest.mark.parametrize("size", [6, 11, 120, 10_000])
    def test_estimate_equals_readout_of_its_quantiles(self, size):
        # estimate's one-row quantiles and readout against the clamped lerp
        # and the batch readout, bit for bit: both methods at SMALL's n = 5
        # and the protocol's n = 10, sizes from N = n + 1 up, on Weibull
        # samples, on samples of three tied values and on samples spread
        # over 1e-150..1e150
        models = [
            model
            for config in (SMALL, replace(SMALL, m_theta=200, n_obs=1000, n_quantiles=10))
            for model in estimator.fit_methods(
                generate_training_set(config), config.ridge, (METHOD_BAYES, METHOD_MINIMAX)
            )
            if model.n_quantiles < size
        ]
        for r in range(20):
            rng = np.random.default_rng([size, r])
            params = WeibullParams(*rng.uniform(1.0, 20.0, 2))
            samples = (
                weibull_quantile(stream(SeedSpec(504), size, r).random(size), params),
                rng.integers(1, 4, size).astype(float),
                10.0 ** rng.uniform(-150.0, 150.0, size),
            )
            for y, model in itertools.product(samples, models):
                plan = quantile_plan(size, model.n_quantiles)
                alphas = plan.quantiles(np.sort(y)[plan.ranks])
                estimates = estimate(model, y)
                assert [type(value) for value in estimates] == [float, float]
                assert estimates == tuple(estimate_from_quantiles(model, alphas[None])[0])


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = fit_bayes(SMALL)
        path = save_model(model, tmp_path / "model.txt")
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.beta_scale.beta, model.beta_scale.beta)
        np.testing.assert_array_equal(loaded.beta_shape.beta, model.beta_shape.beta)
        assert loaded.beta_scale.objective == model.beta_scale.objective
        assert loaded.method == model.method
        assert loaded.n_quantiles == model.n_quantiles
        assert loaded.config_fingerprint == model.config_fingerprint
        # save(load(file)) reproduces the file byte for byte
        second = save_model(loaded, tmp_path / "model2.txt")
        assert second.read_bytes() == path.read_bytes()

    def test_rejects_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(bad)

    @staticmethod
    def _edited_model_file(tmp_path, edit):
        path = save_model(fit_bayes(SMALL), tmp_path / "model.txt")
        path.write_text(edit(path.read_text()))
        return path

    def test_rejects_non_finite_coefficient(self, tmp_path):
        def edit(text):
            head, body = text.split("\n\n")
            lines = body.splitlines()
            lines[3] = "nan"
            return head + "\n\n" + "\n".join(lines) + "\n"

        path = self._edited_model_file(tmp_path, edit)
        with pytest.raises(ValueError, match="model.txt"):
            load_model(path)

    def test_rejects_non_finite_header_number(self, tmp_path):
        def edit(text):
            lines = text.splitlines()
            lines = [
                "shape_objective: inf" if line.startswith("shape_objective:") else line
                for line in lines
            ]
            return "\n".join(lines) + "\n"

        path = self._edited_model_file(tmp_path, edit)
        with pytest.raises(ValueError, match="model.txt.*shape_objective"):
            load_model(path)

    def test_rejects_missing_header_key(self, tmp_path):
        def edit(text):
            lines = [line for line in text.splitlines() if not line.startswith("shape_objective:")]
            return "\n".join(lines) + "\n"

        path = self._edited_model_file(tmp_path, edit)
        with pytest.raises(ValueError, match="model.txt.*shape_objective"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text.replace("method: bayes\n", "method bayes\n"),
             "malformed header line 'method bayes'"),
            (lambda text: text.replace("n_quantiles: 5\n", "n_quantiles: five\n"),
             "malformed n_quantiles 'five'"),
            (lambda text: text.rstrip("\n") + "x\n", "malformed coefficient"),
            # a later value must not quietly win: this file would load as minimax
            (lambda text: text.replace("method: bayes\n", "method: bayes\nmethod: minimax\n"),
             "repeated header key 'method'"),
        ],
        ids=["header-line", "header-number", "coefficient", "repeated-key"],
    )
    def test_rejects_malformed_text(self, tmp_path, edit, message):
        path = self._edited_model_file(tmp_path, edit)
        with pytest.raises(ValueError, match=re.escape(f"model.txt: {message}")):
            load_model(path)

    def test_rejects_version_1_file(self, tmp_path):
        # version 1 files hold the shape map with repeated monomials
        path = self._edited_model_file(
            tmp_path, lambda text: text.replace("ts_model_version: 2\n", "ts_model_version: 1\n")
        )
        with pytest.raises(ValueError, match="model.txt: unsupported model version '1'.*refit"):
            load_model(path)

    def test_rejects_wrong_coefficient_count(self, tmp_path):
        model = fit_bayes(SMALL)
        path = save_model(model, tmp_path / "model.txt")
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-2]) + "\n")
        with pytest.raises(ValueError):
            load_model(path)

    def test_model_invariants_enforced(self):
        with pytest.raises(ValueError):
            TSModel(
                beta_scale=solvers.Coefficients(np.zeros(3), 0.0, 0.0),
                beta_shape=solvers.Coefficients(np.zeros(shape_feature_len(5)), 0.0, 0.0),
                n_quantiles=5,
                method=METHOD_BAYES,
                config_fingerprint="",
            )
        with pytest.raises(ValueError):
            TSModel(
                beta_scale=solvers.Coefficients(np.zeros(scale_feature_len(5)), 0.0, 0.0),
                beta_shape=solvers.Coefficients(np.zeros(shape_feature_len(5)), 0.0, 0.0),
                n_quantiles=5,
                method="mode",
                config_fingerprint="",
            )
