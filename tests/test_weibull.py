"""Weibull parameters, the row-wise quantile function, the uniform order
statistics draw, and the test-data sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from twostage import SeedSpec, WeibullParams
from twostage.compression import quantile_plan
from twostage.rng import stream
from twostage.weibull import sample_uniform_order_statistics, weibull_quantile_rows

from oracles import sample_weibull, sorted_uniform_order_statistics, weibull_quantile

PARAM_GRID = [
    WeibullParams(1.0, 1.0),
    WeibullParams(2.0, 2.0),
    WeibullParams(2.0, 8.0),
    WeibullParams(8.0, 2.0),
    WeibullParams(0.5, 0.7),
    WeibullParams(20.0, 15.0),
]


class TestParams:
    @pytest.mark.parametrize("scale,shape", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0), (2.0, -3.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_nonpositive(self, scale, shape):
        with pytest.raises(ValueError):
            WeibullParams(scale, shape)


def quantile(p, params: WeibullParams):
    """weibull_quantile_rows of p as a single row of params."""
    p = np.asarray(p, dtype=float)
    q = weibull_quantile_rows(p.reshape(1, -1), [params.scale], [params.shape])
    return q.reshape(p.shape)


def cdf(x, params: WeibullParams):
    """1 - exp(-(x/scale)^shape), the inverse of the quantile function."""
    return -np.expm1(-((np.asarray(x) / params.scale) ** params.shape))


class TestQuantile:
    def test_zero_maps_to_zero(self):
        assert quantile(0.0, WeibullParams(5.0, 3.0)) == 0.0

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_unit_mass_point_maps_to_scale(self, params):
        assert quantile(1.0 - math.exp(-1.0), params) == pytest.approx(
            params.scale, rel=1e-14
        )

    def test_median_two_two(self):
        # scale * (ln 2)^(1/2)
        assert quantile(0.5, WeibullParams(2.0, 2.0)) == pytest.approx(
            2.0 * math.sqrt(math.log(2.0)), rel=1e-15
        )

    def test_median_matches_empirical(self):
        y = quantile(stream(SeedSpec(11)).random(10**6), WeibullParams(2.0, 2.0))
        assert np.median(y) == pytest.approx(1.6651092223153954, rel=5e-3)

    @pytest.mark.parametrize("p", [-0.01, 1.0, 1.5])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            quantile(p, WeibullParams(1.0, 1.0))

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_cdf_round_trip(self, params):
        # keep the grid below where the CDF saturates to 1.0 in float64
        hi = quantile(1.0 - 1e-6, params)
        x = np.geomspace(1e-3 * params.scale, hi, 40)
        back = quantile(cdf(x, params), params)
        np.testing.assert_allclose(back, x, rtol=1e-10)

    def test_ratio_invariant_in_scale(self):
        # quantile ratios depend only on the shape
        for gamma in (0.8, 2.0, 9.0):
            p, q = 0.31, 0.77
            r1 = quantile(p, WeibullParams(1.3, gamma)) / quantile(
                q, WeibullParams(1.3, gamma)
            )
            r2 = quantile(p, WeibullParams(17.0, gamma)) / quantile(
                q, WeibullParams(17.0, gamma)
            )
            assert r1 == pytest.approx(r2, rel=1e-12)

    @given(
        p=st.floats(min_value=0.0, max_value=0.999999, exclude_max=False),
        q=st.floats(min_value=0.0, max_value=0.999999),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_p(self, p, q):
        params = WeibullParams(2.0, 3.0)
        lo, hi = sorted((p, q))
        assert quantile(lo, params) <= quantile(hi, params)


class TestSampling:
    def test_single_draw_is_inverse_cdf_of_stream(self):
        seed = SeedSpec(909)
        u = stream(seed).random(1)
        assert sample_weibull(1, WeibullParams(3.0, 0.9), seed)[0] == weibull_quantile(
            u[0], WeibullParams(3.0, 0.9)
        )

    def test_deterministic_given_seed(self):
        seed = SeedSpec(5, 3)
        a = sample_weibull(1000, WeibullParams(2.0, 2.0), seed)
        b = sample_weibull(1000, WeibullParams(2.0, 2.0), seed)
        np.testing.assert_array_equal(a, b)
        c = sample_weibull(1000, WeibullParams(2.0, 2.0), SeedSpec(5, 4))
        assert not np.array_equal(a, c)

    def test_mean_matches_gamma_function(self):
        y = sample_weibull(10**6, WeibullParams(2.0, 2.0), SeedSpec(21))
        # scale * Gamma(1 + 1/shape)
        assert y.mean() == pytest.approx(2.0 * math.gamma(1.5), rel=0.01)

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            sample_weibull(0, WeibullParams(1.0, 1.0), SeedSpec(0))


def hotelling_t2(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Hotelling T^2 of the row means of a and b; for equal laws
    and many rows it is about chi-squared with one degree per column."""
    na, nb = len(a), len(b)
    diff = a.mean(axis=0) - b.mean(axis=0)
    pooled = (
        (na - 1) * np.cov(a, rowvar=False) + (nb - 1) * np.cov(b, rowvar=False)
    ) / (na + nb - 2)
    return na * nb / (na + nb) * float(diff @ np.linalg.solve(pooled, diff))


def logit(u: np.ndarray) -> np.ndarray:
    return np.log(u) - np.log1p(-u)


class TestUniformOrderStatistics:
    # the protocol's size, and a small sample: at N = 1e4 a gamma shape off
    # by one moves the statistics too little to see in 3000 rows
    @pytest.mark.parametrize("n_samples,n", [(10000, 10), (40, 4)])
    def test_matches_sort_oracle_in_law(self, n_samples, n):
        # the order statistics are strongly correlated (adjacent ranks almost
        # perfectly), so their joint law is tested, not one margin at a time
        ranks = quantile_plan(n_samples, n).ranks
        rows = 3000
        fast = sample_uniform_order_statistics(
            stream(SeedSpec(41), 0), n_samples, ranks, rows
        )
        slow = sorted_uniform_order_statistics(
            stream(SeedSpec(41), 1), n_samples, ranks, rows
        )
        a, b = logit(fast), logit(slow)
        assert hotelling_t2(a, b) < chi2.ppf(0.999, ranks.size)
        sd_ratio = a.std(axis=0) / b.std(axis=0)
        assert np.all((sd_ratio > 0.9) & (sd_ratio < 1.1)), sd_ratio

    def test_rows_are_ascending_uniforms_below_one(self):
        # at n_samples = 1e15 the ratio for the sample maximum rounds to 1.0
        # in about one row in ten; a uniform draw never reaches 1
        n_samples = 10**15
        ranks = quantile_plan(n_samples, 3).ranks
        u = sample_uniform_order_statistics(stream(SeedSpec(43)), n_samples, ranks, 200)
        assert u.shape == (200, ranks.size)
        assert np.all(u >= 0) and np.all(u < 1)
        assert np.all(np.diff(u, axis=1) >= 0)

    @pytest.mark.parametrize("ranks", [[], [3, 3], [5, 2], [-1, 2], [0, 10], [[1, 2]]])
    def test_rejects_bad_ranks(self, ranks):
        with pytest.raises(ValueError):
            sample_uniform_order_statistics(stream(SeedSpec(44)), 10, ranks, 1)
