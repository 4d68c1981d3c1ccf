"""Fisher information closed form, its Monte-Carlo validation, and the
variance lower bounds."""

import math

import numpy as np
import pytest

from twostage import SeedSpec, WeibullParams, crlb, fisher_per_sample
from twostage.crlb import EULER_GAMMA

from oracles import fisher_oracle, sample_weibull, weibull_score

# published benchmark grid: (scale, shape) -> (bound_scale, bound_shape) at N = 10000
TABLE_BOUNDS = {
    (2.0, 2.0): (1.11e-4, 2.43e-4),
    (2.0, 8.0): (6.93e-6, 3.89e-3),
    (4.0, 2.0): (4.43e-4, 2.43e-4),
    (4.0, 8.0): (2.77e-5, 3.89e-3),
    (8.0, 2.0): (1.77e-3, 2.43e-4),
    (8.0, 8.0): (1.11e-4, 3.89e-3),
}


def round_sig(x, sig=3):
    if x == 0:
        return 0.0
    exp = math.floor(math.log10(abs(x)))
    return round(x, sig - 1 - exp)


class TestClosedForm:
    def test_two_two_entries(self):
        info = fisher_per_sample(WeibullParams(2.0, 2.0))
        assert info[0, 0] == pytest.approx(1.0, rel=1e-15)
        c = 1.0 - EULER_GAMMA
        assert info[0, 1] == pytest.approx(-c / 2.0, rel=1e-15)
        assert info[1, 1] == pytest.approx((math.pi**2 / 6.0 + c * c) / 4.0, rel=1e-15)

    def test_shape_block_ignores_scale(self):
        a = fisher_per_sample(WeibullParams(1.0, 3.0))[1, 1]
        b = fisher_per_sample(WeibullParams(50.0, 3.0))[1, 1]
        assert a == b

    @pytest.mark.parametrize("eta", [1.0, 2.0, 8.0, 20.0])
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 8.0, 20.0])
    def test_positive_definite_on_grid(self, eta, gamma):
        info = fisher_per_sample(WeibullParams(eta, gamma))
        assert info.shape == (2, 2)
        np.testing.assert_array_equal(info, info.T)
        assert info[0, 0] > 0
        assert np.linalg.det(info) > 0


class TestCrlb:
    @pytest.mark.parametrize("point,expected", sorted(TABLE_BOUNDS.items()))
    def test_reproduces_published_grid_to_three_figures(self, point, expected):
        bounds = crlb(WeibullParams(*point), 10000)
        assert round_sig(bounds[0]) == pytest.approx(expected[0], rel=1e-12)
        assert round_sig(bounds[1]) == pytest.approx(expected[1], rel=1e-12)

    def test_scales_inversely_with_sample_count(self):
        params = WeibullParams(3.0, 5.0)
        one = crlb(params, 1000)
        four = crlb(params, 4000)
        assert one[0] / 4.0 == four[0]
        assert one[1] / 4.0 == four[1]

    def test_scale_bound_quadratic_in_scale(self):
        for c in (2.0, 5.0):
            base = crlb(WeibullParams(2.0, 3.0), 100)
            scaled = crlb(WeibullParams(2.0 * c, 3.0), 100)
            assert scaled[0] == pytest.approx(c * c * base[0], rel=1e-12)
            assert scaled[1] == pytest.approx(base[1], rel=1e-12)

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            crlb(WeibullParams(1.0, 1.0), 0)


class TestScore:
    def test_mean_score_vanishes(self):
        params = WeibullParams(2.0, 2.0)
        x = sample_weibull(10**6, params, SeedSpec(41))
        s = weibull_score(x, params)
        info = fisher_per_sample(params)
        se = np.sqrt(np.diag(info) / x.size)
        assert abs(s[:, 0].mean()) <= 3 * se[0]
        assert abs(s[:, 1].mean()) <= 3 * se[1]

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            weibull_score(np.array([1.0, 0.0]), WeibullParams(1.0, 1.0))


class TestOracle:
    def test_matches_closed_form_within_one_percent(self):
        params = WeibullParams(2.0, 2.0)
        est = fisher_oracle(params, 10**6, SeedSpec(51))
        ref = fisher_per_sample(params)
        np.testing.assert_allclose(est, ref, rtol=0.01)

    def test_deterministic_given_seed(self):
        params = WeibullParams(3.0, 1.5)
        a = fisher_oracle(params, 10**5, SeedSpec(71))
        b = fisher_oracle(params, 10**5, SeedSpec(71))
        np.testing.assert_array_equal(a, b)

    def test_two_seeds_agree_within_monte_carlo_error(self):
        params = WeibullParams(2.0, 8.0)
        a = fisher_oracle(params, 2 * 10**5, SeedSpec(61))
        b = fisher_oracle(params, 2 * 10**5, SeedSpec(62))
        # crude per-entry sigma from the larger magnitudes involved
        scale = np.abs(a) + np.abs(b) + 1e-12
        assert np.all(np.abs(a - b) / scale < 0.05)

    def test_rejects_small_draw_counts(self):
        with pytest.raises(ValueError):
            fisher_oracle(WeibullParams(1.0, 1.0), 10**4, SeedSpec(0))
