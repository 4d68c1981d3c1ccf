"""Uniform and reciprocal parameter distributions."""

import math

import numpy as np
import pytest

from twostage import PriorKind, PriorSpec, SeedSpec
from twostage.priors import prior_inverse_cdf
from twostage.rng import stream


class TestSpec:
    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 2.0), (2.0, 2.0), (3.0, 1.0)])
    def test_rejects_bad_interval(self, lo, hi):
        with pytest.raises(ValueError):
            PriorSpec(PriorKind.UNIFORM, lo, hi)

    def test_kind_coercion_from_string(self):
        spec = PriorSpec("reciprocal", 1.0, 20.0)
        assert spec.kind is PriorKind.RECIPROCAL
        with pytest.raises(ValueError):
            PriorSpec("gaussian", 1.0, 2.0)


class TestInverseCdf:
    def test_reciprocal_endpoints(self):
        spec = PriorSpec(PriorKind.RECIPROCAL, 1.5, 12.0)
        assert prior_inverse_cdf(0.0, spec) == 1.5
        assert prior_inverse_cdf(1.0 - 1e-12, spec) == pytest.approx(12.0, rel=1e-9)

    def test_reciprocal_midpoint(self):
        # a*(b/a)^0.5 with a=1, b=20
        spec = PriorSpec(PriorKind.RECIPROCAL, 1.0, 20.0)
        assert prior_inverse_cdf(0.5, spec) == pytest.approx(math.sqrt(20.0), rel=1e-15)

    def test_uniform_affine_map(self):
        spec = PriorSpec(PriorKind.UNIFORM, 1.0, 20.0)
        assert prior_inverse_cdf(0.25, spec) == pytest.approx(1.0 + 19.0 * 0.25)

    def test_rejects_u_out_of_range(self):
        spec = PriorSpec(PriorKind.UNIFORM, 1.0, 2.0)
        with pytest.raises(ValueError):
            prior_inverse_cdf(1.0, spec)
        with pytest.raises(ValueError):
            prior_inverse_cdf(-0.1, spec)


class TestSampling:
    # parameters are drawn as training and scatter draw them: the inverse
    # CDF of a seeded stream's uniforms

    def test_uniform_mean(self):
        spec = PriorSpec(PriorKind.UNIFORM, 1.0, 20.0)
        draws = prior_inverse_cdf(stream(SeedSpec(3)).random(10**6), spec)
        assert draws.mean() == pytest.approx(10.5, rel=0.01)

    def test_deterministic(self):
        spec = PriorSpec(PriorKind.RECIPROCAL, 1.0, 20.0)
        a = prior_inverse_cdf(stream(SeedSpec(8, 2)).random(500), spec)
        b = prior_inverse_cdf(stream(SeedSpec(8, 2)).random(500), spec)
        np.testing.assert_array_equal(a, b)

    def test_reciprocal_kolmogorov_smirnov(self):
        spec = PriorSpec(PriorKind.RECIPROCAL, 1.0, 20.0)
        draws = np.sort(prior_inverse_cdf(stream(SeedSpec(17)).random(10**5), spec))
        n = draws.size
        cdf = np.log(draws / spec.lower) / math.log(spec.upper / spec.lower)
        ks = max(
            np.max(np.arange(1, n + 1) / n - cdf),
            np.max(cdf - np.arange(0, n) / n),
        )
        assert ks < 0.01

