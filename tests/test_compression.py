"""Order statistics, sample quantiles, and the two feature maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import DegenerateInputError, SeedSpec, WeibullParams, order_statistics
from twostage.compression import (
    QuantilePlan,
    quantile_plan,
    readout_basis,
    row_basis,
    scale_feature_len,
    scale_features,
    shape_basis,
    shape_feature_len,
    shape_features,
    sorted_quantiles,
    validate_quantiles,
)

from oracles import (
    all_quadratic_monomials,
    sample_quantile,
    sample_weibull,
    two_sided_lerp,
    weibull_quantile,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
data_vectors = st.lists(finite_floats, min_size=2, max_size=60)
# multiples of 2^-20 below 2^20 in magnitude: every difference and lerp step
# between them stays a normal number, so scaling by 2^k is exact (halving a
# subnormal such as 5e-324 is not)
binary_grid_vectors = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40).map(lambda i: i * 2.0**-20),
    min_size=2,
    max_size=60,
)
TINY = float(np.finfo(float).smallest_subnormal)
# positive finite samples, sorted: any floats (subnormals and both ends of
# the range included), integer ties, ties a few ulps apart, subnormals, and
# powers of ten across 1e-300..1e300
positive_samples = st.one_of(
    st.lists(st.floats(min_value=TINY, allow_infinity=False), min_size=2, max_size=60),
    st.lists(st.integers(min_value=1, max_value=3).map(float), min_size=2, max_size=60),
    st.tuples(
        st.floats(min_value=TINY, max_value=1e300),
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=60),
    ).map(lambda t: [float(t[0] + k * np.spacing(t[0])) for k in t[1]]),
    st.lists(st.integers(min_value=1, max_value=2**20).map(lambda k: k * TINY),
             min_size=2, max_size=60),
    st.lists(st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
             min_size=2, max_size=60),
).map(sorted)


class TestOrderStatistics:
    def test_sorts_ascending(self):
        np.testing.assert_array_equal(order_statistics([3, 1, 2]), [1, 2, 3])
        np.testing.assert_array_equal(order_statistics([5.0]), [5.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            order_statistics([])

    @given(data_vectors, st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        np.testing.assert_array_equal(
            order_statistics(shuffled), order_statistics(values)
        )


class TestSampleQuantile:
    def test_p_one_is_maximum(self):
        assert sample_quantile([1.0, 4.0, 9.0], 1.0) == 9.0

    def test_midpoint_interpolation(self):
        assert sample_quantile([0.0, 10.0], 0.5) == 5.0

    def test_exact_position(self):
        # pos = 0.3 * 100 = 30 exactly on 1..101
        assert sample_quantile(np.arange(1.0, 102.0), 0.3) == 31.0

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.0001])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            sample_quantile([1.0, 2.0], p)

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            sample_quantile([1.0], 0.5)

    @given(
        data_vectors,
        st.floats(min_value=1e-6, max_value=1.0, exclude_max=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_numpy_linear(self, values, p):
        ys = order_statistics(values)
        ours = sample_quantile(ys, p)
        ref = float(np.quantile(ys, p, method="linear"))
        scale = max(1.0, float(np.max(np.abs(ys))))
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)


def compress(y, n: int) -> np.ndarray:
    """The n quantiles of y, as estimate computes them."""
    return sorted_quantiles(order_statistics(y), n)


class TestCompress:
    def test_constant_vector(self):
        out = compress([7.0] * 12, 4)
        np.testing.assert_array_equal(out, [7.0] * 4)

    def test_rejects_too_small_sample(self):
        # no quantile of one observation, and none at all for n = 0
        with pytest.raises(ValueError):
            compress([1.0], 1)
        with pytest.raises(ValueError):
            compress([1.0, 2.0, 3.0], 0)

    @given(data_vectors, st.integers(min_value=1, max_value=5), st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariant(self, values, n, rnd):
        if len(values) <= n:
            values = values + [0.0] * (n + 1 - len(values))
        shuffled = list(values)
        rnd.shuffle(shuffled)
        np.testing.assert_array_equal(
            compress(shuffled, n), compress(values, n)
        )

    @given(data_vectors, st.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_matches_sample_quantile_reference(self, values, n):
        # the vectorized interpolation repeats sample_quantile's arithmetic
        if len(values) <= n:
            values = values + [3.0] * (n + 1 - len(values))
        ys = order_statistics(values)
        expected = [sample_quantile(ys, k / n) for k in range(1, n + 1)]
        np.testing.assert_array_equal(compress(values, n), expected)

    @pytest.mark.parametrize("n_obs, n", [(2, 1), (11, 4), (101, 10), (1000, 7), (10000, 10)])
    def test_one_gather_lerp_matches_two_sided_lerp(self, n_obs, n):
        plan = quantile_plan(n_obs, n)
        stats = np.sort(np.random.default_rng(n_obs).weibull(1.5, (50, plan.ranks.size)), axis=1)
        for rows in (stats, stats[0]):
            np.testing.assert_array_equal(plan.quantiles(rows), two_sided_lerp(plan, rows))

    def test_one_gather_lerp_at_branch_edges(self):
        # frac 0, 1/2 and 1/2 +- 1 ulp (where the nearer end switches), and
        # fractions up to 1 ulp below 1
        frac = np.array([0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                         0.25, 0.75, 1.0 - 2.0**-30, np.nextafter(1.0, 0.0)])
        index = np.zeros(frac.size, dtype=np.intp)
        plan = QuantilePlan(np.arange(2), index, index + 1, frac)
        rng = np.random.default_rng(3)
        stats = np.sort(rng.uniform(-1.0, 1.0, (200, 2)) * 10.0 ** rng.integers(-8, 8, (200, 1)))
        stats[:3] = [[1.0, 1.0], [0.1, 0.3], [-1e307, 1e307]]
        np.testing.assert_array_equal(plan.quantiles(stats), two_sided_lerp(plan, stats))

    @given(positive_samples, st.integers(min_value=1, max_value=12))
    @settings(max_examples=300, deadline=None)
    def test_sorted_sample_lerp_is_the_clamped_lerp(self, values, n):
        # the ends of a sorted sample are ordered, so the clamp that
        # QuantilePlan.interpolate applies never fires on them
        ys = np.array(values)
        plan = quantile_plan(ys.size, n)
        ours = sorted_quantiles(ys, n)
        clamped = plan.interpolate(ys[plan.sample_gather])
        np.testing.assert_array_equal(ours.view(np.int64), clamped.view(np.int64))

    @given(data_vectors, st.integers(min_value=1, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_output_non_decreasing(self, values, n):
        if len(values) <= n:
            values = values + [1.0] * (n + 1 - len(values))
        out = compress(values, n)
        assert np.all(np.diff(out) >= 0)

    @given(
        binary_grid_vectors,
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=-3, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariant_power_of_two(self, values, n, k):
        # scaling by 2^k is exact in binary floating point
        if len(values) <= n:
            values = values + [2.0] * (n + 1 - len(values))
        c = 2.0**k
        np.testing.assert_array_equal(
            compress([c * v for v in values], n),
            c * compress(values, n),
        )

    def test_scale_equivariant_generic(self):
        rng = np.random.default_rng(4)
        y = rng.gamma(2.0, 3.0, size=500)
        for c in (0.37, 2.9, 113.0):
            np.testing.assert_allclose(
                compress(c * y, 10), c * compress(y, 10), rtol=1e-12
            )

    def test_consistency_at_analytic_quantile(self):
        params = WeibullParams(2.0, 2.0)
        y = sample_weibull(10**6, params, SeedSpec(31))
        alpha = compress(y, 10)
        assert alpha[4] == pytest.approx(
            weibull_quantile(0.5, params), rel=0.01
        )

    def test_nondegenerate_quantiles_converge(self):
        # k = n is the sample maximum and is excluded from this gate
        params = WeibullParams(2.0, 2.0)
        y = sample_weibull(10**5, params, SeedSpec(32))
        alpha = compress(y, 10)
        for k in range(1, 10):
            assert alpha[k - 1] == pytest.approx(
                weibull_quantile(k / 10, params), rel=0.02
            )


class TestValidateQuantiles:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            validate_quantiles(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            validate_quantiles(np.array([[1.0, np.inf]]))


def one_row(feature_map, values):
    """The feature map of one compressed vector."""
    return feature_map(np.asarray(values, dtype=float)[None])[0]


# quantile matrices: a few rows of n non-decreasing positive quantiles
quantile_rows = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=n, max_size=n).map(sorted),
        min_size=1,
        max_size=5,
    )
)


class TestFeatureScale:
    def test_two_quantile_example(self):
        out = one_row(scale_features, [3.0, 5.0])
        np.testing.assert_allclose(out, [3.0, 5.0, 5.0 / 3.0])

    def test_all_ones(self):
        out = one_row(scale_features, np.ones(6))
        np.testing.assert_array_equal(out, np.ones(11))

    def test_three_quantile_example(self):
        out = one_row(scale_features, [1.0, 2.0, 4.0])
        np.testing.assert_array_equal(out, [1.0, 2.0, 4.0, 2.0, 4.0])

    def test_zero_first_quantile_degenerate(self):
        with pytest.raises(DegenerateInputError):
            one_row(scale_features, [0.0, 1.0])

    def test_ratio_block_scale_invariant(self):
        rng = np.random.default_rng(9)
        y = rng.weibull(2.0, size=300) * 2.0
        n = 5
        base = one_row(scale_features, compress(y, n))[n:]
        for c in (0.01, 3.7, 250.0):
            scaled = one_row(scale_features, compress(c * y, n))[n:]
            np.testing.assert_allclose(scaled, base, rtol=1e-12)


class TestFeatureShape:
    def test_two_quantile_enumeration(self):
        a1, a2 = 3.0, 5.0
        out = one_row(shape_features, [a1, a2])
        # a2 * (a1 / a2) repeats a1 and is left out
        expected = [
            1.0,
            a1,
            a2,
            a1 / a2,
            a1 * a1,
            a1 * a2,
            a1 * a1 / a2,
            a2 * a2,
            a1 * a1 / (a2 * a2),
        ]
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_all_ones(self):
        out = one_row(shape_features, np.ones(4))
        np.testing.assert_array_equal(out, np.ones(shape_feature_len(4)))

    def test_length_formula(self):
        assert shape_feature_len(10) == 165
        assert scale_feature_len(10) == 19
        alpha = np.linspace(1.0, 2.0, 10)
        assert one_row(shape_features, alpha).size == 165
        assert one_row(scale_features, alpha).size == 19

    def test_zero_top_quantile_degenerate(self):
        with pytest.raises(DegenerateInputError):
            one_row(shape_features, [0.0, 0.0])

    @given(quantile_rows)
    @settings(max_examples=200, deadline=None)
    def test_spans_all_quadratic_monomials(self, rows):
        # every column of the map with repeated monomials is a column of
        # this one, so dropping the repeats leaves the span unchanged
        alphas = np.array(rows)
        full = all_quadratic_monomials(alphas)
        distinct = shape_features(alphas)
        assert distinct.shape[1] == shape_feature_len(alphas.shape[1])
        match = np.isclose(full[:, :, None], distinct[:, None, :], rtol=1e-13, atol=0.0)
        assert match.all(axis=0).any(axis=1).all()


class TestReadoutBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_slices_are_the_two_maps_bit_for_bit(self, n):
        # at n = 1 both ratio blocks are empty
        rng = np.random.default_rng(n)
        alphas = np.sort(rng.weibull(1.5, (40, n)) * 10.0 ** rng.uniform(-3, 3, (40, 1)), axis=1)
        basis = readout_basis(alphas)
        assert basis.shape == (40, 4 * n - 1) and basis.flags.c_contiguous
        width = scale_feature_len(n)
        np.testing.assert_array_equal(basis[:, :width], scale_features(alphas))
        np.testing.assert_array_equal(basis[:, width:], shape_basis(alphas))
        # and a row's own gather and masked divide give its row
        num, den, ratio = row_basis(n)
        for alpha, row in zip(alphas, basis):
            gathered = alpha[num]
            np.divide(gathered, alpha[den], out=gathered, where=ratio)
            np.testing.assert_array_equal(gathered, row)
