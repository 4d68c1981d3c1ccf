"""First stage for i.i.d. data: order statistics, evenly spaced sample
quantiles, and the feature expansions feeding the linear second stage.

The n-dimensional compressed vector holds the sample quantiles at
p = k/n for k = 1..n (p = 1 is the sample maximum), interpolated linearly
between adjacent order statistics as numpy's "linear" quantile method does;
sorted_quantiles(order_statistics(y), n) computes it.  Each quantile is
lerped from the nearer of its two order statistics.  QuantilePlan.quantiles
clamps the lerp to the pair, since the simulator's order statistics pass
through log1p and power, which need not keep them ordered to the last ulp;
sorted_quantiles reads a sorted sample, whose pairs are ordered, and returns
the same bits without the clamp.  Two feature maps read it out: the scale
map appends quantile ratios to the raw quantiles, and the shape map takes
the distinct monomials up to order 2 (including the constant) of the
quantiles and their ratios against the top quantile, 3n(n+1)/2 columns in
all.  The fits build both maps; applying a fitted rule reads each row out
of one basis of 4n-1 entries: the scale features, then the shape basis u
that the shape map's monomials are the distinct pairwise products of.
readout_basis fills it for a block of rows; row_basis gives the gather and
masked divide that fill it for one quantile vector, bit for bit alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np


class DegenerateInputError(ValueError):
    """A pivot quantile is zero, so ratio features are undefined.

    Weibull-like positive data makes this all but impossible; hitting it
    signals corrupted input (e.g. an all-zero lower tail).
    """


class FeatureKind(str, Enum):
    SCALE = "scale"
    SHAPE = "shape"


def scale_feature_len(n: int) -> int:
    return 2 * n - 1


def shape_feature_len(n: int) -> int:
    return 3 * n * (n + 1) // 2


def order_statistics(y) -> np.ndarray:
    """The sample sorted ascending."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("y must be a non-empty 1-D vector")
    return np.sort(arr)


@dataclass(frozen=True, eq=False)
class QuantilePlan:
    """Where the sample quantiles at p = k/n, k = 1..n, of an n_obs-sample
    sit among its order statistics: zero-based position p*(n_obs-1).

    ``ranks`` holds the distinct zero-based ranks of the order statistics
    the quantiles read, ascending; quantile k lies ``frac[k]`` of the way
    from the order statistic at ``ranks[lower[k]]`` to the one at
    ``ranks[upper[k]]``.  Build one with quantile_plan.
    """

    ranks: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    frac: np.ndarray
    # one gather of (lower, upper, nearer end) and the step from the nearer
    # end: frac - 1 = -(1 - frac) exactly for frac >= 1/2, so this is the
    # two-sided lerp, which keeps accuracy at extreme fractions
    gather: np.ndarray = field(init=False, repr=False)
    step: np.ndarray = field(init=False, repr=False)
    # the same gather from the whole sorted sample, ranks[gather]
    sample_gather: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        far = self.frac > 0.5
        near = np.where(far, self.upper, self.lower)
        gather = np.concatenate([self.lower, self.upper, near])
        object.__setattr__(self, "gather", gather)
        object.__setattr__(self, "step", np.where(far, self.frac - 1.0, self.frac))
        object.__setattr__(self, "sample_gather", self.ranks[gather])

    def quantiles(self, stats) -> np.ndarray:
        """Sample quantiles along the last axis of ``stats``, which holds
        each sample's order statistics at ``ranks``.  The result is in C
        order."""
        return self.interpolate(np.take(stats, self.gather, axis=-1))

    def interpolate(self, ends) -> np.ndarray:
        """Sample quantiles from ``ends``, the gathered order statistics
        along the last axis: ``stats[..., gather]``, or the sorted sample at
        ``sample_gather``."""
        n = self.frac.size
        lower, upper = ends[..., :n], ends[..., n : 2 * n]
        raw = ends[..., 2 * n :] + self.step * (upper - lower)
        # the true quantile lies in [lower, upper]; clamp away rounding overshoot
        return np.minimum(np.maximum(raw, lower, out=raw), upper, out=raw)


@functools.lru_cache(maxsize=256)
def quantile_plan(n_obs: int, n: int) -> QuantilePlan:
    """The QuantilePlan of an n_obs-sample compressed to n quantiles.

    Plans are cached, since every estimate needs one, and so are read-only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_obs < 2:
        raise ValueError("the sample must have at least 2 entries")
    if n_obs > 2**53:
        raise ValueError("n_obs must be at most 2**53: quantile positions are float64")
    pos = np.arange(1, n + 1) / n * (n_obs - 1)
    lo = np.floor(pos)
    frac = pos - lo
    lo = lo.astype(np.intp)
    hi = np.minimum(lo + 1, n_obs - 1)
    ranks, index = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    plan = QuantilePlan(ranks, index[:n], index[n:], frac)
    for f in fields(plan):
        getattr(plan, f.name).flags.writeable = False
    return plan


def validate_quantiles(values) -> None:
    """Raise ValueError unless every row (last axis) of quantiles is finite
    and non-decreasing."""
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if np.any(values[..., 1:] < values[..., :-1]):
        raise ValueError("quantile values must be non-decreasing")


def sorted_quantiles(ys, n: int) -> np.ndarray:
    """Quantiles at p = k/n for k = 1..n of a sample already sorted ascending.

    Bit for bit plan.interpolate(ys[plan.sample_gather]), without its clamp:
    the ends of a sorted sample are ordered, which QuantilePlan.quantiles
    cannot assume of its simulated order statistics.
    """
    plan = quantile_plan(ys.size, n)
    # indexing, not np.take: its dispatch costs more than a 1-D gather
    ends = ys[plan.sample_gather]
    # the clamp cannot fire.  With lower <= upper, d = fl(upper - lower) >= 0
    # and |step| <= 1/2, fl(|step| d) <= d/2 < upper - lower: the lerp from
    # the nearer end moves less than the span and, rounding being monotone,
    # lands in [lower, upper].  Where d/2 is inexact (d subnormal) the
    # difference is exact and fl(|step| d) <= d.  This holds with ties,
    # subnormals and spans of 1e+-300, for any finite sample whose span
    # does not overflow, so for every positive one.
    q = ends[n : 2 * n] - ends[:n]
    q *= plan.step
    q += ends[2 * n :]
    return q


def check_ratio_pivots(alphas: np.ndarray) -> None:
    """Raise DegenerateInputError unless every row of a quantile matrix has
    a non-zero first and top quantile, the divisors of the ratios."""
    if not alphas[:, 0].all():
        raise DegenerateInputError("first quantile is zero; ratio features undefined")
    if not alphas[:, -1].all():
        raise DegenerateInputError("top quantile is zero; ratio features undefined")


def scale_features(alphas: np.ndarray) -> np.ndarray:
    """Scale features of every row of a quantile matrix, in C order: the
    quantiles followed by the ratios a_2/a_1, ..., a_n/a_1 (2n-1 columns)."""
    rows, n = alphas.shape
    if not alphas[:, 0].all():
        raise DegenerateInputError("first quantile is zero; ratio features undefined")
    out = np.empty((rows, scale_feature_len(n)))
    out[:, :n] = alphas
    np.divide(alphas[:, 1:], alphas[:, :1], out=out[:, n:])
    return out


def shape_basis(alphas: np.ndarray) -> np.ndarray:
    """u = (1, a_1..a_n, a_1/a_n..a_{n-1}/a_n) of every row of a quantile
    matrix: the shape features are the distinct products of its entries."""
    rows, n = alphas.shape
    top = alphas[:, n - 1 :]
    if not top.all():
        raise DegenerateInputError("top quantile is zero; ratio features undefined")
    u = np.empty((rows, 2 * n))
    u[:, 0] = 1.0
    u[:, 1 : n + 1] = alphas
    np.divide(alphas[:, : n - 1], top, out=u[:, n + 1 :])
    return u


def readout_basis(alphas: np.ndarray) -> np.ndarray:
    """scale_features(alphas) and shape_basis(alphas) side by side in one
    C-order buffer of 4n-1 columns, bit for bit: [:2n-1] holds the scale
    features, [2n-1:] the shape basis u, so a row of either is a
    unit-stride slice.

    The rows are not checked here: a one-row block spends as long on a
    check as on a ratio block.  They must pass check_ratio_pivots, which
    the readout's callers apply where the rows enter.
    """
    rows, n = alphas.shape
    w = scale_feature_len(n)
    out = np.empty((rows, w + 2 * n))
    out[:, :n] = alphas
    np.divide(alphas[:, 1:], alphas[:, :1], out=out[:, n:w])
    out[:, w] = 1.0
    out[:, w + 1 : w + n + 1] = alphas
    np.divide(alphas[:, : n - 1], alphas[:, n - 1 :], out=out[:, w + n + 1 :])
    return out


@functools.lru_cache(maxsize=64)
def row_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(num, den, ratio), cached and read-only: for one quantile vector
    alpha, alpha[num] with its entries at ``ratio`` divided by alpha[den]
    is readout_basis(alpha[None])[0], bit for bit.  The quantile entries
    are gathered and left out of the divide; the constant of u is
    a_1/a_1, exactly 1 for the positive a_1 the caller must ensure."""
    w = scale_feature_len(n)
    a = np.arange(n)
    num = np.concatenate([a, a[1:], [0], a, a[:-1]])
    den = np.zeros(num.size, dtype=np.intp)
    den[w + n + 1 :] = n - 1
    ratio = np.zeros(num.size, dtype=bool)
    ratio[n : w + 1] = True
    ratio[w + n + 1 :] = True
    for array in (num, den, ratio):
        array.flags.writeable = False
    return num, den, ratio


def shape_features(alphas: np.ndarray) -> np.ndarray:
    """Shape features of every row of a quantile matrix, in C order: the
    distinct monomials up to order 2 of psi = (a_1..a_n, r_1..r_{n-1}),
    r_k = a_k/a_n.

    The columns are [1] + [psi_j] + [psi_j * psi_k for j <= k, row-major],
    less the products a_j * r_k with j > k, which repeat a_k * r_j (or, for
    j = n, a_k): 3n(n+1)/2 columns for n quantiles.
    """
    rows, n = alphas.shape
    u = shape_basis(alphas)
    out = np.empty((rows, shape_feature_len(n)))
    out[:, : 2 * n] = u
    psi = u[:, 1:]
    jj, kk = _distinct_pairs(n)
    np.multiply(psi[:, jj], psi[:, kk], out=out[:, 2 * n :])
    return out


def shape_form(beta: np.ndarray, n: int) -> np.ndarray:
    """The read-only upper-triangular Q with u'Qu = shape_features(alphas) @ beta
    for u = shape_basis(alphas); Q[j+1, k+1] weighs psi_j * psi_k."""
    width = 2 * n
    form = np.zeros((width, width))
    form[0] = beta[:width]
    jj, kk = _distinct_pairs(n)
    form[1 + jj, 1 + kk] = beta[width:]
    form.flags.writeable = False
    return form


@functools.lru_cache(maxsize=64)
def _distinct_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (j, k) of psi indices whose products shape_features emits,
    cached and read-only: they cost more than the rest of a one-row shape
    feature map."""
    jj, kk = np.triu_indices(2 * n - 1)
    # psi index i is a_{i+1} for i < n and r_{i-n+1} for i >= n: drop the
    # products a_j * r_k with j > k
    keep = ~((jj < n) & (kk >= n) & (jj > kk - n))
    pairs = (jj[keep], kk[keep])
    for array in pairs:
        array.flags.writeable = False
    return pairs
