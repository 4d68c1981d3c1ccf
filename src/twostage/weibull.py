"""Two-parameter Weibull model: parameters, the quantile function applied
row by row, and seeded draws of uniform order statistics.

Every simulated dataset is the quantile function applied to uniform order
statistics in [0, 1), drawn directly, so every draw is a deterministic
function of its seed and p = 1 (an infinite quantile) can never be hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeibullParams:
    """Scale/shape pair (both strictly positive and finite)."""

    scale: float
    shape: float

    def __post_init__(self):
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "shape", float(self.shape))
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be a positive real, got {self.scale}")
        if not (math.isfinite(self.shape) and self.shape > 0):
            raise ValueError(f"shape must be a positive real, got {self.shape}")


def weibull_quantile_rows(p, scales, shapes) -> np.ndarray:
    """Row i of the 2-D array p, in [0, 1), through the quantile function
    scale * (-log(1-p))^(1/shape) of (scales[i], shapes[i])."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0) or np.any(p_arr >= 1):
        raise ValueError("p must lie in [0, 1)")
    scales = np.asarray(scales, dtype=float)
    shapes = np.asarray(shapes, dtype=float)
    if p_arr.ndim != 2 or not scales.shape == shapes.shape == (p_arr.shape[0],):
        raise ValueError("p must be 2-D with one scale and one shape per row")
    for name, values in (("scale", scales), ("shape", shapes)):
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValueError(f"{name} must be a positive real")
    return scales[:, None] * (-np.log1p(-p_arr)) ** (1.0 / shapes)[:, None]


# the largest double below 1, the top of a uniform draw's range
_BELOW_ONE = np.nextafter(1.0, 0.0)


def sample_uniform_order_statistics(
    gen: np.random.Generator, n_samples: int, ranks, rows: int
) -> np.ndarray:
    """``rows`` independent draws, one per row, of the order statistics at
    the zero-based ``ranks`` (ascending, distinct) of n_samples i.i.d.
    uniforms on [0, 1).

    The draw is exact in law and its cost does not grow with n_samples: with
    E_1, ..., E_{n_samples+1} i.i.d. standard exponentials and S_k their
    partial sums, the k-th smallest uniform is distributed jointly with the
    others as S_k / S_{n_samples+1} (Renyi's representation; David and
    Nagaraja, Order Statistics, 2003).  So each row takes one gamma
    increment per gap between the ranks, Gamma(ranks[0] + 1),
    Gamma(ranks[i] - ranks[i-1]), ..., Gamma(n_samples - ranks[-1]), and
    divides their running sum by the total.  Rows are filled in order from
    ``gen``, so more rows from the same generator extend fewer row for row.

    The quantile function is monotone, so mapping a row through it gives the
    order statistics at ``ranks`` of a Weibull sample.
    """
    ranks = np.asarray(ranks)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if ranks.ndim != 1 or ranks.size < 1:
        raise ValueError("ranks must be a non-empty 1-D vector")
    edges = np.concatenate(([-1], ranks, [n_samples]))
    increments = edges[1:] - edges[:-1]
    if not np.all(increments > 0):
        raise ValueError("ranks must ascend strictly within [0, n_samples)")
    sums = np.cumsum(gen.standard_gamma(increments, size=(rows, increments.size)), axis=1)
    # a ratio rounds to 1.0 when the increments above it sum to less than
    # half an ulp of the total, which a sample maximum does with probability
    # about 1e-16 * n_samples; keep it in [0, 1), where a uniform draw lies
    return np.minimum(sums[:, :-1] / sums[:, -1:], _BELOW_ONE)

