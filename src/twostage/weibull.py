"""Two-parameter Weibull model: density, quantile function, seeded sampling.

All sampling goes through the inverse CDF applied to uniform variates in
[0, 1), so every draw is a deterministic function of its seed and p = 1
(an infinite quantile) can never be hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SeedSpec, stream


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


def weibull_pdf(x, params: WeibullParams):
    """Density (shape/scale) * (x/scale)^(shape-1) * exp(-(x/scale)^shape).

    Accepts scalars or arrays; any negative x is a domain error.  At x = 0
    the formula's limit is returned: 0 for shape > 1, 1/scale for shape = 1,
    +inf for shape < 1.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("x must be non-negative")
    eta, gam = params.scale, params.shape
    z = x_arr / eta
    with np.errstate(divide="ignore"):
        dens = (gam / eta) * z ** (gam - 1.0) * np.exp(-(z**gam))
    return dens if x_arr.ndim else float(dens)


def weibull_cdf(x, params: WeibullParams):
    """Distribution function 1 - exp(-(x/scale)^shape) for x >= 0."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("x must be non-negative")
    cdf = -np.expm1(-((x_arr / params.scale) ** params.shape))
    return cdf if x_arr.ndim else float(cdf)


def weibull_quantile(p, params: WeibullParams):
    """Inverse CDF: scale * (-log(1-p))^(1/shape), defined for p in [0, 1)."""
    p_arr = _probabilities(p)
    q = params.scale * (-np.log1p(-p_arr)) ** (1.0 / params.shape)
    return q if p_arr.ndim else float(q)


def weibull_quantile_rows(p, scales, shapes) -> np.ndarray:
    """Row i of the 2-D array p through the quantile function of
    (scales[i], shapes[i]); elementwise the same arithmetic as
    weibull_quantile."""
    p_arr = _probabilities(p)
    scales = np.asarray(scales, dtype=float)
    shapes = np.asarray(shapes, dtype=float)
    if p_arr.ndim != 2 or not scales.shape == shapes.shape == (p_arr.shape[0],):
        raise ValueError("p must be 2-D with one scale and one shape per row")
    for name, values in (("scale", scales), ("shape", shapes)):
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValueError(f"{name} must be a positive real")
    return scales[:, None] * (-np.log1p(-p_arr)) ** (1.0 / shapes)[:, None]


def _probabilities(p) -> np.ndarray:
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0) or np.any(p_arr >= 1):
        raise ValueError("p must lie in [0, 1)")
    return p_arr


def weibull_mean(params: WeibullParams) -> float:
    """scale * Gamma(1 + 1/shape)."""
    return params.scale * math.gamma(1.0 + 1.0 / params.shape)


def sample_weibull(n_samples: int, params: WeibullParams, seed: SeedSpec) -> np.ndarray:
    """Draw n_samples i.i.d. values by inverse-CDF transform of the seeded stream."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    u = stream(seed).random(n_samples)
    return weibull_quantile(u, params)


def sample_uniform_order_statistics(seed: SeedSpec, paths, n_samples: int, ranks) -> np.ndarray:
    """Row r: the order statistics at the zero-based ``ranks`` of n_samples
    uniforms drawn from ``stream(seed, *paths[r])``.

    The quantile function is monotone, so mapping row r through it gives the
    order statistics at ``ranks`` of the Weibull sample that the same
    uniforms make, without transforming the values that are never read.
    """
    ranks = np.asarray(ranks, dtype=np.intp)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if ranks.ndim != 1 or np.any(ranks < 0) or np.any(ranks >= n_samples):
        raise ValueError("ranks must be a 1-D vector of indices into the sample")
    out = np.empty((len(paths), ranks.size))
    buf = np.empty(n_samples)
    for r, path in enumerate(paths):
        stream(seed, *path).random(out=buf)
        buf.sort()
        out[r] = buf[ranks]
    return out
