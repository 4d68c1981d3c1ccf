"""Parameter distributions on a positive interval: uniform and reciprocal.

The reciprocal ("uninformative") density is c/x on [a, b] with c = 1/ln(b/a).
Both kinds are sampled by inverse-CDF transform of uniform variates so the
same seeded-stream machinery drives everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import SeedSpec, stream


class PriorKind(str, Enum):
    UNIFORM = "uniform"
    RECIPROCAL = "reciprocal"


@dataclass(frozen=True)
class PriorSpec:
    kind: PriorKind
    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "kind", PriorKind(self.kind))
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not (0 < self.lower < self.upper and math.isfinite(self.upper)):
            raise ValueError(
                f"need 0 < lower < upper, got [{self.lower}, {self.upper}]"
            )

    def pdf(self, x):
        """Density at x (0 outside [lower, upper])."""
        x_arr = np.asarray(x, dtype=float)
        a, b = self.lower, self.upper
        inside = (x_arr >= a) & (x_arr <= b)
        if self.kind is PriorKind.UNIFORM:
            dens = np.where(inside, 1.0 / (b - a), 0.0)
        else:
            c = 1.0 / math.log(b / a)
            with np.errstate(divide="ignore"):
                dens = np.where(inside, c / x_arr, 0.0)
        return dens if x_arr.ndim else float(dens)

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def prior_inverse_cdf(u, prior: PriorSpec):
    """Map uniform variates in [0, 1) to draws from ``prior``.

    Uniform: a + (b-a)*u.  Reciprocal: a*(b/a)**u, the inverse CDF of c/x.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0) or np.any(u_arr >= 1):
        raise ValueError("u must lie in [0, 1)")
    a, b = prior.lower, prior.upper
    if prior.kind is PriorKind.UNIFORM:
        x = a + (b - a) * u_arr
    else:
        x = a * (b / a) ** u_arr
    return x if u_arr.ndim else float(x)


def sample_prior(m: int, prior: PriorSpec, seed: SeedSpec) -> np.ndarray:
    """Draw m i.i.d. values from ``prior`` via the seeded stream."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return prior_inverse_cdf(stream(seed).random(m), prior)
