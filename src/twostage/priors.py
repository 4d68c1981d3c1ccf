"""Parameter distributions on a positive interval: uniform and reciprocal.

The reciprocal ("uninformative") density is c/x on [a, b] with c = 1/ln(b/a).
Both kinds are drawn by the inverse CDF of uniform variates from a seeded
stream (see prior_inverse_cdf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


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
