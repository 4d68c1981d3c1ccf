"""Fisher information and Cramér-Rao lower bounds for the two-parameter
Weibull model.

With z = (x/scale)^shape ~ Exp(1), the per-observation scores are

    d/d(scale) log f = (shape/scale) * (z - 1)
    d/d(shape) log f = (1/shape) * (1 + (1 - z) * log z)

and taking second moments of z, log z under Exp(1) gives the closed-form
information matrix below.  The test suite checks it against a Monte-Carlo
estimate of E[score score'] (tests/oracles.py, fisher_oracle).
"""

from __future__ import annotations

import math

import numpy as np

from .weibull import WeibullParams

EULER_GAMMA = 0.57721566490153286060651209008240243


def fisher_per_sample(params: WeibullParams) -> np.ndarray:
    """Closed-form per-observation Fisher information: the symmetric 2x2
    matrix ordered (scale, shape)."""
    eta, gam = params.scale, params.shape
    c = 1.0 - EULER_GAMMA
    i_ee = (gam / eta) ** 2
    i_eg = -c / eta
    i_gg = (math.pi**2 / 6.0 + c * c) / gam**2
    return np.array([[i_ee, i_eg], [i_eg, i_gg]])


def crlb(params: WeibullParams, n_obs: int) -> tuple[float, float]:
    """Diagonal of (n_obs * I(params))^-1: variance lower bounds for
    unbiased estimators of (scale, shape) from n_obs observations.  A point
    where float64 cannot hold them raises ValueError naming it."""
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            info = fisher_per_sample(params)
            det = info[0, 0] * info[1, 1] - info[0, 1] * info[1, 0]
            bounds = (float(info[1, 1] / (det * n_obs)), float(info[0, 0] / (det * n_obs)))
    except (OverflowError, FloatingPointError):
        bounds = (math.nan, math.nan)
    if not all(0 < b < math.inf for b in bounds):
        point = f"scale {params.scale!r}, shape {params.shape!r}"
        raise ValueError(f"no Cramér-Rao bound in float64 range at {point}")
    return bounds
