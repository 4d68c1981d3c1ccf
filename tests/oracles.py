"""Independent brute-force oracles and reference implementations shared by
the sampler, quantile, feature-map, solver, Fisher-information and
acceptance tests."""

import math
from fractions import Fraction

import numpy as np
import scipy.optimize

from twostage.compression import FeatureKind
from twostage.estimator import (
    TrainingConfig,
    build_feature_matrix,
    estimate_from_quantiles,
    generate_training_set,
)
from twostage.experiment import evaluation_quantiles
from twostage.rng import SeedSpec, stream
from twostage.solvers import RegressionProblem, evaluate_max_quadratic
from twostage.weibull import WeibullParams


def minimax_oracle(problem: RegressionProblem, beta_hint: np.ndarray) -> float:
    """Best objective among the hint, an exact convex solve of the epigraph
    program and a Nelder-Mead polish of that solve; independent of the
    production solver's path.

    With x = (beta, s) and |t - phi beta| <= s as two blocks of linear rows,
    ridge 0 is the Chebyshev LP min s (HiGHS), and ridge > 0 the QP
    min s^2 + ridge ||beta||^2 (SLSQP, scaled to the hint's objective).
    The polish moves a vertex whose residuals are at rounding level onto
    residuals that round to zero, where there is one.
    """
    phi, t, lam = problem.features, problem.targets, problem.ridge
    M, m = phi.shape
    G = np.block([[-phi, -np.ones((M, 1))], [phi, -np.ones((M, 1))]])
    h = np.concatenate([-t, t])
    if lam == 0.0:
        cost = np.append(np.zeros(m), 1.0)
        x = scipy.optimize.linprog(cost, A_ub=G, b_ub=h, bounds=(None, None), method="highs").x
    else:
        pen = np.append(np.full(m, lam), 1.0)
        x0 = np.append(beta_hint, np.max(np.abs(t - phi @ beta_hint)))
        scale = 1.0 / max(float(pen @ (x0 * x0)), np.finfo(float).tiny)
        x = scipy.optimize.minimize(
            lambda x: scale * float(pen @ (x * x)),
            x0,
            jac=lambda x: 2.0 * scale * pen * x,
            method="SLSQP",
            constraints=[dict(type="ineq", fun=lambda x: h - G @ x, jac=lambda x: -G)],
            options=dict(ftol=1e-16, maxiter=1000),
        ).x

    def fn(beta):
        return evaluate_max_quadratic(beta, problem)[0]

    polish = scipy.optimize.minimize(
        fn, x[:m], method="Nelder-Mead", options=dict(xatol=1e-10, fatol=1e-12, maxiter=4000)
    )
    return min(fn(beta_hint), fn(x[:m]), float(polish.fun))


def random_small_problem(rng: np.random.Generator) -> RegressionProblem:
    """A random instance in the small regime the oracle can search."""
    n_rows = int(rng.integers(1, 21))
    n_feat = int(rng.integers(1, 4))
    phi = rng.normal(size=(n_rows, n_feat)) * rng.choice([0.5, 1.0, 3.0])
    targets = rng.normal(size=n_rows) * rng.choice([1.0, 5.0])
    ridge = float(rng.choice([0.0, 1e-8, 1e-3]))
    if ridge == 0.0 and n_rows < n_feat:
        ridge = 1e-8
    return RegressionProblem(phi, targets, ridge)


def training_problem(config: TrainingConfig, kind: FeatureKind) -> RegressionProblem:
    """The scale or shape problem of the training set that ``config`` draws."""
    training_set = generate_training_set(config)
    return RegressionProblem(
        build_feature_matrix(training_set.alphas, kind),
        training_set.thetas[training_set.parent_index, 0 if kind is FeatureKind.SCALE else 1],
        config.ridge,
    )


def random_census_problem(rng: np.random.Generator) -> RegressionProblem:
    """A random instance of up to 400 rows and 60 columns at a ridge from 0
    to 0.1: about 30% with rows scaled over 6 decades, and about 20% made
    of fewer rows each repeated 5 times."""
    n_rows = int(rng.integers(1, 401))
    n_feat = int(rng.integers(1, 61))
    ridge = float(rng.choice([0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.1]))
    phi = rng.normal(size=(n_rows, n_feat))
    targets = rng.normal(size=n_rows)
    if rng.random() < 0.3:
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=n_rows)
        phi *= scale[:, None]
        targets *= scale
    if rng.random() < 0.2:
        kept = max(n_rows // 5, 1)
        phi, targets = np.repeat(phi[:kept], 5, axis=0), np.repeat(targets[:kept], 5)
    return RegressionProblem(phi, targets, ridge)


def nearly_collinear_problem(rng: np.random.Generator, ridge: float = 0.0) -> RegressionProblem:
    """An instance whose columns are nearly collinear (condition up to about
    1e16) and whose targets the columns nearly fit exactly; the ridge takes
    no draw, so a given rng state makes the same features at every ridge."""
    n_rows, n_feat = int(rng.integers(8, 60)), int(rng.integers(2, 8))
    rank = int(rng.integers(1, n_feat + 1))
    phi = rng.normal(size=(n_rows, rank)) @ rng.normal(size=(rank, n_feat))
    phi += 10.0 ** rng.uniform(-16, -6) * rng.normal(size=(n_rows, n_feat))
    phi *= 10.0 ** rng.uniform(-2, 2)
    targets = phi @ rng.normal(size=n_feat) + 10.0 ** rng.uniform(-14, -2) * rng.normal(size=n_rows)
    return RegressionProblem(phi, targets, ridge)


def run_errors(config, model) -> list:
    """The per-run estimation errors behind run_mse_experiment's rows, one
    (mc_runs, 2) array per eval point: each point's runs read out on their
    own, less the point."""
    quantiles = evaluation_quantiles(config)
    return [
        estimate_from_quantiles(model, quantiles[p]) - point
        for p, point in enumerate(config.eval_points)
    ]


def sorted_uniform_order_statistics(
    gen: np.random.Generator, n_samples: int, ranks, rows: int
) -> np.ndarray:
    """Row r: the order statistics at the zero-based ``ranks`` of n_samples
    uniforms drawn from ``gen`` and sorted; the draw-and-sort reference for
    weibull.sample_uniform_order_statistics, equal to it in law only."""
    out = np.empty((rows, len(ranks)))
    buf = np.empty(n_samples)
    for r in range(rows):
        gen.random(out=buf)
        buf.sort()
        out[r] = buf[ranks]
    return out


def all_quadratic_monomials(alphas: np.ndarray) -> np.ndarray:
    """Every product up to order 2 of psi = (a_1..a_n, a_1/a_n..a_{n-1}/a_n),
    row by row: [1] + [psi_j] + [psi_j * psi_k for j <= k, row-major].

    The map the shape features are drawn from, repeats included: a_n times
    a_k/a_n is a_k again, and a_j times a_k/a_n is a_k times a_j/a_n.
    """
    alphas = np.asarray(alphas, dtype=float)
    n = alphas.shape[1]
    psi = np.hstack([alphas, alphas[:, : n - 1] / alphas[:, n - 1 :]])
    jj, kk = np.triu_indices(psi.shape[1])
    return np.hstack([np.ones((len(alphas), 1)), psi, psi[:, jj] * psi[:, kk]])


def sample_quantile(y_sorted, p: float) -> float:
    """Linear interpolation between adjacent order statistics.

    With zero-based position pos = p*(N-1), returns
    y[floor(pos)] + frac * (y[ceil(pos)] - y[floor(pos)]); p = 1 is the
    maximum.  The input must already be sorted ascending with N >= 2.
    The scalar reference for compression.QuantilePlan.
    """
    arr = np.asarray(y_sorted, dtype=float)
    if arr.size < 2:
        raise ValueError("y_sorted must have at least 2 entries")
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    pos = p * (arr.size - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, arr.size - 1)
    frac = pos - lo
    # two-sided lerp keeps accuracy at extreme fractions
    if frac <= 0.5:
        raw = arr[lo] + frac * (arr[hi] - arr[lo])
    else:
        raw = arr[hi] - (1.0 - frac) * (arr[hi] - arr[lo])
    # the true quantile lies in [y[lo], y[hi]]; clamp away rounding overshoot
    return float(min(max(raw, arr[lo]), arr[hi]))


def two_sided_lerp(plan, stats) -> np.ndarray:
    """Sample quantiles along the last axis of ``stats`` (order statistics
    at plan.ranks) by the lerp from whichever end of each interval is
    nearer, as two branches: the reference for QuantilePlan.quantiles."""
    lower = np.take(stats, plan.lower, axis=-1)
    upper = np.take(stats, plan.upper, axis=-1)
    span = upper - lower
    frac = plan.frac
    raw = np.where(frac <= 0.5, lower + frac * span, upper - (1.0 - frac) * span)
    return np.minimum(np.maximum(raw, lower), upper)


def weibull_quantile(p, params: WeibullParams):
    """Inverse CDF: scale * (-log(1-p))^(1/shape), defined for p in [0, 1)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0) or np.any(p_arr >= 1):
        raise ValueError("p must lie in [0, 1)")
    q = params.scale * (-np.log1p(-p_arr)) ** (1.0 / params.shape)
    return q if p_arr.ndim else float(q)


def sample_weibull(n_samples: int, params: WeibullParams, seed: SeedSpec) -> np.ndarray:
    """Draw n_samples i.i.d. values by inverse-CDF transform of the seeded stream."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    u = stream(seed).random(n_samples)
    return weibull_quantile(u, params)


def weibull_score(x, params: WeibullParams) -> np.ndarray:
    """Per-observation score vector(s) d(log f)/d(scale, shape), shape (..., 2)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("x must be positive")
    eta, gam = params.scale, params.shape
    logz = gam * (np.log(x_arr) - math.log(eta))
    z = np.exp(logz)
    s_eta = (gam / eta) * (z - 1.0)
    s_gam = (1.0 + (1.0 - z) * logz) / gam
    return np.stack([s_eta, s_gam], axis=-1)


def fisher_oracle(params: WeibullParams, n_draws: int, seed: SeedSpec) -> np.ndarray:
    """Monte-Carlo estimate of E[score score'] from n_draws observations, the
    oracle for crlb.fisher_per_sample.

    Observations are drawn by the inverse CDF on stratified uniforms (one
    jittered point per stratum), which is unbiased for the same expectation
    but collapses the variance of the cross moment: plain i.i.d. sampling
    leaves that entry a ~1% coin flip even at 1e6 draws.
    """
    if n_draws < 10**5:
        raise ValueError("n_draws must be at least 1e5 for a usable estimate")
    u = (np.arange(n_draws) + stream(seed).random(n_draws)) / n_draws
    x = weibull_quantile(np.maximum(u, 1e-300), params)
    s = weibull_score(x, params)
    return s.T @ s / n_draws


def exact_weighted_minimum(u, problem: RegressionProblem) -> Fraction:
    """W(u) = min_beta sum_i u_i (t_i - phi_i . beta)^2 in exact rational
    arithmetic: the float weights, rows and targets are read as the
    rationals they are, and the normal equations Phi'U Phi beta = Phi'U t,
    always consistent, are solved by Gauss-Jordan elimination with every
    free variable at 0; any solution attains the minimum."""
    u = [Fraction(w) for w in np.asarray(u, dtype=float).tolist()]
    phi = [[Fraction(v) for v in row] for row in problem.features.tolist()]
    t = [Fraction(v) for v in problem.targets.tolist()]
    m = len(phi[0])
    system = [
        [sum(w * row[j] * row[k] for w, row in zip(u, phi)) for k in range(m)]
        + [sum(w * row[j] * y for w, row, y in zip(u, phi, t))]
        for j in range(m)
    ]
    pivots = []
    for col in range(m):
        lead = next((i for i in range(len(pivots), m) if system[i][col] != 0), None)
        if lead is None:
            continue
        r = len(pivots)
        system[r], system[lead] = system[lead], system[r]
        system[r] = [v / system[r][col] for v in system[r]]
        for i in range(m):
            if i != r and system[i][col] != 0:
                factor = system[i][col]
                system[i] = [a - factor * b for a, b in zip(system[i], system[r])]
        pivots.append(col)
    beta = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        beta[col] = system[r][m]
    return sum(w * (y - sum(a * b for a, b in zip(row, beta))) ** 2 for w, row, y in zip(u, phi, t))
