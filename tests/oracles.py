"""Independent brute-force oracles shared by the sampler, feature-map,
solver and acceptance tests."""

import numpy as np
import scipy.optimize

from twostage.solvers import RegressionProblem, evaluate_max_quadratic


def minimax_oracle(problem: RegressionProblem, beta_hint: np.ndarray) -> float:
    """Best objective found by exhaustive grid search plus multi-start
    Nelder-Mead; independent of the production solver's path."""
    phi, t, lam = problem.features, problem.targets, problem.ridge
    m = problem.n_features

    def fn(beta):
        return evaluate_max_quadratic(beta, problem)[0]

    best = fn(beta_hint)
    span = 1.0 + float(np.abs(beta_hint).max()) + float(np.abs(t).max())
    if m == 1:
        grid = np.linspace(-span, span, 400001)[None, :]
    elif m == 2:
        g = np.linspace(-span, span, 401)
        grid = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2).T
    else:
        g = np.linspace(-span, span, 61)
        grid = np.stack(np.meshgrid(g, g, g), -1).reshape(-1, 3).T
    r = t[:, None] - phi @ grid
    vals = (r * r).max(axis=0) + lam * (grid * grid).sum(axis=0)
    best = min(best, float(vals.min()))

    rng = np.random.default_rng(0)
    starts = [beta_hint]
    starts += [beta_hint + rng.normal(size=m) for _ in range(8)]
    starts += [rng.normal(size=m) * span / 3 for _ in range(8)]
    for start in starts:
        res = scipy.optimize.minimize(
            fn,
            start,
            method="Nelder-Mead",
            options=dict(xatol=1e-10, fatol=1e-12, maxiter=4000),
        )
        best = min(best, float(res.fun))
    return best


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
