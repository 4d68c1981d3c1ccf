"""Second-stage fitters: mean-squared ridge regression and worst-case
(minimax) regression over a max of convex quadratics.

Both fitters return an optimality certificate.  Ridge is solved exactly via
the normal equations (certificate 0); the minimax program

    min_beta  max_i (t_i - phi_i . beta)^2  +  ridge * ||beta||^2

is solved by a primal-dual interior-point iteration on its epigraph form,
and the reported certificate is a rigorous global suboptimality bound: for
any simplex weights u,

    L(u) = min_beta  sum_i u_i (t_i - phi_i . beta)^2 + ridge * ||beta||^2

never exceeds the minimax optimum (a convex combination never exceeds a
max), and L(u) is computable by one exact linear solve.  The mean-risk
optimum (uniform u) is the first bound.  With ridge > 0 an active-set
exchange then closes the gap with the closed-form dual of the epigraph
program; with ridge = 0, or if the exchange stalls, L(u) at the
interior-point dual weights does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SolverError(RuntimeError):
    """Base class for second-stage solver failures."""


class RankDeficiencyError(SolverError):
    """Singular normal matrix with ridge = 0; set ridge > 0 to regularize."""


class SolverBudgetError(SolverError):
    """No bound that fit_minimax ran closed the certified gap to tolerance.

    The interior point runs once, then, with ridge > 0 only, the active-set
    exchange (until a clean KKT point or its exchange budget), then the
    weighted bound L(u) once; the message names the ones that ran.  At
    ridge 0 no iteration budget is spent.  Carries the best iterate found,
    with its (still valid) certificate.
    """

    def __init__(self, message: str, coefficients: "Coefficients"):
        super().__init__(message)
        self.coefficients = coefficients


@dataclass(frozen=True)
class RegressionProblem:
    """Feature rows, scalar targets and a non-negative ridge weight."""

    features: np.ndarray  # (M, m)
    targets: np.ndarray  # (M,)
    ridge: float = 0.0

    def __post_init__(self):
        phi = np.atleast_2d(np.asarray(self.features, dtype=float))
        t = np.asarray(self.targets, dtype=float).ravel()
        object.__setattr__(self, "features", phi)
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "ridge", float(self.ridge))
        if phi.ndim != 2 or phi.shape[0] < 1 or phi.shape[1] < 1:
            raise ValueError("features must be a non-empty M x m matrix")
        if t.shape != (phi.shape[0],):
            raise ValueError("targets must have one entry per feature row")
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(t))):
            raise ValueError("features and targets must be finite")
        if not (np.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError("ridge must be a finite non-negative real")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Coefficients:
    """A fitted coefficient vector with its achieved objective value and a
    guaranteed suboptimality gap (0 for exact solves)."""

    beta: np.ndarray
    objective: float
    certificate: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.certificate < 0:
            raise ValueError("certificate must be non-negative")


def mean_squared_objective(beta, problem: RegressionProblem) -> float:
    """(1/M) * sum_i (t_i - phi_i . beta)^2 + ridge * ||beta||^2."""
    beta = np.asarray(beta, dtype=float)
    r = problem.targets - problem.features @ beta
    return float(r @ r / problem.n_rows + problem.ridge * (beta @ beta))


def evaluate_max_quadratic(beta, problem: RegressionProblem) -> tuple[float, int]:
    """Worst row of the minimax objective and the smallest index attaining it."""
    beta = np.asarray(beta, dtype=float)
    r = problem.targets - problem.features @ beta
    q = r * r + problem.ridge * (beta @ beta)
    idx = int(np.argmax(q))  # argmax returns the first maximizer
    return float(q[idx]), idx


def _cholesky_solver(A: np.ndarray):
    """Factor A = L L' once and return the solve r -> A^-1 r.

    numpy has no triangular solve, so L is inverted once and every solve is
    two matrix-vector products.  Raises LinAlgError unless A is positive
    definite to working precision.
    """
    linv = np.linalg.inv(np.linalg.cholesky(A))
    return lambda r: linv.T @ (linv @ r)


def _solve_spd(A: np.ndarray, lam: float, message: str = "singular system"):
    """Factor A (SPD up to rounding) and return a solve closure.

    Falls back to a clamped eigendecomposition if Cholesky fails; with
    lam = 0 a Cholesky failure means genuine rank deficiency.
    """
    try:
        return _cholesky_solver(A)
    except np.linalg.LinAlgError:
        if lam == 0.0:
            raise RankDeficiencyError(message) from None
        w, v = np.linalg.eigh(A)
        floor = max(w[-1], 0.0) * np.finfo(float).eps + np.finfo(float).tiny
        w = np.maximum(w, floor)
        return lambda r: v @ ((v.T @ r) / w)


def fit_ridge(problem: RegressionProblem) -> Coefficients:
    """Minimize (1/M)||t - Phi beta||^2 + ridge ||beta||^2 exactly.

    Solves the m x m normal equations by Cholesky with iterative refinement
    so the stationarity residual lands at rounding level.  A singular system
    with ridge = 0 raises RankDeficiencyError.
    """
    phi, t, lam = problem.features, problem.targets, problem.ridge
    M, m = phi.shape
    if lam == 0.0 and M < m:
        raise RankDeficiencyError(
            f"normal matrix is singular ({M} rows < {m} features); set ridge > 0"
        )
    A = phi.T @ phi + (M * lam) * np.eye(m)
    b = phi.T @ t
    solve = _solve_spd(A, lam, "normal matrix is singular; set ridge > 0")
    beta = solve(b)
    best_beta, best_res = beta, np.inf
    for _ in range(4):
        r = b - A @ beta
        res = float(np.linalg.norm(r))
        if not np.isfinite(res) or res >= best_res:
            break
        best_beta, best_res = beta, res
        if res == 0.0:
            break
        beta = beta + solve(r)
    beta = best_beta
    return Coefficients(
        beta=beta,
        objective=mean_squared_objective(beta, problem),
        certificate=0.0,
    )


def _weighted_lower_bound(u: np.ndarray, problem: RegressionProblem):
    """Rigorous global lower bound L(u) on the minimax objective.

    L(u) = min_beta sum_i u_i r_i^2 + ridge ||beta||^2 for simplex weights
    u.  Returns (bound, beta_u) with the bound evaluated at the solved
    minimizer and corrected by the exact remaining descent of the
    quadratic, so it stays valid at rounding level.
    """
    phi, t, lam = problem.features, problem.targets, problem.ridge
    m = problem.n_features
    A = phi.T @ (u[:, None] * phi) + lam * np.eye(m)
    b = phi.T @ (u * t)
    if lam > 0.0:
        solve = _solve_spd(A, lam)
        beta_u = solve(b)
        beta_u = beta_u + solve(b - A @ beta_u)
    else:
        ws = np.sqrt(u)
        beta_u = np.linalg.lstsq(ws[:, None] * phi, ws * t, rcond=None)[0]
    r = t - phi @ beta_u
    val = float(u @ (r * r) + lam * (beta_u @ beta_u))
    g = 2.0 * (A @ beta_u - b)
    if lam > 0.0:
        corr = 0.25 * float(g @ solve(g))
    else:
        d = np.linalg.lstsq(A, g, rcond=None)[0]
        corr = 0.25 * float(g @ d)
    return max(val - abs(corr), 0.0), beta_u


def _ipm_epigraph(phi, t, pdiag, beta0, f_scale, max_iter=80):
    """Interior-point iteration for min 0.5 x'Px  s.t. |t_i - phi_i.b| <= tau.

    x = (b, tau) with P = diag(pdiag); Mehrotra predictor-corrector on the
    KKT system, reduced to one dense (m+1) x (m+1) solve per direction.
    Returns (x, z) with z >= 0 the multipliers of the 2M constraint rows
    (lower block -r_i <= tau first, then r_i <= tau).
    """
    M, m = phi.shape
    x = np.empty(m + 1)
    x[:m] = beta0
    r0 = t - phi @ beta0
    x[m] = 1.05 * float(np.max(np.abs(r0))) + 0.1 * float(np.sqrt(np.mean(t * t))) + 1e-8
    h = np.concatenate([-t, t])

    def g_apply(v):  # G v for v in R^{m+1}
        pr = phi @ v[:m]
        return np.concatenate([-pr - v[m], pr - v[m]])

    def gt_apply(w):  # G' w for w in R^{2M}
        lo, hi = w[:M], w[M:]
        out = np.empty(m + 1)
        out[:m] = phi.T @ (hi - lo)
        out[m] = -float(np.sum(lo) + np.sum(hi))
        return out

    s = h - g_apply(x)
    mu0 = 0.1 * max(f_scale, 1e-10)
    z = np.maximum(mu0 / s, 1e-10)

    # Cholesky shift: each iteration starts one step below the last shift
    # that factored, so a system that needs a shift (P singular at ridge 0)
    # costs one retry per iteration, not a climb from delta0
    delta0 = 1e-12 * (1.0 + float(np.max(pdiag)))
    delta_ok = delta0
    for _ in range(max_iter):
        rp = g_apply(x) + s - h
        mu = float(s @ z) / (2 * M)
        if (
            mu <= 1e-13 * (1.0 + f_scale)
            and float(np.max(np.abs(rp))) <= 1e-11 * (1.0 + float(np.max(np.abs(h))))
        ):
            break

        w = z / s
        lo, hi = w[:M], w[M:]
        Hfull = np.empty((m + 1, m + 1))
        Hfull[:m, :m] = phi.T @ ((lo + hi)[:, None] * phi)
        border = phi.T @ (lo - hi)
        Hfull[:m, m] = border
        Hfull[m, :m] = border
        Hfull[m, m] = float(np.sum(lo + hi))
        Hfull[np.diag_indices(m + 1)] += pdiag

        delta = max(delta0, delta_ok / 100.0)
        while True:
            try:
                solve = _cholesky_solver(Hfull + delta * np.eye(m + 1))
                break
            except np.linalg.LinAlgError:
                delta *= 100.0
                if delta > 1e6 * (1.0 + float(np.max(np.abs(Hfull)))):
                    raise
        delta_ok = delta

        def kkt_solve(extra):
            # Newton direction for complementarity target s*z + extra -> 0
            rhs = -(pdiag * x) - gt_apply(w * rp) + gt_apply(extra / s)
            dx = solve(rhs)
            ds = -rp - g_apply(dx)
            dz = -(s * z + extra) / s - w * ds
            return dx, ds, dz

        zero = np.zeros(2 * M)
        dx_a, ds_a, dz_a = kkt_solve(zero)
        alpha_p = _max_step(s, ds_a)
        alpha_d = _max_step(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / (2 * M)
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.1

        dx, ds, dz = kkt_solve(ds_a * dz_a - sigma * mu)
        alpha_p = 0.99 * _max_step(s, ds)
        alpha_d = 0.99 * _max_step(z, dz)
        if max(alpha_p, alpha_d) < 1e-10:
            break  # numerical floor reached; certificate decides from here
        x = x + alpha_p * dx
        s = s + alpha_p * ds
        z = z + alpha_d * dz
    return x, z


def _max_step(v, dv):
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, float(np.min(-v[neg] / dv[neg])))


def fit_minimax(problem: RegressionProblem, tolerance: float | None = None) -> Coefficients:
    """Minimize the worst-row quadratic loss max_i (t_i - phi_i.beta)^2 plus
    the uniform ridge term.

    ``tolerance`` bounds the certified suboptimality gap; None means 1e-6
    relative to the objective at the warm start (the ridge solution, or the
    least-squares solution when ridge = 0 leaves the normal matrix
    singular).  The interior-point pass locates the solution.  With
    ridge > 0 the certificate is then tightened by an active-set exchange
    on the equality KKT system whose multipliers feed the epigraph dual
    bound; with ridge = 0, or if the exchange falls short, the bound is
    L(u) at the interior-point dual weights.  If no bound closes the gap
    to tolerance, raises SolverBudgetError carrying the best iterate.
    """
    if tolerance is not None and not tolerance > 0:
        raise ValueError("tolerance must be positive")
    phi, t, lam = problem.features, problem.targets, problem.ridge
    M, m = phi.shape

    try:
        beta_warm = fit_ridge(problem).beta
    except RankDeficiencyError:
        beta_warm = np.linalg.lstsq(phi, t, rcond=None)[0]
    f_warm, _ = evaluate_max_quadratic(beta_warm, problem)
    if tolerance is None:
        tolerance = max(1e-6 * f_warm, 1e-15)

    best_beta, best_f = beta_warm, f_warm
    # the mean-risk optimum lower-bounds the worst-case optimum
    best_lb = mean_squared_objective(beta_warm, problem)

    # scaled epigraph QP: columns equilibrated, beta_scaled = col * beta
    col = np.linalg.norm(phi, axis=0) / np.sqrt(M)
    col[col == 0.0] = 1.0
    phi_s = phi / col
    pdiag = np.concatenate([2.0 * lam / (col * col), [2.0]])
    x, z = _ipm_epigraph(phi_s, t, pdiag, beta_warm * col, max(f_warm, 1e-10))

    beta_ipm = x[:m] / col
    f_ipm, _ = evaluate_max_quadratic(beta_ipm, problem)
    if f_ipm < best_f:
        best_beta, best_f = beta_ipm, f_ipm

    bounds = ["the interior point"]
    if lam > 0.0 and best_f - best_lb > tolerance:
        bounds.append("the active-set exchange")
        best_beta, best_f, best_lb = _active_set_refine(
            problem, best_beta, best_f, best_lb, tolerance
        )
    if best_f - best_lb > tolerance:
        bounds.append("the weighted bound L(u)")
        u = z[:M] + z[M:]
        total = float(np.sum(u))
        u = u / total if total > 0 else np.full(M, 1.0 / M)
        lb, beta_u = _weighted_lower_bound(u, problem)
        best_lb = max(best_lb, lb)
        f_u, _ = evaluate_max_quadratic(beta_u, problem)
        if f_u < best_f:
            best_beta, best_f = beta_u, f_u

    certificate = max(best_f - best_lb, 0.0)
    coeff = Coefficients(beta=best_beta, objective=best_f, certificate=certificate)
    if certificate > tolerance:
        raise SolverBudgetError(
            f"certified gap {certificate:.3e} above tolerance {tolerance:.3e} "
            f"after {', '.join(bounds[:-1])} and {bounds[-1]}",
            coeff,
        )
    return coeff


def _epigraph_dual_value(problem: RegressionProblem, rows, sides, z) -> float:
    """Closed-form dual of the epigraph program at multipliers z >= 0 on the
    given (row, side) constraints; valid global lower bound for ridge > 0.

        D(z) = -||sum_k z_k s_k phi_k||^2 / (4 ridge) - (sum_k z_k)^2 / 4
               + sum_k z_k s_k t_k

    Evaluated in extended precision: the first term is a near-cancelling
    combination whose accuracy decides the certificate quality.
    """
    phi, t, lam = problem.features, problem.targets, problem.ridge
    zld = z.astype(np.longdouble)
    sld = sides.astype(np.longdouble)
    w = phi[rows].astype(np.longdouble).T @ (sld * zld)
    zeta = zld.sum()
    lin = (sld * t[rows].astype(np.longdouble)) @ zld
    return float(-(w @ w) / (4 * np.longdouble(lam)) - zeta * zeta / 4 + lin)


def _active_set_refine(
    problem: RegressionProblem,
    beta_start: np.ndarray,
    best_f: float,
    best_lb: float,
    tolerance: float,
):
    """Exchange iteration on the active constraint set (ridge > 0 only).

    For a working set of rows with residual signs s_k the KKT conditions of
    the epigraph program are one square linear system in (beta, tau, z):

        phi_k . beta + s_k tau = t_k      (active rows)
        2 ridge beta = sum_k z_k s_k phi_k
        2 tau = sum_k z_k

    solved after row/column equilibration with extended-precision iterative
    refinement.  Negative multipliers leave the set, violated rows enter,
    and every iterate's clipped multipliers give a valid dual bound.
    """
    phi, t, lam = problem.features, problem.targets, problem.ridge
    M, m = phi.shape
    best_beta = beta_start

    # at most m+1 constraints can be active at a nondegenerate vertex
    r = t - phi @ beta_start
    tau = float(np.max(np.abs(r)))
    rows = np.flatnonzero(np.abs(r) >= tau * (1.0 - 1e-4))
    if rows.size > m + 1:
        rows = rows[np.argsort(np.abs(r[rows]))[-(m + 1) :]]
    sides = np.where(r[rows] >= 0, 1.0, -1.0)
    z_k = np.zeros(rows.size)

    for _ in range(3 * (m + 1) + 120):  # exchange budget
        if rows.size == 0:
            rr = t - phi @ best_beta
            rows = np.array([int(np.argmax(np.abs(rr)))])
            sides = np.where(rr[rows] >= 0, 1.0, -1.0)
        k = rows.size
        nv = m + 1 + k
        K = np.zeros((nv, nv))
        K[:k, :m] = phi[rows]
        K[:k, m] = sides
        K[k : k + m, :m] = 2.0 * lam * np.eye(m)
        K[k : k + m, m + 1 :] = -(sides[None, :] * phi[rows].T)
        K[k + m, m] = 2.0
        K[k + m, m + 1 :] = -1.0
        rhs = np.zeros(nv)
        rhs[:k] = t[rows]

        sol = _solve_equilibrated(K, rhs)
        if sol is None or not np.all(np.isfinite(sol)):
            if k <= 1:
                break
            # degenerate working set: shed the weakest row and retry
            rr = t - phi @ best_beta
            keep = np.ones(k, dtype=bool)
            keep[int(np.argmin(np.abs(rr[rows])))] = False
            rows, sides = rows[keep], sides[keep]
            continue
        beta_k, tau_k, z_k = sol[:m], sol[m], sol[m + 1 :]

        f_k, _ = evaluate_max_quadratic(beta_k, problem)
        if f_k < best_f:
            best_beta, best_f = beta_k, f_k
        lb = _epigraph_dual_value(problem, rows, sides, np.maximum(z_k, 0.0))
        if lb > best_lb:
            best_lb = lb
        if best_f - best_lb <= tolerance:
            break

        z_max = float(np.max(z_k)) if k else 0.0
        if k and float(np.min(z_k)) < -1e-12 * max(z_max, 1e-30):
            keep = np.ones(k, dtype=bool)
            keep[int(np.argmin(z_k))] = False
            rows, sides = rows[keep], sides[keep]
            continue

        rr = t - phi @ beta_k
        outside = np.ones(M, dtype=bool)
        outside[rows] = False
        viol = np.where(outside, np.abs(rr) - tau_k, -np.inf)
        j = int(np.argmax(viol))
        if viol[j] > 1e-10 * (1.0 + abs(tau_k)):
            if k >= m + 1:
                # full vertex: swap out the weakest multiplier
                keep = np.ones(k, dtype=bool)
                keep[int(np.argmin(z_k))] = False
                rows, sides = rows[keep], sides[keep]
            rows = np.append(rows, j)
            sides = np.append(sides, 1.0 if rr[j] >= 0 else -1.0)
            continue
        break  # clean KKT point; nothing further to exchange
    return best_beta, best_f, best_lb


def _solve_equilibrated(K: np.ndarray, rhs: np.ndarray):
    """Solve K x = rhs after inf-norm row/column equilibration, polishing
    with extended-precision iterative refinement.  None if the solve fails."""
    keq = K.copy()
    n = K.shape[0]
    row_scale = np.ones(n)
    col_scale = np.ones(n)
    for _ in range(2):
        rmax = np.max(np.abs(keq), axis=1)
        rmax[rmax == 0.0] = 1.0
        keq /= rmax[:, None]
        row_scale *= rmax
        cmax = np.max(np.abs(keq), axis=0)
        cmax[cmax == 0.0] = 1.0
        keq /= cmax[None, :]
        col_scale *= cmax
    try:
        # formed once, applied once per refinement step
        kinv = np.linalg.inv(keq)
    except np.linalg.LinAlgError:
        # exact singularity is expected for degenerate working sets and
        # handled by the caller
        return None
    rhs_eq = rhs / row_scale
    sol = kinv @ rhs_eq
    if not np.all(np.isfinite(sol)):
        return None
    keq_ld = keq.astype(np.longdouble)
    rhs_ld = rhs_eq.astype(np.longdouble)
    sol_ld = sol.astype(np.longdouble)
    for _ in range(5):
        res = rhs_ld - keq_ld @ sol_ld
        sol_ld = sol_ld + kinv @ res.astype(float)
    return sol_ld.astype(float) / col_scale
