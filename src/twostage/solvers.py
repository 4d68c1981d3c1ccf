"""Second-stage fitters: mean-squared ridge regression and worst-case
(minimax) regression over a max of convex quadratics.

Both fitters return an optimality certificate.  Ridge is solved exactly
(certificate 0), by Cholesky on the column-scaled normal matrix refined
from the features' own residual t - Phi beta; the minimax program

    min_beta  max_i (t_i - phi_i . beta)^2  +  ridge * ||beta||^2

is solved by a primal-dual interior-point iteration on its epigraph form,
run in the coordinates that the ridge fit's Cholesky factor whitens: there
the ridge normal matrix Phi'Phi/M + ridge I is the identity, so the
iteration needs no diagonal shift on the paper's ill-conditioned shape map.
It stops once its duality measure is a hundredth of the tolerance it must
certify.  The reported certificate is a rigorous global suboptimality
bound in the original coordinates: the best objective found minus a
Lagrange dual value, which any multipliers z >= 0 give (weak duality).  At
ridge > 0 the dual of the epigraph program has a closed form, evaluated at
the interior point's own multipliers; if its dual residual, which the
stop rule does not measure, leaves the gap open, an active-set exchange,
which solves each working set's KKT system afresh, closes it with the same
closed form at its working-set multipliers.  At ridge 0 the closed form
does not exist, and the bound is

    L(u) = min_beta  sum_i u_i (t_i - phi_i . beta)^2

at the interior point's normalized multipliers u, one least-squares solve:
a convex combination of the rows never exceeds their max.  On nearly
collinear columns that solve can put L(u) above the best objective found;
such a value is no bound and is discarded, and 0, which bounds any max of
squares, stays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class SolverError(RuntimeError):
    """Base class for second-stage solver failures."""


class RankDeficiencyError(SolverError):
    """Singular normal matrix with ridge = 0; set ridge > 0 to regularize."""


class SolverBudgetError(SolverError):
    """No bound that fit_minimax ran closed the certified gap to tolerance.

    The interior point runs once, until its duality measure is a hundredth
    of the tolerance or it can make no more progress, and is certified by
    its own dual; with ridge > 0 only, the active-set exchange then runs
    until a clean KKT point or its exchange budget.  The message names the
    phases that ran.  At ridge 0 only the interior point runs, so no
    exchange budget is spent.  Carries the best iterate found, with its
    (still valid) certificate.
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

    @cached_property
    def _ridge(self):
        # solved on first use and kept for the life of the problem
        return _solve_ridge(self)

    @cached_property
    def _kkt_scales(self):
        # fixed per problem, so a row keeps its scales in every working set
        return _working_set_scales(self)


@dataclass(frozen=True)
class Coefficients:
    """A fitted coefficient vector with its achieved objective value and a
    guaranteed suboptimality gap (0 for exact solves).

    ``trace`` is what fit_minimax did, as plain data: ``gaps`` maps each
    phase that ran, in order, to the gap after it; ``closed_by`` names the
    phase that met the tolerance (None if none did); ``ipm_gaps`` lists the
    interior point's duality measure s'z after each of its iterations; and
    it counts ``ipm_iterations``, ``cholesky_retries`` and
    ``exchange_steps``.  Not compared, and not saved with a model.
    """

    beta: np.ndarray
    objective: float
    certificate: float
    trace: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        # a fit whose sums overflow float64 ends here, not in a model file
        if not (np.all(np.isfinite(self.beta)) and np.isfinite(self.objective)):
            raise ValueError("coefficients and objective must be finite")
        if not 0 <= self.certificate < np.inf:
            raise ValueError("certificate must be finite and non-negative")


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


def fit_ridge(problem: RegressionProblem) -> Coefficients:
    """Minimize (1/M)||t - Phi beta||^2 + ridge ||beta||^2 exactly.

    With the columns of Phi scaled to unit 2-norm, the normal matrix is
    factored by Cholesky once, and three corrections, each solved from the
    residual of the least-squares problem itself (t - Phi beta, not that of
    the normal equations), refine the solution to the accuracy of a
    least-squares solve.  At ridge > 0 a system that is singular to working
    precision is solved by lstsq on the stacked [Phi; sqrt(M ridge) I];
    at ridge = 0 it raises RankDeficiencyError.  A problem is solved once:
    fit_ridge and the warm start of fit_minimax share the solution and its
    factor.
    """
    return problem._ridge[0]


@dataclass(frozen=True)
class _RidgeFactor:
    """L L' = Phi_s'Phi_s + diag(M ridge / col^2), the column-scaled ridge
    normal matrix with Phi_s = Phi / col, col the columns' 2-norms."""

    col: np.ndarray
    lower: np.ndarray
    inverse: np.ndarray  # L^-1: numpy has no triangular solve


def _solve_ridge(problem: RegressionProblem):
    """fit_ridge's coefficients and the _RidgeFactor it solved with, None
    where the system went to lstsq."""
    phi, t, lam = problem.features, problem.targets, problem.ridge
    M, m = phi.shape
    # Phi'Phi overflows exactly when a squared column norm does; tested
    # before the rank, so that no lstsq fallback meets such columns (LAPACK
    # prints its own error text for them to stderr)
    with np.errstate(over="ignore"):
        col = np.linalg.norm(phi, axis=0)
    if not np.all(np.isfinite(col)):
        raise ValueError("feature column norms must be finite")
    if lam == 0.0 and M < m:
        raise RankDeficiencyError(
            f"normal matrix is singular ({M} rows < {m} features); set ridge > 0"
        )
    col[col == 0.0] = 1.0
    phi_s = phi / col
    root = np.sqrt(M * lam) / col  # the ridge rows, scaled
    shift = root * root
    try:
        lower = np.linalg.cholesky(phi_s.T @ phi_s + np.diag(shift))
    except np.linalg.LinAlgError:
        if lam == 0.0:
            raise RankDeficiencyError("normal matrix is singular; set ridge > 0") from None
        stacked = np.vstack([phi_s, np.diag(root)])
        g = np.linalg.lstsq(stacked, np.concatenate([t, np.zeros(m)]), rcond=None)[0]
        factor = None
    else:
        linv = np.linalg.inv(lower)

        def solve(r):
            return linv.T @ (linv @ r)

        g = solve(phi_s.T @ t)
        for _ in range(3):
            g = g + solve(phi_s.T @ (t - phi_s @ g) - shift * g)
        factor = _RidgeFactor(col, lower, linv)
    beta = g / col
    beta.flags.writeable = False  # shared by every fit of the problem
    coeff = Coefficients(beta=beta, objective=mean_squared_objective(beta, problem), certificate=0.0)
    return coeff, factor


def _weighted_lower_bound(u: np.ndarray, problem: RegressionProblem):
    """Rigorous global lower bound L(u) on the minimax objective.

    L(u) = min_beta sum_i u_i r_i^2 for simplex weights u, by least squares
    on the sqrt(u)-weighted rows.  The ridge term is left out, so the bound
    is tight only at ridge 0, where fit_minimax uses it.  Returns (bound,
    beta_u): the weighted objective at beta_u in extended precision, less
    the exact remaining descent of the quadratic, one float64 step down so
    that rounding cannot lift it.
    """
    phi, t = problem.features, problem.targets
    A = phi.T @ (u[:, None] * phi)
    b = phi.T @ (u * t)
    ws = np.sqrt(u)
    beta_u = np.linalg.lstsq(ws[:, None] * phi, ws * t, rcond=None)[0]
    g = 2.0 * (A @ beta_u - b)
    corr = 0.25 * float(g @ np.linalg.lstsq(A, g, rcond=None)[0])
    ld = np.longdouble
    r = t.astype(ld) - phi.astype(ld) @ beta_u.astype(ld)
    bound = float(u.astype(ld) @ (r * r) - ld(abs(corr)))
    return max(float(np.nextafter(bound, -np.inf)), 0.0), beta_u


def _ipm_epigraph(phi, t, P, beta0, f_scale, tolerance, max_iter=80):
    """Interior-point iteration for min 0.5 x'Px  s.t. |t_i - phi_i.b| <= tau.

    x = (b, tau) with P a dense symmetric positive semidefinite matrix;
    Mehrotra predictor-corrector on the KKT system, reduced to one dense
    (m+1) x (m+1) system per iteration.  A Cholesky factorization tests that
    system for positive definiteness, its diagonal shifted until it factors,
    and an LU solve gives each direction: at m = 165 two solves cost less
    than inverting the factor.

    It stops once the residuals and the duality measure mu = s'z / 2M are
    at rounding level and s'z is at most tolerance / 100, so that the gap
    the caller certifies is closed with room for the rounding of its bound.
    Past the first iterate at rounding level, steps on nearly collinear
    columns can still shrink s'z while the objective or the bound that the
    caller evaluates gets worse, so that iterate is kept beside the last.

    Returns (iterates, gaps, shift retries): iterates holds those one or
    two (x, z) pairs, z >= 0 the multipliers of the 2M constraint rows,
    r_i = t_i - phi_i.b, the block r_i <= tau (side +1) first, then
    -r_i <= tau (side -1), as h = [-t, t] orders them; gaps holds s'z
    after each iteration.
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
    delta0 = 1e-12 * (1.0 + float(np.max(np.diag(P))))
    delta_ok = delta0
    retries, sz, gaps, iterates = 0, float(s @ z), [], []
    # per-iteration buffers: the weighted rows, the system and its shifted copy
    weighted = np.empty_like(phi)
    Hfull = np.empty((m + 1, m + 1))
    K = np.empty_like(Hfull)
    K_diag = K.reshape(-1)[:: m + 2]  # a view of K's diagonal
    for _ in range(max_iter):
        rp = g_apply(x) + s - h
        mu = sz / (2 * M)
        if (
            mu <= 1e-13 * (1.0 + f_scale)
            and float(np.max(np.abs(rp))) <= 1e-11 * (1.0 + float(np.max(np.abs(h))))
        ):
            if not iterates:
                iterates.append((x, z))  # the first at rounding level
            if sz <= tolerance / 100.0:
                break

        w = z / s
        lo, hi = w[:M], w[M:]
        row_weight = lo + hi
        np.multiply(np.sqrt(row_weight)[:, None], phi, out=weighted)
        Hfull[:m, :m] = weighted.T @ weighted  # one symmetric rank-k update
        border = phi.T @ (lo - hi)
        Hfull[:m, m] = border
        Hfull[m, :m] = border
        Hfull[m, m] = float(np.sum(row_weight))
        Hfull += P
        # the right-hand side both directions share
        rhs0 = -(P @ x) - gt_apply(w * rp)
        sz_rows = s * z

        def kkt_solve(rhs, target):
            # Newton direction for complementarity target -> 0, where
            # target = s*z + extra and rhs = rhs0 + G'(extra / s)
            dx = np.linalg.solve(K, rhs)
            ds = -rp - g_apply(dx)
            dz = -target / s - w * ds
            return dx, ds, dz

        delta = max(delta0, delta_ok / 100.0)
        while True:
            np.copyto(K, Hfull)
            K_diag += delta
            try:
                np.linalg.cholesky(K)  # the positive-definite test
                # LU can still meet a zero pivot that Cholesky rounded past;
                # once it factors, the corrector's solve repeats its pivots
                dx_a, ds_a, dz_a = kkt_solve(rhs0, sz_rows)  # the predictor: extra = 0
                break
            except np.linalg.LinAlgError:
                retries += 1
                delta *= 100.0
                if delta > 1e6 * (1.0 + float(np.max(np.abs(Hfull)))):
                    raise
        delta_ok = delta

        alpha_p = _max_step(s, ds_a)
        alpha_d = _max_step(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / (2 * M)
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.1

        extra = ds_a * dz_a - sigma * mu
        dx, ds, dz = kkt_solve(rhs0 + gt_apply(extra / s), sz_rows + extra)
        alpha_p = 0.99 * _max_step(s, ds)
        alpha_d = 0.99 * _max_step(z, dz)
        if max(alpha_p, alpha_d) < 1e-10:
            break  # numerical floor reached; certificate decides from here
        x = x + alpha_p * dx
        s = s + alpha_p * ds
        z = z + alpha_d * dz
        sz = float(s @ z)
        gaps.append(sz)
    if not iterates or iterates[0][0] is not x:
        iterates.append((x, z))  # the last, where it is not the first
    return iterates, gaps, retries


def _max_step(v, dv):
    """The largest step in (0, 1] that keeps v + step * dv >= 0, for v > 0:
    min over dv < 0 of -v / dv, which is -(v / dv) exactly."""
    ratio = np.divide(v, dv, out=np.full_like(v, -np.inf), where=dv < 0)
    return min(1.0, -float(np.max(ratio)))


def fit_minimax(problem: RegressionProblem, tolerance: float | None = None) -> Coefficients:
    """Minimize the worst-row quadratic loss max_i (t_i - phi_i.beta)^2 plus
    the uniform ridge term.

    ``tolerance`` bounds the certified suboptimality gap; None means 1e-6
    relative to the objective at the warm start (the ridge solution, or the
    least-squares solution when ridge = 0 leaves the normal matrix
    singular), which also seeds the interior point and stays a candidate
    iterate.  The interior point runs in gamma = L' diag(col) beta, with
    L L' the Cholesky factor of the column-scaled ridge normal matrix that
    the warm start solved with, or in the scaled beta alone where that
    solve had no factor, and stops once its duality measure is below
    tolerance / 100.  Each iterate it returns is read back as beta and
    certified by its own multipliers: the closed-form epigraph dual at
    ridge > 0, L(u) at ridge 0, where an L(u) that exceeds the best
    objective reached by more than 8 machine epsilons relative is discarded;
    the bound 0 always stands.  With ridge > 0 and the gap still open, an
    active-set exchange on the equality KKT system tightens both sides.  If
    the gap stays above tolerance, raises SolverBudgetError carrying the
    best iterate.
    """
    if tolerance is not None and not tolerance > 0:
        raise ValueError("tolerance must be positive")
    phi, t, lam = problem.features, problem.targets, problem.ridge
    M, m = phi.shape

    try:
        ridge_fit, factor = problem._ridge
        beta_warm = ridge_fit.beta
    except RankDeficiencyError:
        beta_warm, factor = np.linalg.lstsq(phi, t, rcond=None)[0], None
    f_warm, _ = evaluate_max_quadratic(beta_warm, problem)
    if tolerance is None:
        tolerance = max(1e-6 * f_warm, 1e-15)

    # the epigraph QP in coordinates beta = T gamma, T = diag(1/col) L^-T,
    # in which Phi'Phi/M + ridge I, the ridge normal matrix, is the identity
    if factor is not None:
        col, lower, linv = factor.col / np.sqrt(M), factor.lower, factor.inverse
    else:  # only the columns equilibrated
        col = np.linalg.norm(phi, axis=0) / np.sqrt(M)
        col[col == 0.0] = 1.0
        lower = linv = np.eye(m)
    T = linv.T / col[:, None]
    P = np.zeros((m + 1, m + 1))
    P[:m, :m] = 2.0 * lam * (T.T @ T)
    P[m, m] = 2.0
    iterates, ipm_gaps, retries = _ipm_epigraph(
        phi @ T, t, P, lower.T @ (col * beta_warm), max(f_warm, 1e-10), tolerance
    )

    # the interior point's multipliers certify its iterates; the constraint
    # rows are the same in either coordinates, so z carries over
    best_beta, best_f, bounds = beta_warm, f_warm, []
    rows, sides = np.tile(np.arange(M), 2), np.repeat([1.0, -1.0], M)
    for x, z in iterates:
        beta_ipm = T @ x[:m]
        f_ipm, _ = evaluate_max_quadratic(beta_ipm, problem)
        if f_ipm < best_f:
            best_beta, best_f = beta_ipm, f_ipm
        if lam > 0.0:
            lb = _epigraph_dual_value(problem, rows, sides, z)
        else:
            u = z[:M] + z[M:]
            total = float(np.sum(u))
            u = u / total if total > 0 else np.full(M, 1.0 / M)
            lb, beta_u = _weighted_lower_bound(u, problem)
            f_u, _ = evaluate_max_quadratic(beta_u, problem)
            if f_u < best_f:
                best_beta, best_f = beta_u, f_u
        bounds.append(lb)
    if lam == 0.0:
        # L(u) is not rigorous on nearly collinear columns: a bound above
        # the best objective reached, beyond its rounding, is no bound
        bounds = [lb for lb in bounds if lb <= best_f * (1.0 + 8.0 * np.finfo(float).eps)]
    # 0 bounds a max of squares from below, so a fit left without a bound
    # still carries a finite certificate
    best_lb = max([0.0, *bounds])

    gaps = {"interior point": best_f - best_lb}
    trace = dict(gaps=gaps, ipm_iterations=len(ipm_gaps), ipm_gaps=ipm_gaps,
                 cholesky_retries=retries, exchange_steps=0)
    if lam > 0.0 and best_f - best_lb > tolerance:
        best_beta, best_f, best_lb, trace["exchange_steps"] = _active_set_refine(
            problem, best_beta, best_f, best_lb, tolerance
        )
        gaps["active-set exchange"] = best_f - best_lb

    certificate = max(best_f - best_lb, 0.0)
    trace["closed_by"] = list(gaps)[-1] if certificate <= tolerance else None
    coeff = Coefficients(best_beta, best_f, certificate, trace)
    if certificate > tolerance:
        phases = " and ".join(f"the {phase}" for phase in gaps)
        raise SolverBudgetError(
            f"certified gap {certificate:.3e} above tolerance {tolerance:.3e} after {phases}",
            coeff,
        )
    return coeff


def _epigraph_dual_value(problem: RegressionProblem, rows, sides, z) -> float:
    """Closed-form dual of the epigraph program at multipliers z >= 0 on the
    given (row, side) constraints; valid global lower bound for ridge > 0.

        D(z) = -||sum_k z_k s_k phi_k||^2 / (4 ridge) - (sum_k z_k)^2 / 4
               + sum_k z_k s_k t_k

    Evaluated in extended precision: the first term is a near-cancelling
    combination whose accuracy decides the certificate quality.  einsum
    casts the rows in buffered blocks, so no long-double copy of them is made.
    """
    phi, t, lam = problem.features, problem.targets, problem.ridge
    zld = z.astype(np.longdouble)
    sld = sides.astype(np.longdouble)
    w = np.einsum("k,kj->j", sld * zld, phi[rows])
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

        2 ridge beta = sum_k z_k s_k phi_k
        2 tau = sum_k z_k
        phi_k . beta + s_k tau = t_k      (active rows)

    solved by _solve_working_set.  Negative multipliers leave the set, violated
    rows enter, and every iterate's clipped multipliers give a valid dual
    bound.  Returns the best iterate, its objective, the best bound and the
    steps taken.

    The first working set holds the rows near the largest residual at the
    best iterate.  On the protocol's training problems it closes the gap in
    one step; with parameters drawn from [1, 1000] it often misses rows
    that are active at the optimum, and the exchange adds them over tens to
    hundreds of steps.
    """
    phi, t = problem.features, problem.targets
    M, m = phi.shape
    best_beta = beta_start

    # at most m+1 constraints can be active at a nondegenerate vertex
    r = t - phi @ beta_start
    tau = float(np.max(np.abs(r)))
    rows = np.flatnonzero(np.abs(r) >= tau * (1.0 - 1e-4))
    if rows.size > m + 1:
        rows = rows[np.argsort(np.abs(r[rows]))[-(m + 1) :]]
    sides = np.where(r[rows] >= 0, 1.0, -1.0)

    for steps in range(1, 3 * (m + 1) + 121):  # exchange budget
        if rows.size == 0:
            rr = t - phi @ best_beta
            j = int(np.argmax(np.abs(rr)))
            rows, sides = np.append(rows, j), np.append(sides, 1.0 if rr[j] >= 0 else -1.0)
        k = rows.size

        sol = _solve_working_set(problem, rows, sides)
        if sol is None:
            if k <= 1:
                break
            # degenerate working set: shed the weakest row and retry
            rr = t - phi @ best_beta
            i = int(np.argmin(np.abs(rr[rows])))
            rows, sides = np.delete(rows, i), np.delete(sides, i)
            continue
        beta_k, tau_k, z_k = sol

        f_k, _ = evaluate_max_quadratic(beta_k, problem)
        if f_k < best_f:
            best_beta, best_f = beta_k, f_k
        lb = _epigraph_dual_value(problem, rows, sides, np.maximum(z_k, 0.0))
        if lb > best_lb:
            best_lb = lb
        if best_f - best_lb <= tolerance:
            break

        i = int(np.argmin(z_k))
        if z_k[i] < -1e-12 * max(float(np.max(z_k)), 1e-30):
            rows, sides = np.delete(rows, i), np.delete(sides, i)
            continue

        rr = t - phi @ beta_k
        outside = np.ones(M, dtype=bool)
        outside[rows] = False
        viol = np.where(outside, np.abs(rr) - tau_k, -np.inf)
        j = int(np.argmax(viol))
        if viol[j] > 1e-10 * (1.0 + abs(tau_k)):
            if k >= m + 1:
                # full vertex: swap out the weakest multiplier
                rows, sides = np.delete(rows, i), np.delete(sides, i)
            rows, sides = np.append(rows, j), np.append(sides, 1.0 if rr[j] >= 0 else -1.0)
            continue
        break  # clean KKT point; nothing further to exchange
    return best_beta, best_f, best_lb, steps


def _working_set_scales(problem: RegressionProblem):
    """Row and column scales of the working-set KKT system, by two max-abs
    passes over the system with every row active: (row scales of the
    stationarity and tau equations, of each constraint row; column scales
    of beta and tau, of each multiplier).  The system's entries are
    2 ridge, 2, |phi_j| and 1."""
    a, lam2 = np.abs(problem.features), 2.0 * problem.ridge
    M, m = a.shape
    c_beta, c_tau, c_z = np.ones(m), 1.0, np.ones(M)
    for _ in range(2):
        r_stat = np.maximum(lam2 / c_beta, np.max(a / c_z[:, None], axis=0))
        r_tau = max(2.0 / c_tau, float(np.max(1.0 / c_z)))
        r_row = np.maximum(np.max(a / c_beta, axis=1), 1.0 / c_tau)
        c_beta = np.maximum(lam2 / r_stat, np.max(a / r_row[:, None], axis=0))
        c_tau = max(2.0 / r_tau, float(np.max(1.0 / r_row)))
        c_z = np.maximum(np.max(a / r_stat, axis=1), 1.0 / r_tau)
    return np.append(r_stat, r_tau), r_row, np.append(c_beta, c_tau), c_z


def _solve_working_set(problem: RegressionProblem, rows, sides):
    """(beta, tau, z) of a working set's KKT system, or None if it is
    singular.

    Equations [stationarity (m), tau, rows (k)] by variables [beta (m), tau,
    z (k)], active row j multiplied by its side s_j, equilibrated by the
    problem's fixed scales.  Solves from zero with the inverse of the
    equilibrated matrix, refining with an extended-precision residual while
    each correction at least halves.
    """
    phi, t = problem.features, problem.targets
    m = phi.shape[1]
    rows, sides = np.asarray(rows, dtype=int), np.asarray(sides, dtype=float)
    r_head, r_row, c_head, c_z = problem._kkt_scales
    h = np.append(np.full(m, 2.0 * problem.ridge), 2.0)
    head = m + 1
    g = np.column_stack([sides[:, None] * phi[rows], np.ones(rows.size)])
    r = np.append(r_head, r_row[rows])
    c = np.append(c_head, c_z[rows])
    K = np.block([[np.diag(h), -g.T], [g, np.zeros((len(g), len(g)))]])
    try:
        binv = np.linalg.inv(K / r[:, None] / c)
    except np.linalg.LinAlgError:
        return None  # exact singularity: a degenerate working set
    g, rhs = g.astype(np.longdouble), (sides * t[rows]).astype(np.longdouble)
    x = np.zeros(r.size, dtype=np.longdouble)
    res, step = np.append(np.zeros(head), rhs / r[head:]).astype(float), np.inf
    while True:
        dy = binv @ res
        size = float(np.max(np.abs(dy)))
        if not size < 0.5 * step:
            break
        x += dy / c
        step = size
        # rhs - K x by blocks, equilibrated
        res = np.concatenate([np.dot(x[head:], g) - h * x[:head], rhs - np.dot(g, x[:head])])
        res = (res / r).astype(float)
    x = x.astype(float)
    if not np.all(np.isfinite(x)):
        return None
    return x[:m], float(x[m]), x[head:]
