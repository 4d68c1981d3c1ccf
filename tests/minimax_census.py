"""Census of fit_minimax over four families of problems.

Run from the repository root, at one BLAS thread so that the counts repeat:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/minimax_census.py

Per family it prints the fits; the certified fits; the SolverBudgetErrors
at ridge 0 and at ridge > 0; the fits that ran the active-set exchange and
the exchange steps they took; the fits whose Cholesky factorization needed
a diagonal shift; the certified fits whose interior-point gap is negative;
and a digest of the indices of the certified fits, which compares the
certified sets of two versions of the solver at a glance.

The first three families are random: every fit at ridge > 0 must certify.
The fourth, "wide", is the package's own training problems with parameters
drawn from [1, 1000]; there the exchange takes up to a few hundred steps,
and a fit that it cannot close is counted, not failed.  At ridge 0 the
bound L(u) cannot certify every nearly collinear problem, so budget errors
there are expected and only printed.  The script exits 1 if a fit at
ridge > 0 in a random family raises, or if any certified fit has a negative
gap: its bound would lie above an objective it reached.  It also exits 1
if a PINNED family's row differs from the one in tests/expected/ (see
tests/pinned.py).  Any other exception stops it with a traceback, and so
also exits 1.
"""

import hashlib
import itertools
import sys
import time

import numpy as np

from oracles import (
    nearly_collinear_problem,
    random_census_problem,
    random_small_problem,
    training_problem,
)
from pinned import CENSUS_FILE, expected_lines
from twostage.compression import FeatureKind
from twostage.estimator import TrainingConfig
from twostage.priors import PriorSpec
from twostage.rng import SeedSpec
from twostage.solvers import RegressionProblem, SolverBudgetError, fit_minimax


def drawn(draw, seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield draw(rng)


def nearly_collinear(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield nearly_collinear_problem(rng, (0.0, 1e-8, 1e-4)[i % 3])


def wide_training_problems():
    sizes = [(5, 120, 4), (50, 200, 4), (100, 500, 5)]
    for (m_theta, n_obs, n_quantiles), prior, seed, kind in itertools.product(
        sizes, ("uniform", "reciprocal"), range(1, 5), (FeatureKind.SCALE, FeatureKind.SHAPE)
    ):
        config = TrainingConfig(m_theta=m_theta, n_obs=n_obs, n_quantiles=n_quantiles,
                                theta_distribution=PriorSpec(prior, 1.0, 1000.0), seed=SeedSpec(seed))
        problem = training_problem(config, kind)
        for ridge in (1e-8, 1e-4):
            yield RegressionProblem(problem.features, problem.targets, ridge)


# (name, problems, whether every fit at ridge > 0 must certify)
FAMILIES = [
    ("small", lambda: drawn(random_small_problem, 2026, 3000), True),
    ("random", lambda: drawn(random_census_problem, 2027, 500), True),
    ("collinear", lambda: nearly_collinear(2028, 2400), True),
    ("wide", wide_training_problems, False),
]

# the families whose rows repeat at 1 and 2 BLAS threads, with OpenBLAS's
# Haswell kernels and with numpy's AVX-512 kernels off; the collinear and
# wide rows move with the kernels, so they are gated but not compared
PINNED = ("small", "random")

COLUMNS = ("fits", "certified", "budget@0", "budget@>0", "exchanged", "steps", "shifted", "neg. gap")


def census(problems, strict):
    """The counts of COLUMNS over the problems, the certified indices'
    digest and the failures that make the census fail."""
    counts = dict.fromkeys(COLUMNS, 0)
    certified, failures = [], []
    for i, problem in enumerate(problems):
        counts["fits"] += 1
        try:
            fit = fit_minimax(problem)
        except SolverBudgetError as err:
            counts["budget@0" if problem.ridge == 0.0 else "budget@>0"] += 1
            if strict and problem.ridge > 0.0:
                failures.append(f"problem {i}, ridge {problem.ridge:g}: {err}")
            trace = err.coefficients.trace
        else:
            trace = fit.trace
            counts["certified"] += 1
            certified.append(i)
            gap = trace["gaps"]["interior point"]
            if gap < 0.0:
                counts["neg. gap"] += 1
                failures.append(f"problem {i}: certified with interior-point gap {gap:.3e}")
        counts["exchanged"] += trace["exchange_steps"] > 0
        counts["steps"] += trace["exchange_steps"]
        counts["shifted"] += trace["cholesky_retries"] > 0
    digest = hashlib.sha256(np.array(certified, dtype=np.int64).tobytes()).hexdigest()[:12]
    return counts, digest, failures


def run():
    """The census table's lines, printed as each family finishes, and the
    failures of every family."""
    table = [f"{'family':<10}" + "".join(f"{c:>11}" for c in COLUMNS) + f"{'certified set':>15}"]
    print(table[0])
    failures = []
    for name, problems, strict in FAMILIES:
        counts, digest, failed = census(problems(), strict)
        failures += [f"{name}: {line}" for line in failed]
        table.append(f"{name:<10}" + "".join(f"{counts[c]:>11}" for c in COLUMNS) + f"{digest:>15}")
        print(table[-1])
    return table, failures


def pinned_rows(table):
    """The header and the PINNED families' rows of a census table."""
    return [line for line in table if line.split()[0] in ("family", *PINNED)]


def main() -> int:
    start = time.perf_counter()
    table, failures = run()
    print(f"{time.perf_counter() - start:.1f} s")
    if pinned_rows(table) != expected_lines(CENSUS_FILE):
        failures.append(f"the table differs from tests/expected/{CENSUS_FILE}")
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
