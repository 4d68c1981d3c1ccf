"""Two-stage likelihood-free parameter estimation.

Stage one compresses i.i.d. data into evenly spaced sample quantiles; stage
two reads the parameters out of fixed nonlinear features of those quantiles
with a linear rule fitted either for average risk under a prior (ridge
regression) or for worst-case risk over the sampled parameters (minimax
regression).  Includes the Weibull benchmark: simulator, priors, Fisher
information / Cramér-Rao bounds, and a Monte-Carlo evaluation harness.  The
package holds only what the command line, the reproduction script and the
benchmark run; test references and oracles live in tests/oracles.py.
"""

from .compression import DegenerateInputError, FeatureKind, order_statistics
from .crlb import crlb, fisher_per_sample
from .estimator import (
    METHOD_BAYES,
    METHOD_MINIMAX,
    TrainingConfig,
    TrainingSet,
    TSModel,
    estimate,
    fit_bayes,
    fit_minimax,
    generate_training_set,
    load_model,
    save_model,
)
from .experiment import (
    ExperimentConfig,
    RiskReport,
    RiskRow,
    emit_scatter,
    reproduce_table,
    run_mse_experiment,
)
from .priors import PriorKind, PriorSpec
from .rng import SeedSpec
from .solvers import (
    Coefficients,
    RegressionProblem,
    SolverBudgetError,
    SolverError,
    evaluate_max_quadratic,
    fit_ridge,
)
from .weibull import WeibullParams

__all__ = [
    "DegenerateInputError",
    "FeatureKind",
    "order_statistics",
    "crlb",
    "fisher_per_sample",
    "METHOD_BAYES",
    "METHOD_MINIMAX",
    "TrainingConfig",
    "TrainingSet",
    "TSModel",
    "estimate",
    "fit_bayes",
    "fit_minimax",
    "generate_training_set",
    "load_model",
    "save_model",
    "ExperimentConfig",
    "RiskReport",
    "RiskRow",
    "emit_scatter",
    "reproduce_table",
    "run_mse_experiment",
    "PriorKind",
    "PriorSpec",
    "SeedSpec",
    "Coefficients",
    "RegressionProblem",
    "SolverBudgetError",
    "SolverError",
    "evaluate_max_quadratic",
    "fit_ridge",
    "WeibullParams",
]
