"""End-to-end two-stage pipelines for the Weibull model.

A training set pairs parameter draws with compressed simulations; the Bayes
fit minimizes the average squared loss over the rows (ridge regression) and
the minimax fit minimizes the worst row.  Either way the decision rule is
the composition of the quantile compression with a linear readout of the
scale/shape feature maps, one coefficient vector per parameter.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import solvers
from ._files import write_text_atomic
from .compression import (
    FeatureKind,
    order_statistics,
    quantile_plan,
    readout_basis,
    row_basis,
    scale_feature_len,
    shape_feature_len,
    shape_features,
    shape_form,
    sorted_quantiles,
    validate_quantiles,
)
from .priors import PriorKind, PriorSpec, prior_inverse_cdf
from .rng import SeedSpec, stream
from .weibull import sample_uniform_order_statistics, weibull_quantile_rows

METHOD_BAYES = "bayes"
METHOD_MINIMAX = "minimax"

# sub-stream tags under a TrainingConfig seed
THETA_STREAM = 0
TRAIN_DATA_STREAM = 1
EVAL_STREAM = 2
SCATTER_STREAM = 3

MODEL_FORMAT_VERSION = 2

# rows read out per block: bounds the memory of the readout basis (4n - 1
# columns) and the shape form product (2n) however many datasets are read
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs of the double Monte-Carlo training scheme.

    m_theta parameter draws, m_y datasets per draw, n_obs observations per
    dataset, compressed to n_quantiles values.  theta_distribution is the
    prior for the Bayes fit and doubles as the proposal for the minimax
    fit; its draws are applied independently to scale and shape.
    """

    m_theta: int = 1000
    m_y: int = 1
    n_obs: int = 10000
    n_quantiles: int = 10
    ridge: float = 1e-8
    theta_distribution: PriorSpec = field(
        default_factory=lambda: PriorSpec(PriorKind.UNIFORM, 1.0, 20.0)
    )
    seed: SeedSpec = field(default_factory=lambda: SeedSpec(0))

    def __post_init__(self):
        if self.m_theta < 1:
            raise ValueError("m_theta must be >= 1")
        if self.m_y < 1:
            raise ValueError("m_y must be >= 1")
        if self.n_quantiles < 1:
            raise ValueError("n_quantiles must be >= 1")
        if self.n_quantiles >= self.n_obs:
            raise ValueError("n_quantiles must be smaller than n_obs")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError("ridge must be a finite non-negative real")

    def fingerprint(self) -> str:
        """Stable digest of every field, for tagging fitted models: nested
        configs flattened by field name, floats by repr, enums by value."""

        def leaves(config):
            hints = get_type_hints(type(config))
            for f in fields(config):
                value, hint = getattr(config, f.name), hints[f.name]
                if is_dataclass(hint):
                    yield from leaves(value)
                elif hint is float:
                    yield f.name, repr(value)
                else:
                    yield f.name, value.value if isinstance(value, Enum) else value

        payload = json.dumps(dict(leaves(self)), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TrainingSet:
    """Parameter draws and the compressed simulations they generated.

    Row i*m_y + j of ``alphas`` holds the quantiles of the j-th dataset
    simulated from thetas[i]; ``parent_index`` maps rows back to i.
    """

    thetas: np.ndarray  # (m_theta, 2) rows (scale_i, shape_i)
    alphas: np.ndarray  # (m_theta * m_y, n_quantiles)
    parent_index: np.ndarray  # (m_theta * m_y,)


def simulated_quantiles(config: TrainingConfig, path, scales, shapes) -> np.ndarray:
    """Compressed vectors of the datasets of config.n_obs observations
    simulated from the parameters (scales[r], shapes[r]), one row each: row
    r maps row r of the uniform order statistics at quantile_plan's ranks,
    drawn in order from the sub-stream ``stream(config.seed, *path)``,
    through that row's Weibull quantile function.  So every parameter
    vector on one path reads the same draws, and more rows extend fewer
    row for row.  The cost does not grow with config.n_obs."""
    plan = quantile_plan(config.n_obs, config.n_quantiles)
    draws = sample_uniform_order_statistics(
        stream(config.seed, *path), config.n_obs, plan.ranks, len(scales)
    )
    return plan.quantiles(weibull_quantile_rows(draws, scales, shapes))


def parameter_draws(config: TrainingConfig, tag: int) -> np.ndarray:
    """config.m_theta (scale, shape) rows of config.theta_distribution, the
    scales from the sub-stream (tag, 0) and the shapes from (tag, 1)."""
    dist, seed, m = config.theta_distribution, config.seed, config.m_theta
    draws = [prior_inverse_cdf(stream(seed, tag, k).random(m), dist) for k in (0, 1)]
    return np.column_stack(draws)


def generate_training_set(config: TrainingConfig) -> TrainingSet:
    """Draw parameters from the configured distribution and compress one
    simulated dataset per (draw, replicate).

    Deterministic given config.seed: the draws come from THETA_STREAM, and
    replicate j of draw i reads row i of the order statistics on the path
    (TRAIN_DATA_STREAM, j), which the parameter distribution does not
    change; so a larger m_theta or m_y extends a smaller one.
    """
    thetas = parameter_draws(config, THETA_STREAM)
    replicates = [
        simulated_quantiles(config, (TRAIN_DATA_STREAM, j), thetas[:, 0], thetas[:, 1])
        for j in range(config.m_y)
    ]
    alphas = np.stack(replicates, axis=1).reshape(config.m_theta * config.m_y, -1)
    parent = np.repeat(np.arange(config.m_theta), config.m_y)
    return TrainingSet(thetas=thetas, alphas=alphas, parent_index=parent)


@dataclass(frozen=True)
class TSModel:
    """A fitted two-stage decision rule: quantile compression composed with
    linear readouts over the scale and shape feature maps; ``shape_form``,
    the shape readout as a quadratic form, is neither compared nor saved."""

    beta_scale: solvers.Coefficients
    beta_shape: solvers.Coefficients
    n_quantiles: int
    method: str
    config_fingerprint: str
    shape_form: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.method not in (METHOD_BAYES, METHOD_MINIMAX):
            raise ValueError(f"unknown method {self.method!r}")
        if self.beta_scale.beta.size != scale_feature_len(self.n_quantiles):
            raise ValueError("scale coefficient length does not match n_quantiles")
        if self.beta_shape.beta.size != shape_feature_len(self.n_quantiles):
            raise ValueError("shape coefficient length does not match n_quantiles")
        object.__setattr__(self, "shape_form", shape_form(self.beta_shape.beta, self.n_quantiles))


def build_feature_matrix(alphas: np.ndarray, kind: FeatureKind) -> np.ndarray:
    """Stack the chosen feature map over the rows of a quantile matrix, in
    C order: the scale features are the readout basis's first columns."""
    alphas = _quantile_rows(alphas)
    if kind is FeatureKind.SCALE:
        return readout_basis(alphas)[:, : scale_feature_len(alphas.shape[1])].copy()
    return shape_features(alphas)


def _quantile_rows(alphas) -> np.ndarray:
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 2 or alphas.shape[1] < 1:
        raise ValueError("alphas must be a matrix with one quantile vector per row")
    validate_quantiles(alphas)
    return alphas


def fit_methods(
    training_set: TrainingSet,
    ridge: float,
    methods: tuple[str, ...],
    config_fingerprint: str = "",
) -> tuple[TSModel, ...]:
    """One model per method, all fitted on one training set: the methods
    share its feature matrices, and the minimax fit's ridge warm start is
    the Bayes fit of the same problem, solved once."""
    fits = {METHOD_BAYES: solvers.fit_ridge, METHOD_MINIMAX: solvers.fit_minimax}
    unknown = [method for method in methods if method not in fits]
    if unknown:
        raise ValueError(f"unknown method {unknown[0]!r}")
    targets = training_set.thetas[training_set.parent_index]
    coeffs = {method: [] for method in methods}
    for kind, column in ((FeatureKind.SCALE, 0), (FeatureKind.SHAPE, 1)):
        # features or sums beyond float64 come out infinite or NaN, which
        # RegressionProblem and Coefficients reject
        with np.errstate(over="ignore", invalid="ignore"):
            features = build_feature_matrix(training_set.alphas, kind)
            try:
                problem = solvers.RegressionProblem(features, targets[:, column], ridge)
                for method in methods:
                    coeffs[method].append(fits[method](problem))
            except np.linalg.LinAlgError as err:
                # a ValueError subclass, but the solver failed, not the input
                raise solvers.SolverError(f"the {kind.value} fit failed: {err}") from err
            except ValueError as err:
                raise ValueError(f"the {kind.value} readout overflows float64: {err}") from None
    n_q = training_set.alphas.shape[1]
    return tuple(
        TSModel(
            beta_scale=coeffs[method][0],
            beta_shape=coeffs[method][1],
            n_quantiles=n_q,
            method=method,
            config_fingerprint=config_fingerprint,
        )
        for method in methods
    )


def fit_bayes(config: TrainingConfig) -> TSModel:
    """Average-risk fit: ridge regression of each parameter on its features."""
    training_set = generate_training_set(config)
    (model,) = fit_methods(training_set, config.ridge, (METHOD_BAYES,), config.fingerprint())
    return model


def fit_minimax(config: TrainingConfig) -> TSModel:
    """Worst-case fit: minimax regression of each parameter on its features.

    The configured distribution acts as the sampling proposal; the
    importance weights drop out of the solved program because the inner
    maximum over the simplex concentrates on the worst row.
    """
    training_set = generate_training_set(config)
    (model,) = fit_methods(training_set, config.ridge, (METHOD_MINIMAX,), config.fingerprint())
    return model


def estimate(model: TSModel, y) -> tuple[float, float]:
    """Apply the fitted rule to raw observations: compress, expand, read out.

    Returns (scale_estimate, shape_estimate) as Python floats, bit for bit
    those of estimate_from_quantiles on the sample's quantile row;
    permutation-invariant in y.  The observations must be positive and
    finite.  One sort, then sorted_quantiles' clamp-free lerp and the
    batch readout's arithmetic on one row in 1-D buffers: at small N most
    of the time is fixed numpy call overhead.
    """
    y = np.asarray(y, dtype=float)
    if y.size <= model.n_quantiles:
        raise ValueError("need more observations than quantiles")
    ys = order_statistics(y)
    # NaN sorts last, so the extremes decide for the whole sample
    if not (ys[0] > 0.0 and ys[-1] < math.inf):
        raise ValueError("observations must be positive and finite")
    # quantiles of positive, finite, sorted data pass validate_quantiles
    alpha = sorted_quantiles(ys, model.n_quantiles)
    # estimate_from_quantiles' basis row and dots, without its block loop and 2-D buffers
    num, den, ratio = row_basis(model.n_quantiles)
    basis = alpha[num]
    np.divide(basis, alpha[den], out=basis, where=ratio)
    beta_scale = model.beta_scale.beta
    u = basis[beta_scale.size :]
    # 1-D np.dot is vecdot's inner loop on the same operands, without its
    # broadcast set-up; the inner vecdot keeps the batch path's row order
    eta_hat = np.dot(basis[: beta_scale.size], beta_scale)
    gamma_hat = np.dot(u, np.vecdot(u, model.shape_form))
    return float(eta_hat), float(gamma_hat)


def estimate_from_quantiles(model: TSModel, alphas) -> np.ndarray:
    """Apply the fitted readouts to every row of a quantile matrix; returns
    the (rows, 2) matrix of (scale, shape) estimates."""
    alphas = _quantile_rows(alphas)
    if alphas.shape[1] != model.n_quantiles:
        raise ValueError(
            f"model has {model.n_quantiles} quantiles, rows have {alphas.shape[1]}"
        )
    beta_scale, form = model.beta_scale.beta, model.shape_form
    width = beta_scale.size
    out = np.empty((alphas.shape[0], 2))
    for start in range(0, alphas.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        # one basis buffer per block: the scale features, then the shape
        # basis u, each row of either a unit-stride slice
        basis = readout_basis(alphas[rows])
        np.vecdot(basis[:, :width], beta_scale, out=out[rows, 0])
        # u'Qu as one dot per (row, j) in a fixed order, not u @ Q: a row
        # then reads out bit for bit alike alone and in any batch
        u = basis[:, width:]
        np.vecdot(u, np.vecdot(u[:, None, :], form), out=out[rows, 1])
    return out


def save_model(model: TSModel, path) -> Path:
    """Write the flat text model format: key-value header, blank line, then
    one coefficient per line at 17 significant digits (bit-exact).  The
    file is replaced atomically."""
    lines = [
        f"ts_model_version: {MODEL_FORMAT_VERSION}",
        f"method: {model.method}",
        f"n_quantiles: {model.n_quantiles}",
        f"config_fingerprint: {model.config_fingerprint}",
        f"scale_objective: {model.beta_scale.objective:.17g}",
        f"scale_certificate: {model.beta_scale.certificate:.17g}",
        f"shape_objective: {model.beta_shape.objective:.17g}",
        f"shape_certificate: {model.beta_shape.certificate:.17g}",
        f"scale_coefficients: {model.beta_scale.beta.size}",
        f"shape_coefficients: {model.beta_shape.beta.size}",
        "",
    ]
    lines.extend(f"{v:.17g}" for v in model.beta_scale.beta)
    lines.extend(f"{v:.17g}" for v in model.beta_shape.beta)
    return write_text_atomic(path, "\n".join(lines) + "\n")


def load_model(path) -> TSModel:
    """Read a model written by save_model.  A file of another format
    version, a malformed file, a missing or repeated header key or a
    non-finite number raises ValueError naming the file."""
    text = Path(path).read_text()
    try:
        head, body = text.split("\n\n", 1)
    except ValueError:
        raise ValueError(f"{path}: missing header/coefficient separator") from None
    header: dict[str, str] = {}
    for line in head.splitlines():
        key, _, value = line.partition(":")
        if not _:
            raise ValueError(f"{path}: malformed header line {line!r}")
        key = key.strip()
        if key in header:
            raise ValueError(f"{path}: repeated header key {key!r}")
        header[key] = value.strip()
    version = header.get("ts_model_version")
    if version != str(MODEL_FORMAT_VERSION):
        raise ValueError(
            f"{path}: unsupported model version {version!r} (this program reads "
            f"version {MODEL_FORMAT_VERSION}); refit the model"
        )

    def field(key: str, parse=str):
        if key not in header:
            raise ValueError(f"{path}: missing header key {key!r}")
        try:
            value = parse(header[key])
        except ValueError:
            raise ValueError(f"{path}: malformed {key} {header[key]!r}") from None
        if parse is float and not math.isfinite(value):
            raise ValueError(f"{path}: {key} is not finite")
        return value

    n_scale = field("scale_coefficients", int)
    n_shape = field("shape_coefficients", int)
    try:
        values = np.array([float(tok) for tok in body.split()])
    except ValueError as err:
        raise ValueError(f"{path}: malformed coefficient ({err})") from None
    if len(values) != n_scale + n_shape:
        raise ValueError(f"{path}: expected {n_scale + n_shape} coefficients")
    numbers = {
        key: field(key, float)
        for key in ("scale_objective", "scale_certificate", "shape_objective", "shape_certificate")
    }
    n_quantiles = field("n_quantiles", int)
    method = field("method")
    fingerprint = field("config_fingerprint")
    try:
        return TSModel(
            beta_scale=solvers.Coefficients(
                values[:n_scale], numbers["scale_objective"], numbers["scale_certificate"]
            ),
            beta_shape=solvers.Coefficients(
                values[n_scale:], numbers["shape_objective"], numbers["shape_certificate"]
            ),
            n_quantiles=n_quantiles,
            method=method,
            config_fingerprint=fingerprint,
        )
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
