"""Monte-Carlo evaluation harness: mean squared error of fitted rules at
fixed parameter points, compared against the Cramér-Rao bounds, plus CSV
emission of the result table and of scatter data (true vs. estimated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import estimator as est
from ._files import write_text_atomic
from .crlb import crlb
from .priors import PriorKind, PriorSpec
from .weibull import WeibullParams

TABLE_POINTS = ((2.0, 2.0), (2.0, 8.0), (4.0, 2.0), (4.0, 8.0), (8.0, 2.0), (8.0, 8.0))
EMIT_KINDS = frozenset({"scatter", "table", "model"})
_SCATTER_HEADER = "true_eta,true_gamma,est_eta,est_gamma"
_SCATTER_ROW = "%.17g,%.17g,%.17g,%.17g"


@dataclass(frozen=True)
class ExperimentConfig:
    training: est.TrainingConfig = field(default_factory=est.TrainingConfig)
    eval_points: tuple = TABLE_POINTS
    mc_runs: int = 1000
    output_dir: Path = Path("results")
    emit: frozenset = EMIT_KINDS

    def __post_init__(self):
        points = tuple((float(a), float(b)) for a, b in self.eval_points)
        object.__setattr__(self, "eval_points", points)
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        object.__setattr__(self, "emit", frozenset(self.emit))
        if self.mc_runs < 1:
            raise ValueError("mc_runs must be >= 1")
        if not points:
            raise ValueError("eval_points must be non-empty")
        dist = self.training.theta_distribution
        for eta, gam in points:
            if not (dist.contains(eta) and dist.contains(gam)):
                raise ValueError(
                    f"eval point ({eta}, {gam}) outside the parameter "
                    f"distribution support [{dist.lower}, {dist.upper}]"
                )
        unknown = self.emit - EMIT_KINDS
        if unknown:
            raise ValueError(f"unknown emit kinds: {sorted(unknown)}")


@dataclass(frozen=True)
class RiskRow:
    """One row of a risk table; the fields are its columns, in file order."""

    true_eta: float
    true_gamma: float
    crlb_eta: float
    crlb_gamma: float
    mse_eta: float
    mse_gamma: float
    efficiency_eta: float
    efficiency_gamma: float

    def __post_init__(self):
        risks = (self.mse_eta, self.mse_gamma, self.efficiency_eta, self.efficiency_gamma)
        if not all(math.isfinite(value) and value >= 0 for value in risks):
            raise ValueError(
                f"mse and efficiency at ({self.true_eta:g}, {self.true_gamma:g}) must be "
                f"finite and non-negative, got {', '.join(f'{v:g}' for v in risks)}"
            )
        if not (self.crlb_eta > 0 and self.crlb_gamma > 0):
            raise ValueError("crlb must be positive")


# the columns of a risk table after the method
_TABLE_COLUMNS = tuple(f.name for f in fields(RiskRow))
_TABLE_HEADER = ",".join(("method", *_TABLE_COLUMNS))


@dataclass(frozen=True)
class RiskReport:
    """Per-point risk estimates for one method."""

    method: str
    rows: tuple


def scatter_datasets(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The scatter datasets' true parameters and compressed vectors:
    (thetas, alphas), the (scale, shape) rows parameter_draws of the
    training config under SCATTER_STREAM and the datasets simulated from
    them on the path (SCATTER_STREAM, 2).  Rules trained under one
    distribution share them, and every distribution reads the same order
    statistics."""
    train = config.training
    thetas = est.parameter_draws(train, est.SCATTER_STREAM)
    path = (est.SCATTER_STREAM, 2)
    return thetas, est.simulated_quantiles(train, path, thetas[:, 0], thetas[:, 1])


def evaluation_quantiles(config: ExperimentConfig) -> np.ndarray:
    """Compressed vectors of the evaluation datasets, shaped (points,
    mc_runs, n_quantiles): the runs at point p simulated from that point's
    parameters on the path (EVAL_STREAM, p) under the training seed,
    disjoint from the training streams.  They depend on neither the model
    nor the parameter distribution, so any number of rules can be scored on
    one set.  One point's draws are held at a time."""
    train = config.training
    out = np.empty((len(config.eval_points), config.mc_runs, train.n_quantiles))
    for p, point in enumerate(config.eval_points):
        scales, shapes = (np.full(config.mc_runs, value) for value in point)
        out[p] = est.simulated_quantiles(train, (est.EVAL_STREAM, p), scales, shapes)
    return out


def run_mse_experiment(
    config: ExperimentConfig,
    model: est.TSModel,
    label: str | None = None,
    *,
    quantiles: np.ndarray | None = None,
) -> RiskReport:
    """Estimate the rule's MSE at each eval point from fresh simulations.

    Every point has its own sub-stream under the training seed, disjoint
    from the training streams, whose rows are the runs, so results are
    reproducible and a longer run extends a shorter one run-for-run.
    ``quantiles`` are the datasets' compressed vectors, evaluation_quantiles
    of the config, made here unless a caller that scores several rules
    passes them.  Every run at every point is read out in one pass.
    """
    train = config.training
    if model.n_quantiles != train.n_quantiles:
        raise ValueError(
            f"model has {model.n_quantiles} quantiles, config expects "
            f"{train.n_quantiles}"
        )
    if quantiles is None:
        quantiles = evaluation_quantiles(config)
    shape = (len(config.eval_points), config.mc_runs, train.n_quantiles)
    if quantiles.shape != shape:
        raise ValueError(f"evaluation quantiles must be shaped {shape}, got {quantiles.shape}")
    # an overflow leaves an MSE that is not finite, which RiskRow rejects
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = est.estimate_from_quantiles(model, quantiles.reshape(-1, shape[2]))
        errors = estimates.reshape(*shape[:2], 2) - np.array(config.eval_points)[:, None]
        mse = np.mean(errors * errors, axis=1)
    rows = []
    for (eta, gam), (mse_eta, mse_gamma) in zip(config.eval_points, mse.tolist()):
        bound_eta, bound_gamma = crlb(WeibullParams(eta, gam), train.n_obs)
        rows.append(
            RiskRow(
                true_eta=eta,
                true_gamma=gam,
                mse_eta=mse_eta,
                mse_gamma=mse_gamma,
                crlb_eta=bound_eta,
                crlb_gamma=bound_gamma,
                efficiency_eta=mse_eta / bound_eta,
                efficiency_gamma=mse_gamma / bound_gamma,
            )
        )
    return RiskReport(method=label if label is not None else model.method, rows=tuple(rows))


def reproduce_table(config: ExperimentConfig) -> tuple[RiskReport, RiskReport, RiskReport]:
    """Run the full benchmark protocol: Bayes fit under the uniform and the
    reciprocal prior plus the minimax fit under the uniform proposal, each
    evaluated at every configured point.

    Each rule is fitted, evaluated and scattered exactly as on its own.
    The evaluation datasets do not depend on the prior, so one set, made
    once per call, scores all three rules.  The scatter datasets are made
    once per prior, all from one path's order statistics: Bayes/uniform and
    minimax fit one training set together and share their scatter
    datasets.  Emits the combined table (and per-method models/scatter
    files) into output_dir according to config.emit.
    """
    base = config.training
    out = config.output_dir
    if config.emit:
        out.mkdir(parents=True, exist_ok=True)

    lower, upper = base.theta_distribution.lower, base.theta_distribution.upper
    uniform, reciprocal = (
        replace(base, theta_distribution=PriorSpec(kind, lower, upper))
        for kind in (PriorKind.UNIFORM, PriorKind.RECIPROCAL)
    )
    bayes_uniform, minimax = est.fit_methods(
        est.generate_training_set(uniform),
        base.ridge,
        (est.METHOD_BAYES, est.METHOD_MINIMAX),
        uniform.fingerprint(),
    )
    rules = (
        ("bayes-uniform", bayes_uniform, uniform),
        ("bayes-reciprocal", est.fit_bayes(reciprocal), reciprocal),
        ("minimax", minimax, uniform),
    )

    quantiles = evaluation_quantiles(config)
    scatter = {}
    if "scatter" in config.emit:
        for training in (uniform, reciprocal):
            scatter[training] = scatter_datasets(replace(config, training=training))
    reports = []
    for label, model, training in rules:
        sub_config = replace(config, training=training)
        reports.append(run_mse_experiment(sub_config, model, label, quantiles=quantiles))
        if "model" in config.emit:
            est.save_model(model, out / f"model_{label}.txt")
        if "scatter" in config.emit:
            emit_scatter(model, sub_config, label, datasets=scatter[training])
    if "table" in config.emit:
        write_risk_reports(reports, out / "table1.csv")
    return tuple(reports)


def emit_scatter(
    model: est.TSModel,
    config: ExperimentConfig,
    label: str | None = None,
    *,
    datasets: tuple[np.ndarray, np.ndarray] | None = None,
) -> Path:
    """Simulate fresh parameter draws, estimate them, and write the scatter
    rows (true_eta, true_gamma, est_eta, est_gamma) behind the method's
    true-vs-estimated plots.  ``datasets`` are the true parameters and
    compressed vectors, scatter_datasets(config), made here unless a caller
    that scatters several rules under one distribution passes them.  The
    file is replaced atomically; returns its path."""
    if model.n_quantiles != config.training.n_quantiles:
        raise ValueError("model/config n_quantiles mismatch")
    if datasets is None:
        datasets = scatter_datasets(config)
    thetas, alphas = datasets
    rows = np.column_stack((thetas, est.estimate_from_quantiles(model, alphas)))
    config.output_dir.mkdir(parents=True, exist_ok=True)
    path = config.output_dir / f"scatter_{label if label else model.method}.csv"
    # one template over the rows' Python floats: faster than numpy scalars, same digits
    template = "\n".join([_SCATTER_HEADER, *[_SCATTER_ROW] * len(rows), ""])
    return write_text_atomic(path, template % tuple(rows.ravel().tolist()))


def _parse_row(path, line: str, width: int, parse):
    """``parse`` of the ``width`` comma-separated fields of a row; a row that
    does not parse raises ValueError naming the file and the row."""
    tokens = line.split(",")
    try:
        if len(tokens) != width:
            raise ValueError(f"{len(tokens)} fields, expected {width}")
        return parse(tokens)
    except ValueError as err:
        raise ValueError(f"{path}: malformed row {line!r} ({err})") from None


def read_scatter(path) -> np.ndarray:
    """Parse a scatter file back into its (rows, 4) array."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _SCATTER_HEADER:
        raise ValueError(f"{path}: not a scatter file")
    rows = [_parse_row(path, line, 4, lambda t: [*map(float, t)]) for line in lines[1:]]
    return np.array(rows)


def write_risk_reports(reports, path) -> Path:
    """Write one or more reports as a combined CSV at 6 significant digits;
    the file is replaced atomically."""
    lines = [_TABLE_HEADER]
    for report in reports:
        for row in report.rows:
            fields = ",".join(f"{getattr(row, name):.5e}" for name in _TABLE_COLUMNS)
            lines.append(f"{report.method},{fields}")
    return write_text_atomic(path, "\n".join(lines) + "\n")


def read_risk_reports(path) -> tuple[RiskReport, ...]:
    """Parse a combined table CSV back into reports (grouped by method)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _TABLE_HEADER:
        raise ValueError(f"{path}: not a risk table file")
    reports: list[tuple[str, list[RiskRow]]] = []
    width = 1 + len(_TABLE_COLUMNS)
    for line in lines[1:]:
        method, row = _parse_row(path, line, width, lambda t: (t[0], RiskRow(*map(float, t[1:]))))
        if not reports or reports[-1][0] != method:
            reports.append((method, []))
        reports[-1][1].append(row)
    return tuple(RiskReport(method=m, rows=tuple(rows)) for m, rows in reports)


# the JSON type of each Python type a config field holds: the Python types
# json.loads gives it, and its name in error messages
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    PriorKind: ((str,), "a string"),
    Path: ((str,), "a string"),
    tuple: ((list,), "an array"),
    frozenset: ((list,), "an array"),
}
_OBJECT = ((dict,), "an object")


def _check_type(value, json_type, what: str) -> None:
    types, name = json_type
    # bool is an int subclass in Python but its own type in JSON
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{what} must be {name}, got {value!r}")


def _field_values(default, data: dict, what: str) -> dict:
    """The fields of the config dataclass ``default`` that the JSON object
    ``data`` names, each value type-checked against the field's type.  A
    field that holds a config dataclass is read the same way, starting from
    the default's value."""
    hints = get_type_hints(type(default))
    unknown = set(data) - {f.name for f in fields(default)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    values = {}
    for key, value in data.items():
        nested = is_dataclass(hints[key])
        _check_type(value, _OBJECT if nested else _JSON_TYPES[hints[key]], f"{what} key {key!r}")
        if nested:
            inner = getattr(default, key)
            value = replace(inner, **_field_values(inner, value, key))
        values[key] = value
    return values


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-style dict whose keys are the
    dataclass field names.  A missing field, nested or not, takes its
    default.  Unknown keys and values of the wrong JSON type raise
    ValueError."""
    _check_type(data, _OBJECT, "config")
    default = ExperimentConfig()
    values = _field_values(default, data, "config")
    for point in values.get("eval_points", []):
        _check_type(point, _JSON_TYPES[tuple], "an eval point")
        if len(point) != 2:
            raise ValueError(f"an eval point must be [scale, shape], got {point!r}")
        for value in point:
            _check_type(value, _JSON_TYPES[float], "an eval point coordinate")
    for kind in values.get("emit", []):
        _check_type(kind, _JSON_TYPES[str], "an emit kind")
    return replace(default, **values)


def crlb_inputs_from_dict(data: dict) -> tuple[ExperimentConfig, int]:
    """The config and the sample size N for the Cramér-Rao bound, which
    needs no training set: ``training.n_obs`` and ``training.n_quantiles``
    are type-checked but not checked against each other."""
    training = data.get("training") if isinstance(data, dict) else None
    if not isinstance(training, dict):
        config = config_from_dict(data)
        return config, config.training.n_obs
    sizes = {key: training[key] for key in ("n_obs", "n_quantiles") if key in training}
    for key, value in sizes.items():
        _check_type(value, _JSON_TYPES[int], f"training key {key!r}")
    rest = {key: value for key, value in training.items() if key not in sizes}
    config = config_from_dict({**data, "training": rest})
    return config, sizes.get("n_obs", config.training.n_obs)
