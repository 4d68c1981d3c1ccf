"""Command-line harness: fit models, estimate from data, evaluate risk,
print bounds, reproduce the benchmark table, and dump scatter data.

Configuration comes from an optional JSON file (mirroring the experiment
config field names).  Flags are merged into its data before the config is
built once, so a flag overrides one value and a field that neither names
takes its default; each subcommand accepts only the flags it reads.
Exit codes: 0 success, 2 invalid configuration, model file or data,
3 solver failure or an estimate that is not finite and positive,
4 I/O failure.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from . import estimator as est
from . import experiment as exp
from . import solvers
from ._files import write_text_atomic
from .crlb import crlb
from .weibull import WeibullParams


_OPTIONS = {
    "config": click.option("--config", "config_path", type=click.Path(), default=None,
                           help="JSON config file mirroring the experiment config fields."),
    "seed": click.option("--seed", type=int, default=None, help="Root seed override."),
    "m_theta": click.option("--m-theta", type=int, default=None, help="Parameter draws (M)."),
    "n_obs": click.option("--n-obs", type=int, default=None,
                          help="Observations per dataset (N)."),
    "n_quantiles": click.option("--n-quantiles", type=int, default=None,
                                help="Compression size (n)."),
    "ridge": click.option("--ridge", type=float, default=None, help="Ridge weight."),
    "prior": click.option("--prior", type=click.Choice(["uniform", "reciprocal"]),
                          default=None, help="Parameter distribution kind."),
    "method": click.option("--method", type=click.Choice(["bayes", "minimax"]),
                           default=None, help="Fitting method."),
    "mc_runs": click.option("--mc-runs", type=int, default=None,
                            help="Monte-Carlo runs per point."),
    "out_file": click.option("--out", "out_path", type=click.Path(), default=None,
                             help="Output file."),
    "out_dir": click.option("--out", "out_path", type=click.Path(), default=None,
                            help="Output directory."),
    "model": click.option("--model", "model_path", type=click.Path(), required=True,
                          help="Model file written by `fit`."),
}


def _options(*names):
    """Add the named options to a command, in the order given: each command
    accepts only the flags it reads."""

    def decorate(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return fn

    return decorate


# the place of each flag's value in the JSON config
_FLAG_KEYS = {
    "seed": ("training", "seed", "root_seed"),
    "m_theta": ("training", "m_theta"),
    "n_obs": ("training", "n_obs"),
    "n_quantiles": ("training", "n_quantiles"),
    "ridge": ("training", "ridge"),
    "prior": ("training", "theta_distribution", "kind"),
    "mc_runs": ("mc_runs",),
    "out_dir": ("output_dir",),
}


def _merged(data, keys, value):
    """``data`` with ``value`` at the nested ``keys``; a level that is not a
    JSON object is left as it is, for config_from_dict to reject."""
    if not isinstance(data, dict):
        return data
    key, *rest = keys
    return {**data, key: _merged(data.get(key, {}), rest, value) if rest else value}


def _config_data(config_path=None, **flags) -> dict:
    """The config file's data with the given flags merged in."""
    data = {} if config_path is None else json.loads(Path(config_path).read_text())
    for name, value in flags.items():
        if value is not None:
            data = _merged(data, _FLAG_KEYS[name], value)
    return data


def _load_config(model=None, **flags) -> exp.ExperimentConfig:
    """The config file with the flags applied.  Given the model to apply,
    its n_quantiles stands in for a config file that names none; one that
    names another value fails the run's quantile check."""
    data = _config_data(**flags)
    training = data.get("training", {}) if isinstance(data, dict) else None
    if model is not None and isinstance(training, dict) and "n_quantiles" not in training:
        data = _merged(data, ("training", "n_quantiles"), model.n_quantiles)
    return exp.config_from_dict(data)


def _run(action):
    """Run a command body and map failures to the documented exit codes."""
    try:
        action()
    except solvers.SolverError as err:
        click.echo(f"solver failure: {err}", err=True)
        sys.exit(3)
    except ValueError as err:
        click.echo(f"invalid input: {err}", err=True)
        sys.exit(2)
    except OSError as err:
        click.echo(f"i/o failure: {err}", err=True)
        sys.exit(4)


@click.group()
def main():
    """Two-stage likelihood-free estimation toolkit (Weibull benchmark)."""


@main.command()
@_options("config", "seed", "m_theta", "n_obs", "n_quantiles", "ridge", "prior",
          "method", "out_file")
def fit(method, out_path, **overrides):
    """Fit a model and write it to --out (default model_<method>.txt)."""

    def action():
        config = _load_config(**overrides)
        chosen = method or est.METHOD_BAYES
        if chosen == est.METHOD_BAYES:
            model = est.fit_bayes(config.training)
        else:
            model = est.fit_minimax(config.training)
        target = Path(out_path) if out_path else Path(f"model_{chosen}.txt")
        est.save_model(model, target)
        click.echo(
            f"fitted {chosen} model (fingerprint {model.config_fingerprint}) "
            f"-> {target}"
        )

    _run(action)


@main.command(name="estimate")
@_options("model")
@click.option("--data", "data_path", type=click.Path(), required=True,
              help="Text file of positive observations separated by whitespace.")
def estimate_command(model_path, data_path):
    """Print the (scale, shape) estimate of one dataset."""

    def action():
        model = est.load_model(model_path)
        try:
            y = [float(tok) for tok in Path(data_path).read_text().split()]
        except ValueError as err:
            raise ValueError(f"{data_path}: malformed observation ({err})") from None
        eta_hat, gamma_hat = est.estimate(model, y)
        for name, value in (("est_eta", eta_hat), ("est_gamma", gamma_hat)):
            if not (math.isfinite(value) and value > 0):
                # the linear readout can leave the Weibull parameter space
                click.echo(f"estimate out of range: {name} = {value:.17g} is not "
                           "finite and positive", err=True)
                sys.exit(3)
        click.echo("est_eta,est_gamma")
        click.echo(f"{eta_hat:.17g},{gamma_hat:.17g}")

    _run(action)


@main.command()
@_options("config", "seed", "n_obs", "mc_runs", "out_file", "model")
def evaluate(out_path, model_path, **overrides):
    """Run the Monte-Carlo risk evaluation for a fitted model."""

    def action():
        model = est.load_model(model_path)
        config = _load_config(**overrides, model=model)
        report = exp.run_mse_experiment(config, model)
        target = Path(out_path) if out_path else Path("report.csv")
        exp.write_risk_reports([report], target)
        click.echo(Path(target).read_text(), nl=False)
        click.echo(f"report written to {target}")

    _run(action)


@main.command(name="crlb")
@_options("config", "n_obs", "out_file")
def crlb_command(config_path, n_obs, out_path):
    """Print the Cramér-Rao bounds at the configured evaluation points."""

    def action():
        # the bound needs no training set, so N, from the file or the flag,
        # bypasses TrainingConfig and its check against n_quantiles
        config, n = exp.crlb_inputs_from_dict(_config_data(config_path, n_obs=n_obs))
        lines = ["true_eta,true_gamma,crlb_eta,crlb_gamma"]
        for eta, gam in config.eval_points:
            b_eta, b_gam = crlb(WeibullParams(eta, gam), n)
            lines.append(f"{eta:.5e},{gam:.5e},{b_eta:.5e},{b_gam:.5e}")
        text = "\n".join(lines) + "\n"
        click.echo(text, nl=False)
        if out_path:
            write_text_atomic(out_path, text)

    _run(action)


@main.command(name="reproduce-table1")
@_options("config", "seed", "m_theta", "n_obs", "n_quantiles", "ridge", "mc_runs",
          "out_dir")
def reproduce_table1(out_path, **overrides):
    """Fit and evaluate all three rule variants and emit the combined table."""

    def action():
        config = _load_config(**overrides, out_dir=out_path)
        reports = exp.reproduce_table(config)
        # a table1.csv that this run did not write is left from another run
        if "table" in config.emit:
            click.echo((config.output_dir / "table1.csv").read_text(), nl=False)
        click.echo(
            f"{sum(len(r.rows) for r in reports)} rows evaluated; "
            f"outputs in {config.output_dir}"
        )

    _run(action)


@main.command()
@_options("config", "seed", "m_theta", "n_obs", "prior", "out_dir", "model")
def scatter(out_path, model_path, **overrides):
    """Write true-vs-estimated scatter data for a fitted model."""

    def action():
        model = est.load_model(model_path)
        config = _load_config(**overrides, out_dir=out_path, model=model)
        path = exp.emit_scatter(model, config)
        click.echo(f"scatter data written to {path}")

    _run(action)


if __name__ == "__main__":
    main()
