"""Expected outputs of the reproduction, pinned in tests/expected/.

Each file starts with comment lines naming what it holds and the command
that rewrites it, which rewrites all of them:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/pinned.py

A change that moves a pinned value on purpose reruns it and lists every
value that moved, and why, in CHANGES.md.  test_pinned.py recomputes the
risk rows and compares them, exactly but for the last digits of the
Monte-Carlo columns; minimax_census.py compares the rows of its table that
repeat on every BLAS kernel.
"""

from dataclasses import astuple, fields
from pathlib import Path

from twostage.estimator import TrainingConfig
from twostage.experiment import ExperimentConfig, RiskRow, reproduce_table
from twostage.rng import SeedSpec

EXPECTED = Path(__file__).resolve().parent / "expected"
COMMAND = "OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/pinned.py"

# the protocols of scripts/reproduce_weibull_benchmark.py, by its arguments
PROTOCOLS = {
    "--seed 1": ExperimentConfig(training=TrainingConfig(seed=SeedSpec(1)), emit=frozenset()),
    "--seed 2": ExperimentConfig(training=TrainingConfig(seed=SeedSpec(2)), emit=frozenset()),
    "--quick": ExperimentConfig(
        training=TrainingConfig(m_theta=100, n_obs=1000, n_quantiles=10, seed=SeedSpec(1)),
        mc_runs=50,
        emit=frozenset(),
    ),
}
CENSUS_FILE = "minimax_census.txt"


def risk_rows_file(protocol: str) -> str:
    return f"risk_rows_{protocol.replace('-', '').replace(' ', '')}.csv"


def risk_row_lines(reports) -> list[str]:
    """The reports' rows, each field of each at full precision (repr)."""
    lines = [",".join(("method", *(f.name for f in fields(RiskRow))))]
    for report in reports:
        for row in report.rows:
            lines.append(",".join((report.method, *map(repr, astuple(row)))))
    return lines


def expected_lines(name: str) -> list[str]:
    """The pinned lines of tests/expected/<name>, comments dropped."""
    lines = (EXPECTED / name).read_text().splitlines()
    return [line for line in lines if not line.startswith("#")]


def _write(name: str, what: str, lines: list[str]) -> None:
    header = [f"# {what}", f"# rewrite with: {COMMAND}"]
    (EXPECTED / name).write_text("\n".join(header + lines) + "\n")


def main() -> None:
    import minimax_census  # here, since it imports this module

    EXPECTED.mkdir(exist_ok=True)
    for protocol, config in PROTOCOLS.items():
        what = (
            "unrounded RiskRows of reproduce_table on the protocol of "
            f"scripts/reproduce_weibull_benchmark.py {protocol}"
        )
        _write(risk_rows_file(protocol), what, risk_row_lines(reproduce_table(config)))
    table, _ = minimax_census.run()
    what = "the rows of tests/minimax_census.py's table that it compares (PINNED)"
    _write(CENSUS_FILE, what, minimax_census.pinned_rows(table))


if __name__ == "__main__":
    main()
