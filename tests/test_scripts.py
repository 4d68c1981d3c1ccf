"""The benchmark reproduction script, run as a user runs it."""

import subprocess
import sys
from pathlib import Path

from twostage.experiment import read_risk_reports

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_weibull_benchmark.py"
LABELS = ("bayes-uniform", "bayes-reciprocal", "minimax")


def test_quick_run_writes_every_output(tmp_path):
    out = tmp_path / "results"
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    expected = (
        {"table1.csv"}
        | {f"model_{label}.txt" for label in LABELS}
        | {f"scatter_{label}.csv" for label in LABELS}
    )
    assert {path.name for path in out.iterdir()} == expected
    reports = read_risk_reports(out / "table1.csv")
    assert [report.method for report in reports] == list(LABELS)
    assert all(len(report.rows) == 6 for report in reports)
