#!/usr/bin/env python3
"""Run the full Weibull benchmark: fit the Bayes rule under the uniform and
reciprocal priors plus the minimax rule, evaluate the MSE of each at the six
benchmark points, and write the combined table, scatter data, and model files.

Usage:
    python scripts/reproduce_weibull_benchmark.py --out results [--quick]

--quick shrinks the protocol (fewer draws, fewer runs) for a fast smoke run.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twostage import ExperimentConfig, SeedSpec, TrainingConfig, reproduce_table

PROTOCOL_SEED = 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=PROTOCOL_SEED, help="root seed")
    parser.add_argument("--mc-runs", type=int, default=1000)
    parser.add_argument(
        "--quick", action="store_true", help="small protocol for a smoke run"
    )
    args = parser.parse_args()

    if args.quick:
        training = TrainingConfig(
            m_theta=100, n_obs=1000, n_quantiles=10, seed=SeedSpec(args.seed)
        )
        mc_runs = min(args.mc_runs, 50)
    else:
        training = TrainingConfig(seed=SeedSpec(args.seed))
        mc_runs = args.mc_runs

    config = ExperimentConfig(
        training=training,
        mc_runs=mc_runs,
        output_dir=Path(args.out),
        emit=frozenset({"table", "scatter", "model"}),
    )

    start = time.perf_counter()
    reports = reproduce_table(config)
    elapsed = time.perf_counter() - start

    print(f"done in {elapsed:.1f}s; outputs in {config.output_dir}/")
    header = f"{'method':18s} {'scale':>6s} {'shape':>6s} | {'mse(scale)':>11s} {'mse(shape)':>11s} | {'eff(scale)':>10s} {'eff(shape)':>10s}"
    print(header)
    print("-" * len(header))
    for report in reports:
        for row in report.rows:
            print(
                f"{report.method:18s} {row.true_eta:6.1f} {row.true_gamma:6.1f} | "
                f"{row.mse_eta:11.3e} {row.mse_gamma:11.3e} | "
                f"{row.efficiency_eta:10.2f} {row.efficiency_gamma:10.2f}"
            )


if __name__ == "__main__":
    main()
