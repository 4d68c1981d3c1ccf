#!/usr/bin/env python3
"""Benchmark of the twostage package: two workloads, end-to-end metrics
with tracing off, per-layer metrics from a separate traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 45 --trace 0

``--workload`` is one of ``table1`` and ``estimate-raw``
(see perfbench/README.md).  The body of a workload is repeated until
``--seconds`` have passed, and at least the workload's minimum number of
times.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
of one traced repetition, whose spans are written to
``perfbench/out/trace_<workload>_seed<seed>.json``.  The program is imported
from ``src/`` of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twostage" / "__init__.py").is_file():
        print(f"no program found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print(json.dumps({"environment": bench.environment(args.seed)}))

    bench.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=bench.OUT))
    ledger = bench.Ledger()
    try:
        measure_fn = bench.per_layer if args.trace else bench.end_to_end
        metrics, detail = measure_fn(workload, args, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        print("no measurement completed", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail, "failures": ledger.reasons[:10]}))
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": max(ledger.attempted, 1),
                "failed": ledger.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
