"""Measurement logic of the benchmark: timed repetitions, set-up probes,
checks, the traced run and the metrics derived from it.  Imported by
run.py once the program's source directory is on ``sys.path``."""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# end-to-end metrics and their units, in reporting order
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "estimate_p50_us": "us",
    "estimate_p99_us": "us",
}
SETUP_PROBES = 5  # fresh interpreters timed for setup_s, after one warm-up
SELF_TIME_SLACK = (0.001, 0.001)  # seconds + share of the traced wall
OVERLAP_SLACK_S = 1e-6  # rounding in overlaps that must be 0

# times a fresh interpreter from before `import twostage` to the end of the
# workload's program-side set-up
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    steal_s: float  # CPU time the host took from the machine meanwhile
    outcome: object


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.reasons.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh interpreters of import plus program-side set-up."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), name, str(seed)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


class CpuTurns:
    """Moves the calling thread to the next CPU of the process's set every
    TURN_SECONDS while enabled, and back to the whole set on exit.  The host
    slows each CPU in phases that can last minutes, independently of the
    others, so a single-threaded timing that stays on one CPU can sit wholly
    inside one; taking turns gives it time on every CPU.  Threads started
    while it is pinned inherit the pin."""

    def __init__(self, enabled: bool = True):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.enabled = enabled and len(self.cpus) > 1
        self.turn = 0
        self.last = -math.inf

    def __enter__(self):
        return self

    def tick(self) -> None:
        now = time.perf_counter()
        if self.enabled and now - self.last >= TURN_SECONDS:
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.turn += 1
            self.last = now

    def __exit__(self, *exc) -> None:
        if self.enabled:
            os.sched_setaffinity(0, self.cpus)


def measure(
    workload, state, workdir: Path, seconds: float, ledger: Ledger, after=None
) -> list[Rep]:
    """Repeat the workload body ``min_reps`` times, and again while another
    repetition as long as the last one ends within ``seconds``; stops at the
    first operation that raises.  ``after(outcome)``, if given, runs after
    each repetition, outside its timing but inside ``seconds``.  A
    single-threaded body takes turns on the CPUs."""
    reps: list[Rep] = []
    begin = time.perf_counter()
    with CpuTurns(workload.single_threaded) as turns:
        while (
            len(reps) < workload.min_reps
            or time.perf_counter() - begin + reps[-1].wall_s <= seconds
        ):
            turns.tick()
            steal0 = steal_seconds()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                outcome = workload.rep(state, workdir, len(reps))
            except Exception:
                ledger.attempted += 1
                ledger.fail(1, traceback.format_exc())
                break
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            ledger.attempted += outcome.calls
            reps.append(Rep(wall, cpu, steal_seconds() - steal0, outcome))
            if after is not None:
                after(outcome)
    return reps


def check_reps(workload, state, reps: list[Rep], ledger: Ledger) -> None:
    """Full checks on the first repetition; the others must repeat it."""
    if not reps:
        return
    first = reps[0].outcome
    fails = workload.check(state, first)
    if fails:
        ledger.fail(min(len(fails), first.calls), "; ".join(fails[:5]))
    for rep in reps[1:]:
        diff = workload.same_output(first, rep.outcome)
        if diff:
            ledger.fail(1, f"repetition output differs: {diff}")


# Other tenants of a shared machine slow each core by up to 1.7x in phases
# of a few seconds to a minute, independently on each core, and its fast
# speed drifts by about 10% over minutes.  A median over a run flips between
# the two speeds as the share of slow phases crosses one half, so each timing
# is the TYPICAL_PERCENTILE-th percentile of repeated timings of the same
# work: the program's speed when it has the core to itself, which needs only
# a few percent of a run to fall outside slow phases.  An input's latency is
# such a percentile of its own timings rather than its time in the fastest
# passes: a call is short enough that most calls miss the host's steal even
# in a pass that does not.
TYPICAL_PERCENTILE = 5
TURN_SECONDS = 1.0  # how long a single-threaded timing stays on one CPU


def typical(values, axis=None):
    return np.percentile(values, TYPICAL_PERCENTILE, axis=axis)


def net_wall(rep: Rep) -> float:
    """The repetition's wall time net of the host's steal: scaled by the
    share of the CPU time it asked for that the host gave, cpu / (cpu +
    steal).  A CPU that is idle loses no time to steal, so this is exact for
    a serial stretch, and for a parallel one whose threads lose equal
    shares.  Runs of table1 that met half-minute bursts of steal took up to
    1.9x their usual wall time."""
    if rep.steal_s <= 0:
        return rep.wall_s
    return rep.wall_s * rep.cpu_s / (rep.cpu_s + rep.steal_s)


class LatencyProbe:
    """Times ``estimator.estimate`` on the calls a workload's body makes,
    for workloads whose body times none itself: after the first repetition,
    passes of each model it produced over the probe's datasets for
    ``PROBE_SECONDS``.  ``rows`` holds one row of latencies in ns per pass
    of every model, one column per (model, dataset) input."""

    def __init__(self, workload, state, seed: int, ledger: Ledger):
        self.workload, self.state, self.seed, self.ledger = workload, state, seed, ledger
        self.rows: list[list[int]] = []

    def __call__(self, outcome) -> None:
        if self.rows:
            return
        models, datasets = self.workload.probe(self.state, outcome, self.seed)
        begin = time.perf_counter()
        with CpuTurns() as turns:
            while time.perf_counter() - begin < workloads.PROBE_SECONDS:
                turns.tick()
                self.rows.append(self.one_pass(models, datasets))

    def one_pass(self, models, datasets) -> list[int]:
        row = []
        for model in models:
            lat, estimates = workloads.time_pass(model, datasets)
            row += lat
            self.ledger.attempted += len(lat)
            bad = [e for e in estimates if not all(map(math.isfinite, e))]
            if bad:
                self.ledger.fail(len(bad), f"non-finite probe estimates: {bad[:3]}")
        return row


def steal_seconds() -> float:
    """CPU time the host has taken from this machine's CPUs so far, summed
    over them (the "steal" column of /proc/stat), or 0 where unknown."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def end_to_end(workload, args, workdir: Path, ledger: Ledger) -> tuple[dict, dict]:
    setup_s = setup_seconds(workload.name, args.seed)
    state = workload.prepare(workload.setup(args.seed), args.seed)
    probe = None
    if hasattr(workload, "probe"):
        probe = LatencyProbe(workload, state, args.seed, ledger)
    steal0, begin = steal_seconds(), time.perf_counter()
    reps = measure(workload, state, workdir, args.seconds, ledger, after=probe)
    steal1, measured = steal_seconds(), time.perf_counter() - begin
    check_reps(workload, state, reps, ledger)
    if not reps:
        return {}, {}
    if probe is None:
        latencies = np.array([r.outcome.latencies_ns for r in reps])
    else:
        latencies = np.array(probe.rows)
    per_input = typical(latencies, axis=0) / 1e3
    p50, p99 = np.percentile(per_input, [50, 99])
    # a single-threaded body's fastest passes already miss the steal
    walls = [r.wall_s if workload.single_threaded else net_wall(r) for r in reps]
    values = {
        "wall_s": float(typical(walls)),
        "setup_s": setup_s,
        "cpu_s": float(typical([r.cpu_s for r in reps])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "estimate_p50_us": float(p50),
        "estimate_p99_us": float(p99),
    }
    detail = {
        "reps": len(reps),
        "measured_s": round(measured, 3),
        "host_steal_s": round(steal1 - steal0, 2),
        "rep_wall_s_p10_p50_p90": np.percentile(
            [r.wall_s for r in reps], [10, 50, 90]
        ).round(5).tolist(),
        "rep_wall_cpu_steal_s": [[r.wall_s, r.cpu_s, r.steal_s] for r in reps[:4]],
        "estimate_inputs": latencies.shape[1],
        "estimate_timings_per_input": latencies.shape[0],
        "estimate_inputs_above_p99": int(np.sum(per_input > p99)),
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, detail


def rng_floor_seconds(uniforms: int) -> float:
    """Time to draw ``uniforms`` doubles from one PCG64 stream into a reused
    buffer: the floor for simulating everything from raw uniforms."""
    gen = np.random.Generator(np.random.PCG64(0))
    buf = np.empty(1 << 20)
    left = uniforms
    t0 = time.perf_counter()
    while left > 0:
        k = min(left, buf.size)
        gen.random(k, out=buf[:k])
        left -= k
    return time.perf_counter() - t0


def per_layer(workload, args, workdir: Path, ledger: Ledger) -> tuple[dict, dict]:
    state = workload.prepare(workload.setup(args.seed), args.seed)
    reps = measure(workload, state, workdir, args.seconds, ledger)
    if not reps:
        return {}, {}
    tracer = Tracer()
    try:
        traced = tracer.trace(lambda: workload.rep(state, workdir, len(reps)))
    except Exception:
        ledger.attempted += 1
        ledger.fail(1, traceback.format_exc())
        return {}, {}
    traced_wall = tracer.wall_s
    ledger.attempted += traced.calls
    check_reps(workload, state, reps + [Rep(traced_wall, 0.0, 0.0, traced)], ledger)

    s = tracer.summary()
    untraced = float(typical([r.wall_s for r in reps]))
    uniforms = int(s.counts.get("rng.uniforms", 0))
    floor_s = rng_floor_seconds(uniforms)
    rank = int(np.linalg.matrix_rank(tracer.shape_matrix)) if tracer.shape_matrix is not None else 0
    cols = int(tracer.shape_matrix.shape[1]) if tracer.shape_matrix is not None else 0

    for fault in trace_faults(s, traced_wall):
        ledger.fail(1, fault)

    metrics, absent = layer_metrics(s, floor_s, cols, rank, traced_wall, untraced)
    detail = {
        "reps_untraced": len(reps),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced_wall,
        "self_time_sum_s": s.total_self(),
        "threads": s.threads,
        "concurrency_s": s.concurrency_s,
        "concurrency_bound_s": s.concurrency_bound_s,
        "absent": absent,
        "absent_layers": s.absent_layers,
        "calls": {k: v for k, v in s.calls.items() if v},
    }
    path = OUT / f"trace_{workload.name}_seed{args.seed}.json"
    record = {"workload": workload.name, "seed": args.seed, "metrics": metrics, "detail": detail}
    tracer.write(path, record)
    detail["trace_file"] = str(path.relative_to(ROOT))
    return metrics, detail


def trace_faults(s, traced_wall: float) -> list[str]:
    """What is wrong with a trace whose root span took ``traced_wall``:
    spans that do not nest, overlaps that cannot happen, more pool overlap
    than the pool's threads allow, and, on a single thread, self times that
    do not add up to the traced wall."""
    faults = []
    if not s.nested:
        faults.append("trace spans do not nest")
    if s.same_thread_overlap_s > OVERLAP_SLACK_S:
        faults.append(f"spans of one thread overlap by {s.same_thread_overlap_s:.3g} s")
    if s.stray_overlap_s > OVERLAP_SLACK_S:
        faults.append(f"children outside the pool overlap by {s.stray_overlap_s:.3g} s")
    if not -OVERLAP_SLACK_S <= s.concurrency_s <= s.concurrency_bound_s + OVERLAP_SLACK_S:
        faults.append(
            f"pool overlap {s.concurrency_s:.4f} s outside [0, {s.concurrency_bound_s:.4f}] s"
        )
    slack = SELF_TIME_SLACK[0] + SELF_TIME_SLACK[1] * traced_wall
    if s.threads == 1 and abs(s.total_self() - traced_wall) > slack:
        faults.append(
            f"self times sum to {s.total_self():.6f} s, traced wall {traced_wall:.6f} s"
        )
    return faults


# Per-layer metrics summed over the spans of the named functions: "calls"
# counts the spans, "self" and "incl" add their self or inclusive times and
# "count" reads the counter of the metric's own name, kept by a hook there.
# Self times are used where a layer's own work is meant, inclusive times for
# the estimator, parallel and experiment stages.  Times are thread-seconds
# where calls overlap on the package's pool.
SPAN_METRICS = {
    "rng.stream_calls": ("count", "calls", ["rng.stream"]),
    "rng.uniforms": ("count", "count", ["rng.stream"]),
    "rng.stream_s": ("s", "self", ["rng.stream", "rng.random"]),
    "weibull.quantile_calls": ("count", "calls", ["weibull.weibull_quantile"]),
    "weibull.values": ("count", "count", ["weibull.weibull_quantile"]),
    "weibull.quantile_s": (
        "s",
        "self",
        ["weibull.weibull_quantile", "weibull.sample_weibull"],
    ),
    "compression.compress_s": (
        "s",
        "self",
        ["compression.compress", "compression.order_statistics", "compression.sample_quantile"],
    ),
    "compression.sorted_values": ("count", "count", ["compression.order_statistics"]),
    "compression.feature_s": (
        "s",
        "self",
        ["compression.feature_scale", "compression.feature_shape"],
    ),
    "estimator.training_set_s": ("s", "incl", ["estimator.generate_training_set"]),
    "estimator.feature_matrix_s": ("s", "incl", ["estimator.build_feature_matrix"]),
    "estimator.estimate_calls": ("count", "calls", ["estimator.estimate"]),
    "estimator.estimate_s": ("s", "incl", ["estimator.estimate"]),
    "estimator.model_io_s": ("s", "incl", ["estimator.save_model", "estimator.load_model"]),
    "solvers.ridge_s": ("s", "self", ["solvers.fit_ridge"]),
    "solvers.minimax_s": (
        "s",
        "self",
        ["solvers.fit_minimax", "solvers.evaluate_max_quadratic", "solvers.mean_squared_objective"],
    ),
    "solvers.budget_errors": ("count", "count", ["solvers.fit_minimax"]),
    "parallel.map_calls": ("count", "calls", ["parallel.indexed_map"]),
    "parallel.map_s": ("s", "incl", ["parallel.indexed_map"]),
    "experiment.mc_runs": ("count", "count", ["experiment.run_mse_experiment"]),
    "experiment.mse_s": ("s", "incl", ["experiment.run_mse_experiment"]),
    "experiment.scatter_s": ("s", "incl", ["experiment.emit_scatter"]),
    "experiment.table_io_s": (
        "s",
        "incl",
        ["experiment.write_risk_reports", "experiment.read_risk_reports"],
    ),
}


def layer_metrics(s, floor_s, shape_columns, shape_rank, traced_wall, untraced_wall):
    """Per-layer metrics of one traced repetition, and the names of those
    whose functions no longer exist in the package (reported as 0)."""
    metrics, absent = {}, []
    for name, (unit, how, spans) in SPAN_METRICS.items():
        if how == "count":
            value = s.counts.get(name, 0)
        else:
            table = {"calls": s.calls, "self": s.self_s, "incl": s.incl_s}[how]
            value = sum(table.get(span, 0) for span in spans)
        metrics[name] = (value, unit)
        if not any(span in s.wrapped for span in spans):
            absent.append(name)

    sampled = metrics["rng.stream_s"][0] + metrics["weibull.quantile_s"][0]
    map_s = metrics["parallel.map_s"][0]
    derived = {
        "rng.floor_s": (floor_s, "s", "rng.stream"),
        "rng.floor_ratio": (sampled / floor_s if floor_s else 0.0, "ratio", "rng.stream"),
        "compression.shape_columns": (shape_columns, "count", "estimator.build_feature_matrix"),
        "compression.shape_rank": (shape_rank, "count", "estimator.build_feature_matrix"),
        "solvers.minimax_gap_rel": (
            s.measured.get("solvers.minimax_gap_rel", 0.0),
            "ratio",
            "solvers.fit_minimax",
        ),
        "parallel.cpu_per_wall": (
            s.measured.get("parallel.map_cpu_s", 0.0) / map_s if map_s else 0.0,
            "ratio",
            "parallel.indexed_map",
        ),
    }
    for name, (value, unit, span) in derived.items():
        metrics[name] = (value, unit)
        if span not in s.wrapped:
            absent.append(name)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (s.layer_self(layer), "s")
        if layer in s.absent_layers:
            absent.append(f"{layer}.self_s")
    metrics["tracing.wall_s"] = (traced_wall, "s")
    metrics["tracing.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["tracing.spans"] = (s.n_spans, "count")
    order = [*LAYERS, "tracing"]
    metrics = dict(sorted(metrics.items(), key=lambda kv: order.index(kv[0].split(".")[0])))
    return metrics, absent


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
        "protocol_seed": workloads.PROTOCOL_SEED,
        "confirm_seed": workloads.CONFIRM_SEED,
    }


def openblas_threads():
    """OpenBLAS's thread count as numpy loaded it, or None if not found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" if it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
