"""Span tracer that instruments the twostage package from outside.

``Tracer.instrument`` replaces every public function of each layer module
with a wrapper, wherever the package binds that function's name, so calls
made through ``from .x import f`` bindings are traced too.  Each call
records a span (name, start, end, parent, thread) in typed arrays held in
memory; ``Tracer.summary`` turns them into per-name self times.  Worker
threads of the package's pool have empty span stacks of their own, so their
first span hangs off the innermost open span of the thread that started the
trace (the pool call it is blocked in).

Hooks attached to a few functions count work from requested sizes and
returned arrays; they are the benchmark's exact counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import operator
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# modules of the package that are traced, in pipeline order
LAYERS = (
    "rng",
    "weibull",
    "priors",
    "compression",
    "estimator",
    "solvers",
    "parallel",
    "experiment",
    "crlb",
)
ROOT = "bench.body"
POOL_CALL = "parallel.indexed_map"  # the only span whose children may overlap


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.thread = array("Q")
        self.wall_s = math.nan  # wall time of the root span, timed around it
        self.counts: Counter = Counter()  # exact counts, repeat for a seed
        self.measured: dict[str, float] = {}  # CPU seconds, largest gap
        self.wrapped: set[str] = set()
        self.absent_layers: list[str] = []
        self.shape_matrix = None  # last shape feature matrix built, for its rank
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            sid = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(parent)
            self.end.append(math.nan)
            self.thread.append(threading.get_ident())
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def measure(self, key: str, value: float, combine=operator.add) -> None:
        with self._lock:
            old = self.measured.get(key)
            self.measured[key] = value if old is None else combine(old, value)

    # -- instrumentation -----------------------------------------------------

    def wrap(self, layer: str, func):
        name = f"{layer}.{func.__name__}"
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        tracer = self
        self.wrapped.add(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                if hook is None:
                    return func(*args, **kwargs)
                return hook(tracer, lambda: func(*args, **kwargs), args, kwargs)
            finally:
                tracer.close(sid)

        return traced

    def instrument(self, package: str = "twostage") -> None:
        """Wrap every public function of each layer module at every binding
        inside the package.  A layer module that does not exist is recorded
        in ``absent_layers``."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        patches = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                self.absent_layers.append(layer)
                continue
            for attr, func in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(func):
                    continue
                if func.__module__ != mod.__name__:
                    continue
                traced = self.wrap(layer, func)
                for target in modules:
                    for bound, value in vars(target).items():
                        if value is func:
                            patches.append((target, bound, func, traced))
        for target, bound, func, traced in patches:
            setattr(target, bound, traced)
            self._patches.append((target, bound, func))

    def restore(self) -> None:
        for target, bound, func in reversed(self._patches):
            setattr(target, bound, func)
        self._patches.clear()

    def trace(self, body):
        """Run body() inside the root span with the package instrumented;
        ``wall_s`` is the body's wall time, instrumenting excluded."""
        self.instrument()
        t0 = time.perf_counter()
        sid = self.open(self.name_id(ROOT))
        try:
            return body()
        finally:
            self.close(sid)
            self.wall_s = time.perf_counter() - t0
            self.restore()

    # -- results -------------------------------------------------------------

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)

    def write(self, path: Path, extra: dict) -> None:
        """Write ``extra`` plus the spans as columns; times are microseconds
        from the first span's start."""
        origin = self.start[0] if self.start else 0.0
        record = dict(extra)
        record["span_names"] = self.names
        record["spans"] = {
            "name": self.span_name.tolist(),
            "parent": self.parent.tolist(),
            "thread": np.unique(self.thread, return_inverse=True)[1].tolist(),
            "start_us": [round((v - origin) * 1e6, 1) for v in self.start],
            "end_us": [round((v - origin) * 1e6, 1) for v in self.end],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record))


class TraceSummary:
    """Per-name call counts, inclusive times and self times of a trace, and
    the overlaps that decide whether the self times can be trusted.

    A span's self time is its duration minus the union of its children's
    intervals.  Children of a pool call run on several threads and overlap;
    the sum over all spans of self time therefore exceeds the root's
    duration by ``concurrency_s``, the overlapped part.  Sibling spans of one
    thread never overlap unless the tracer lost track of its stack
    (``same_thread_overlap_s``), and children of any other span never do
    (``stray_overlap_s``).  A pool call with w threads under it overlaps by
    at most (w - 1) times its duration; ``concurrency_bound_s`` adds that up.
    """

    def __init__(self, tracer: Tracer):
        names = np.frombuffer(tracer.span_name, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int64)
        thread = np.unique(np.frombuffer(tracer.thread, dtype=np.uint64), return_inverse=True)[1]
        origin = tracer.start[0] if tracer.start else 0.0
        start = np.frombuffer(tracer.start, dtype=np.float64) - origin
        end = np.frombuffer(tracer.end, dtype=np.float64) - origin
        n = self.n_spans = int(start.size)
        self.counts = dict(tracer.counts)
        self.measured = dict(tracer.measured)
        self.wrapped = set(tracer.wrapped)
        self.absent_layers = list(tracer.absent_layers)
        self.threads = int(thread.max()) + 1 if n else 0

        duration = end - start
        child = np.flatnonzero(parent >= 0)
        p = parent[child]
        self.nested = bool(
            np.all(np.isfinite(end))
            and np.all(duration >= 0)
            and np.all(start[p] <= start[child])
            and np.all(end[child] <= end[p])
        )
        children_total = np.bincount(p, weights=duration[child], minlength=n)
        covered = _union_lengths(p, start[child], end[child], n)
        pairs, pair = np.unique(np.stack([p, thread[child]]), axis=1, return_inverse=True)
        pair_union = _union_lengths(pair.ravel(), start[child], end[child], pairs.shape[1])
        self.same_thread_overlap_s = float(duration[child].sum() - pair_union.sum())

        overlap = children_total - covered
        pool = names == tracer._name_ids.get(POOL_CALL, -1)
        threads_under = np.bincount(pairs[0], minlength=n)
        self.concurrency_s = float(overlap[pool].sum())
        self.stray_overlap_s = float(overlap[~pool].sum())
        self.concurrency_bound_s = float(
            np.sum(np.maximum(threads_under[pool] - 1, 0) * duration[pool])
        )

        self_time = duration - covered
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        for nid, name in enumerate(tracer.names):
            mask = names == nid
            self.calls[name] = int(np.count_nonzero(mask))
            self.self_s[name] = float(np.sum(self_time[mask]))
            self.incl_s[name] = float(np.sum(duration[mask]))

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def total_self(self) -> float:
        return sum(self.self_s.values())


def _union_lengths(group, start, end, size: int) -> np.ndarray:
    """Length of the union of the intervals [start, end] of each group."""
    out = np.zeros(size)
    order = np.lexsort((start, group))
    run_group, run_lo, run_hi = -1, 0.0, 0.0
    for g, lo, hi in zip(group[order].tolist(), start[order].tolist(), end[order].tolist()):
        if g != run_group or lo > run_hi:
            if run_group >= 0:
                out[run_group] += run_hi - run_lo
            run_group, run_lo, run_hi = g, lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_group >= 0:
        out[run_group] += run_hi - run_lo
    return out


# -- hooks: exact counts at the wrappers ---------------------------------------


class _CountingGenerator:
    """Stands in for a ``numpy.random.Generator`` returned by ``rng.stream``:
    ``random`` draws are traced as ``rng.random`` spans and counted."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer
        self._nid = tracer.name_id("rng.random")

    def random(self, *args, **kwargs):
        sid = self._tracer.open(self._nid)
        try:
            out = self._gen.random(*args, **kwargs)
        finally:
            self._tracer.close(sid)
        self._tracer.add("rng.uniforms", int(np.size(out)))
        return out

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _stream(tracer, run, args, kwargs):
    return _CountingGenerator(run(), tracer)


def _weibull_quantile(tracer, run, args, kwargs):
    out = run()
    tracer.add("weibull.values", int(np.size(out)))
    return out


def _order_statistics(tracer, run, args, kwargs):
    out = run()
    tracer.add("compression.sorted_values", int(np.size(out)))
    return out


def _build_feature_matrix(tracer, run, args, kwargs):
    out = run()
    kind = kwargs.get("kind", args[1] if len(args) > 1 else None)
    if getattr(kind, "value", kind) == "shape":
        tracer.shape_matrix = out
    return out


def _fit_minimax(tracer, run, args, kwargs):
    try:
        coeff = run()
    except Exception as exc:
        if type(exc).__name__ == "SolverBudgetError":
            tracer.add("solvers.budget_errors")
        raise
    if coeff.objective > 0:
        tracer.measure("solvers.minimax_gap_rel", coeff.certificate / coeff.objective, max)
    return coeff


def _indexed_map(tracer, run, args, kwargs):
    cpu = time.process_time()
    try:
        return run()
    finally:
        tracer.measure("parallel.map_cpu_s", time.process_time() - cpu)


def _run_mse_experiment(tracer, run, args, kwargs):
    config = kwargs.get("config", args[0] if args else None)
    out = run()
    tracer.add("experiment.mc_runs", config.mc_runs * len(config.eval_points))
    return out


HOOKS = {
    "rng.stream": _stream,
    "weibull.weibull_quantile": _weibull_quantile,
    "compression.order_statistics": _order_statistics,
    "estimator.build_feature_matrix": _build_feature_matrix,
    "solvers.fit_minimax": _fit_minimax,
    "parallel.indexed_map": _indexed_map,
    "experiment.run_mse_experiment": _run_mse_experiment,
}
