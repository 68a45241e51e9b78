"""Per-layer tracing of sbsopt from outside the package.

The tracer replaces a function at the place where sbsopt looks it up, i.e.
the module attribute a caller resolves at call time, with a wrapper that
records a span around the call. Nothing under src/ knows about it. A span's
self time is its duration minus the time of the spans it encloses, so the
self times of one thread add up to the duration of that thread's outermost
spans exactly. Each thread keeps its own span stack: the harness runs cells
in a thread pool, and a cell is then the outermost span of its worker.

The thread that creates the tracer times its spans by the wall clock. Other
threads time theirs by their own CPU time: pool workers share one
interpreter lock, and wall-clock spans there would count the waits for it
as work, so that two workers would look twice as fast as one.

Objectives are traced through `dataclasses.replace`, which re-runs the
construction-time reference check; evaluator calls made while an objective
is built are counted apart so they never look like off-budget evaluations.
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

EVALUATOR = "benchmarks.evaluator"
CONSTRUCTION_EVALS = "objective.evals_construction"


def _pairwise_bytes(args, result):
    # K and sqdist are N x N, diff is N x N x d, all float64
    n, d = args[1].shape
    return {"kernel.pairwise.bytes_computed": 8 * n * n * (d + 2)}


def _filter_removed(args, result):
    return {"sbs.pf_filter.removed": len(args[0]) - len(result)}


def _engine_evaluate(args, result):
    return {"sbs.evaluate.calls": 1}


def _trajectory_saved(args, result):
    log, path = args[0], args[1]
    with open(path, "rb") as fh:
        size = fh.seek(0, 2)
    return {"trajectory.snapshots": len(log.snapshots), "trajectory.bytes": size}


# (module, attribute, span name, counts derived from the call). A function
# imported into several modules is wrapped in each of them.
SITES = (
    ("sbsopt.objective", "evaluate", "objective.evaluate", None),
    ("sbsopt.optimizers.sbs", "evaluate", "objective.evaluate", _engine_evaluate),
    ("sbsopt.optimizers.cmaes", "evaluate", "objective.evaluate", None),
    ("sbsopt.optimizers.woa", "evaluate", "objective.evaluate", None),
    ("sbsopt.optimizers.cbo", "evaluate", "objective.evaluate", None),
    ("sbsopt.optimizers.langevin", "evaluate", "objective.evaluate", None),
    ("sbsopt.boltzmann", "fd_gradient", "objective.fd_gradient", None),
    ("sbsopt.optimizers.langevin", "fd_gradient", "objective.fd_gradient", None),
    ("sbsopt.svgd", "score", "boltzmann.score", None),
    ("sbsopt.boltzmann", "score", "boltzmann.score", None),
    ("sbsopt.svgd", "pairwise_kernel", "kernel.pairwise", _pairwise_bytes),
    ("sbsopt.boltzmann", "pairwise_kernel", "kernel.pairwise", _pairwise_bytes),
    ("sbsopt.svgd", "adam_step", "svgd.adam_step", None),
    ("sbsopt.svgd", "project_to_box", "svgd.project", None),
    ("sbsopt.optimizers.sbs", "_iterate_with_parts", "svgd.iterate", None),
    ("sbsopt.optimizers.sbs", "ksd_from_parts", "boltzmann.ksd", None),
    ("sbsopt.optimizers.sbs", "pf_filter", "sbs.pf_filter", _filter_removed),
    ("sbsopt.optimizers.sbs", "_run_engine", "sbs.engine", None),
    ("sbsopt.optimizers.hybrid", "_run_engine", "sbs.engine", None),
    ("sbsopt.optimizers.hybrid", "_hybrid_init_full", "hybrid.init", None),
    ("sbsopt.optimizers.hybrid", "cmaes_run", "cmaes", None),
    ("sbsopt.optimizers.hybrid", "woa_run", "woa", None),
    ("sbsopt.optimizers", "cmaes_run", "cmaes", None),
    ("sbsopt.optimizers", "woa_run", "woa", None),
    ("sbsopt.optimizers", "cbo_run", "cbo", None),
    ("sbsopt.optimizers", "langevin_run", "langevin", None),
    ("sbsopt.harness", "run_experiment", "harness.run_experiment", None),
    ("sbsopt.harness", "run_method", "harness.cell", None),
    ("sbsopt.harness", "write_results", "harness.write", None),
    ("sbsopt.trajectory", "TrajectoryLog.save", "trajectory.io", _trajectory_saved),
    ("sbsopt.trajectory", "TrajectoryLog.load", "trajectory.io", None),
)


class _ThreadStats:
    """Span bookkeeping of one thread."""

    def __init__(self, clock):
        self.clock = clock
        self.stack: list[list[float]] = []  # per open span: [child time]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.root_s = 0.0  # summed duration of this thread's outermost spans


class Tracer:
    """Records spans and counts at the layer boundaries listed in SITES."""

    def __init__(self):
        self._owner = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadStats] = []
        self.missing: list[str] = []

    def thread_stats(self) -> _ThreadStats:
        """The calling thread's bookkeeping."""
        stats = getattr(self._local, "stats", None)
        if stats is None:
            owner = threading.get_ident() == self._owner
            clock = time.perf_counter if owner else time.thread_time
            stats = self._local.stats = _ThreadStats(clock)
            with self._lock:
                self.threads.append(stats)
        return stats

    def _open(self):
        stats = self.thread_stats()
        frame = [0.0]  # time of the spans this one encloses
        stats.stack.append(frame)
        return stats, frame

    @staticmethod
    def _close(stats: _ThreadStats, name: str, frame: list, elapsed: float) -> None:
        stats.stack.pop()
        stats.calls[name] += 1
        stats.self_s[name] += elapsed - frame[0]
        stats.total_s[name] += elapsed
        if stats.stack:
            stats.stack[-1][0] += elapsed
        else:
            stats.root_s += elapsed

    def wrap(self, name: str, fn, derive=None):
        """fn with a span named `name` around every call.

        derive(args, result), when given, returns counts to add for the call.
        """

        def traced(*args, **kwargs):
            stats, frame = self._open()
            start = stats.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stats, name, frame, stats.clock() - start)
            if derive is not None:
                for key, value in derive(args, result).items():
                    stats.counts[key] += value
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stats, frame = self._open()
        start = stats.clock()
        try:
            yield
        finally:
            self._close(stats, name, frame, stats.clock() - start)

    def objective(self, obj):
        """obj with a traced evaluator; construction-time calls counted apart."""
        stats = self.thread_stats()
        before = stats.calls[EVALUATOR]
        traced = dataclasses.replace(obj, evaluator=self.wrap(EVALUATOR, obj.evaluator))
        stats.counts[CONSTRUCTION_EVALS] += stats.calls[EVALUATOR] - before
        return traced

    @contextmanager
    def installed(self):
        """Patch every site, plus the harness's objective factory; undo on exit."""
        undo = []
        try:
            for module_name, attr, name, derive in SITES:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__.get(leaf)
                if raw is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self.wrap(name, fn, derive)
                setattr(owner, leaf,
                        staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                undo.append((owner, leaf, raw))
            harness = importlib.import_module("sbsopt.harness")
            factory = harness.make_benchmark
            harness.make_benchmark = lambda *a, **k: self.objective(factory(*a, **k))
            undo.append((harness, "make_benchmark", factory))
            yield self
        finally:
            for owner, leaf, raw in reversed(undo):
                setattr(owner, leaf, raw)

    def summary(self) -> dict:
        """Calls, self and total seconds and counts, summed over threads."""
        out = {"calls": defaultdict(int), "self_s": defaultdict(float),
               "total_s": defaultdict(float), "counts": defaultdict(int)}
        for stats in self.threads:
            for key in out:
                for name, value in getattr(stats, key).items():
                    out[key][name] += value
        return out
