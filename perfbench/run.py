"""Benchmark of sbsopt: end-to-end cost of four workloads, or a per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload flow-small --seed 0 --seconds 25 --trace 0

The sources under ./src are imported directly, so nothing is installed.
With --trace 0 the workload's runs are repeated for --seconds, and set-up
is timed in fresh interpreters, a few before each pass. With --trace 1 one
untraced pass is followed by one traced pass of the same runs, and the
per-layer metrics come from the traced one. Each run's seed, evals_used,
iterations_done and best_f are printed as one JSON line; the last line is
the result object.

End-to-end metrics, measured with tracing off:

- setup_s: import, registry validation and objective/config construction,
  median over the fresh interpreters, in reference seconds;
- wall_s: median time of one pass over the workload's runs, in reference
  seconds;
- evals_per_s: evals_used summed over a pass, divided by wall_s;
- peak_rss_mb: peak resident memory of the process that ran the passes;
- solved_frac: share of runs with |best_f - f*| within the workload's
  tolerance for the run's function;
- ok_frac: share of runs that neither raised nor failed a correctness
  check (1 - failed/attempted; a metric that reads 0 cannot carry a bound).

The CPUs of a shared virtual machine slow down together, by up to about 2x,
for seconds to minutes at a time. Each pass and each set-up is therefore
timed together with the machine's speed while it ran (speed.py), and is
reported as its time at the reference speed. On a 2-vCPU machine this cut
the pass-to-pass coefficient of variation from 0.22 to 0.08 (flow-small),
0.14 to 0.10 (flow-wide), 0.18 to 0.10 (flow-diag) and 0.08 to 0.03 (grid),
and kept the median set-up of 12 interpreters within 6% over two minutes
in which the measured one moved by 13%. The measured medians are printed
too, as the `measured` line before the result.

Per-layer self times are summed over threads. With the harness thread pool,
worker spans count thread CPU time (see layers.py), and harness.self_s
includes the main thread's wait for the pool.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import SpeedProbe

# One BLAS thread, for this process and the set-up interpreters it starts:
# numpy's helper threads otherwise start and spin on the same 2 CPUs as the
# harness pool, and their start-up wait, which no speed sample sees, added
# up to a third to set-up. Set before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 20  # fresh interpreters timed per run, at least
SETUP_BLOCK = 4  # of them timed before each pass
SETUP_SAMPLE_INTERVAL = 0.005  # s between speed samples during a set-up
PASS_SAMPLE_INTERVAL = 0.02  # s between speed samples during a pass

# name -> unit; the same names and units as BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "solved_frac": "ratio",
    "ok_frac": "ratio",
}

# span -> the per-layer self-time metric it is added to
SELF_METRIC = {
    "benchmarks.evaluator": "benchmarks.evaluator.self_s",
    "objective.evaluate": "objective.evaluate.self_s",
    "objective.fd_gradient": "objective.fd_gradient.self_s",
    "boltzmann.score": "boltzmann.score.self_s",
    "kernel.pairwise": "kernel.pairwise.self_s",
    "svgd.iterate": "svgd.iterate.self_s",
    "svgd.adam_step": "svgd.adam_step.self_s",
    "svgd.project": "svgd.project.self_s",
    "sbs.engine": "sbs.engine.self_s",
    "sbs.pf_filter": "sbs.pf_filter.self_s",
    "boltzmann.ksd": "boltzmann.ksd.self_s",
    "trajectory.io": "trajectory.io_s",
    "cmaes": "cmaes.self_s",
    "woa": "woa.self_s",
    "cbo": "cbo.self_s",
    "langevin": "langevin.self_s",
    "hybrid.init": "hybrid.self_s",
    "harness.run_experiment": "harness.self_s",
    "harness.cell": "harness.self_s",
    "harness.write": "harness.self_s",
    "pass": "tracing.untraced_s",
}

PER_LAYER = {
    "benchmarks.evaluator.calls": "count",
    "benchmarks.evaluator.self_s": "s",
    "objective.evaluate.calls": "count",
    "objective.evaluate.self_s": "s",
    "objective.fd_gradient.calls": "count",
    "objective.fd_gradient.self_s": "s",
    "boltzmann.score.self_s": "s",
    "objective.evals_budgeted": "count",
    "objective.evals_offbudget": "count",
    "kernel.pairwise.calls": "count",
    "kernel.pairwise.self_s": "s",
    "kernel.pairwise.bytes_computed": "bytes",
    "svgd.iterate.self_s": "s",
    "svgd.adam_step.self_s": "s",
    "svgd.project.self_s": "s",
    "sbs.iterations": "count",
    "sbs.engine.self_s": "s",
    "sbs.pf_filter.calls": "count",
    "sbs.pf_filter.self_s": "s",
    "sbs.pf_filter.removed": "count",
    "sbs.evaluate.calls": "count",
    "boltzmann.ksd.self_s": "s",
    "trajectory.snapshots": "count",
    "trajectory.bytes": "bytes",
    "trajectory.io_s": "s",
    "cmaes.self_s": "s",
    "woa.self_s": "s",
    "cbo.self_s": "s",
    "langevin.self_s": "s",
    "hybrid.init_s": "s",
    "hybrid.self_s": "s",
    "harness.cells": "count",
    "harness.workers": "count",
    "harness.cell_s_sum": "s",
    "harness.write_s": "s",
    "harness.self_s": "s",
    "harness.parallel_speedup": "ratio",
    "tracing.traced_wall_s": "s",
    "tracing.untraced_s": "s",
    "tracing.overhead_frac": "ratio",
}

# Set-up as a user pays it: a fresh interpreter imports sbsopt, validates
# the registry and builds the workload's objectives or experiment config.
# It prints the measured and the normalised time.
_SETUP_PROBE = """
import sys, time
src, here, name, seed, scratch, interval = sys.argv[1:]
sys.path.insert(0, here)
from speed import SpeedProbe
with SpeedProbe(float(interval)) as probe:
    start = time.perf_counter()
    sys.path.insert(0, src)
    from pathlib import Path
    from workloads import WORKLOADS
    WORKLOADS[name].prepare(int(seed), Path(scratch))
    elapsed = time.perf_counter() - start
print(elapsed, probe.normalised(elapsed))
"""


def _setup_seconds(name: str, seed: int, scratch: Path, repeats: int) -> list[tuple]:
    """(measured, normalised) set-up times of `repeats` fresh interpreters."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), name, str(seed),
             str(scratch), str(SETUP_SAMPLE_INTERVAL)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        measured, normalised = out.stdout.split()[-2:]
        times.append((float(measured), float(normalised)))
    return times


def _fingerprint(outcome) -> tuple:
    res = outcome.result
    if res is None:
        return (outcome.error,)
    return (res.evals_used, res.iterations_done, res.best_f, res.best_x.tobytes())


class _Ledger:
    """Correctness of every run made, checked after each pass's timer stops."""

    def __init__(self, check):
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.first: list | None = None

    def add(self, outcomes: list) -> None:
        fingerprints = [_fingerprint(o) for o in outcomes]
        if self.first is None:
            self.first = outcomes
            for o in outcomes:
                print(json.dumps({"run": o.record()}))
        for i, o in enumerate(outcomes):
            problems = self.check(o)
            if self.first is not outcomes and fingerprints[i] != _fingerprint(self.first[i]):
                problems.append("result differs from the first pass of the same run")
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"run failed: {o.method} on {o.function}-{o.dim}d seed {o.seed}: "
                      + "; ".join(problems), file=sys.stderr)


def _evals(outcomes: list) -> int:
    return sum(o.result.evals_used for o in outcomes if o.result is not None)


def _end_to_end(gap, workload, prepared, seed, seconds, scratch, ledger) -> dict:
    setups, walls, raw_walls = [], [], []
    start = time.perf_counter()
    while True:
        setups += _setup_seconds(workload.name, seed, scratch, SETUP_BLOCK)
        with SpeedProbe(PASS_SAMPLE_INTERVAL) as probe:
            t0 = time.perf_counter()
            outcomes = workload.execute(prepared)
            wall = time.perf_counter() - t0
        raw_walls.append(wall)
        walls.append(probe.normalised(wall))
        print(f"pass {len(walls)}: {wall:.3f} s measured, {walls[-1]:.3f} s normalised",
              file=sys.stderr)
        ledger.add(outcomes)
        if time.perf_counter() - start + statistics.median(raw_walls) > seconds:
            break
    setups += _setup_seconds(workload.name, seed, scratch,
                             max(0, SETUP_REPEATS - len(setups)))
    print("set-up times (measured/normalised): "
          + " ".join(f"{m:.4f}/{n:.4f}" for m, n in setups), file=sys.stderr)
    finished = [o for o in ledger.first if o.result is not None]
    solved = sum(1 for o in finished if gap(o) <= workload.tolerance_for(o.function))
    evals = _evals(ledger.first)
    measured = {
        "setup_s": statistics.median(m for m, _ in setups),
        "wall_s": statistics.median(raw_walls),
        "evals_per_s": evals / statistics.median(raw_walls),
    }
    print(json.dumps({"measured": measured, "passes": len(walls)}))
    return {
        "setup_s": statistics.median(n for _, n in setups),
        "wall_s": statistics.median(walls),
        "evals_per_s": evals / statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_frac": solved / len(ledger.first),
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }


def _per_layer(layers, workload, prepared, ledger) -> tuple[dict, list[str]]:
    t0 = time.perf_counter()
    ledger.add(workload.execute(prepared))
    untraced_wall = time.perf_counter() - t0

    tracer = layers.Tracer()
    if "objective" in prepared:
        prepared = dict(prepared, objective=tracer.objective(prepared["objective"]))
    with tracer.installed():
        t0 = time.perf_counter()
        with tracer.span("pass"):
            outcomes = workload.execute(prepared)
        traced_wall = time.perf_counter() - t0
    ledger.add(outcomes)

    s = tracer.summary()
    calls, self_s, total_s, counts = s["calls"], s["self_s"], s["total_s"], s["counts"]
    m = {name: 0.0 for name, unit in PER_LAYER.items() if unit == "s"}
    for span, metric in SELF_METRIC.items():
        m[metric] += self_s[span]
    budgeted = _evals(outcomes)
    run_experiment_s = total_s["harness.run_experiment"]
    m.update({
        "benchmarks.evaluator.calls": calls[layers.EVALUATOR],
        "objective.evaluate.calls": calls["objective.evaluate"],
        "objective.fd_gradient.calls": calls["objective.fd_gradient"],
        "objective.evals_budgeted": budgeted,
        "objective.evals_offbudget": calls[layers.EVALUATOR]
        - counts[layers.CONSTRUCTION_EVALS] - budgeted,
        "kernel.pairwise.calls": calls["kernel.pairwise"],
        "kernel.pairwise.bytes_computed": counts["kernel.pairwise.bytes_computed"],
        "sbs.iterations": calls["svgd.iterate"],
        "sbs.pf_filter.calls": calls["sbs.pf_filter"],
        "sbs.pf_filter.removed": counts["sbs.pf_filter.removed"],
        "sbs.evaluate.calls": counts["sbs.evaluate.calls"],
        "trajectory.snapshots": counts["trajectory.snapshots"],
        "trajectory.bytes": counts["trajectory.bytes"],
        "hybrid.init_s": total_s["hybrid.init"],
        "harness.cells": calls["harness.cell"],
        "harness.workers": sum(1 for t in tracer.threads if t.calls["harness.cell"]),
        "harness.cell_s_sum": total_s["harness.cell"],
        "harness.write_s": total_s["harness.write"],
        "harness.parallel_speedup":
            total_s["harness.cell"] / run_experiment_s if run_experiment_s else 0.0,
        "tracing.traced_wall_s": traced_wall,
        "tracing.overhead_frac": traced_wall / untraced_wall - 1.0,
    })

    # Self times plus the untraced remainder must add up to the traced wall
    # time; cells run by pool threads add their own (parallel) time on top.
    problems = [f"not traced, no such function: {site}" for site in tracer.missing]
    main = tracer.thread_stats()
    parallel_s = sum(t.root_s for t in tracer.threads if t is not main)
    self_sum = sum(m[metric] for metric in set(SELF_METRIC.values()))
    if abs(self_sum - (traced_wall + parallel_s)) > 1e-3 * traced_wall + 1e-3:
        problems.append(f"self times sum to {self_sum} s, traced wall time is "
                        f"{traced_wall} s plus {parallel_s} s in pool threads")
    return m, problems


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    import layers
    from workloads import check, gap

    ledger = _Ledger(check)
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as tmp:
        scratch = Path(tmp)
        prepared = workload.prepare(seed, scratch)
        if trace:
            values, problems = _per_layer(layers, workload, prepared, ledger)
            units = PER_LAYER
        else:
            values = _end_to_end(gap, workload, prepared, seed, seconds, scratch, ledger)
            problems, units = [], END_TO_END
    try:
        scratch_root.rmdir()
    except OSError:  # another run still uses it
        pass
    for problem in problems:
        print(problem, file=sys.stderr)
    return {
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "sbsopt" / "__init__.py").is_file():
        print(f"perfbench: no sbsopt sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
