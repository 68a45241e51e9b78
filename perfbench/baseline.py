"""Measure every workload over several seeds and print the baseline as JSON.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 > perfbench/baseline.json

Each end-to-end metric is summarised by the median and quartiles of its
values over the seeds, and the spread (Q3 - Q1) / median that the metric's
bound in BENCHMARK.json has to cover. One traced run per workload gives the
per-layer split. The layer map records which end-to-end metric each layer
should move, and on which workload. The run records (seed, evals_used,
iterations_done, best_f per run) show any drift of seeded results, and the
measured medians of setup_s, wall_s and evals_per_s sit next to the
speed-normalised ones that the benchmark reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LAYER_MAP = [
    {"layers": ["benchmarks.evaluator", "objective.evaluate", "objective.fd_gradient",
                "boltzmann.score"],
     "moves": ["wall_s", "evals_per_s"],
     "on": "mostly flow-small and flow-diag, partly grid, less flow-wide"},
    {"layers": ["objective.evals_offbudget"], "moves": ["wall_s"],
     "on": "flow-diag only; 0 on every other workload"},
    {"layers": ["kernel.pairwise", "svgd.iterate", "svgd.adam_step", "svgd.project"],
     "moves": ["wall_s", "peak_rss_mb"],
     "on": "flow-wide, slightly flow-diag (wall_s); flat on flow-small"},
    {"layers": ["sbs.iterations", "sbs.engine", "sbs.pf_filter", "sbs.evaluate"],
     "moves": ["wall_s"], "on": "flow-small only"},
    {"layers": ["boltzmann.ksd", "trajectory"], "moves": ["wall_s"],
     "on": "flow-diag only"},
    {"layers": ["cmaes", "woa", "cbo", "langevin", "hybrid"], "moves": ["wall_s"],
     "on": "grid only"},
    {"layers": ["harness"], "moves": ["wall_s"], "on": "grid"},
]


def _run(cmd: list[str]) -> tuple[dict, list[dict], dict]:
    """The benchmark's result object, the records of the runs it made and
    the measured (not speed-normalised) times it printed."""
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                         timeout=900)
    *lines, last = [json.loads(line) for line in out.stdout.splitlines()]
    measured = next((line["measured"] for line in lines if "measured" in line), {})
    return last, [line["run"] for line in lines if "run" in line], measured


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import numpy

    baseline = {
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(args.runs)),
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        base = [sys.executable, spec["command"][1], "--workload", name,
                "--seconds", str(spec["run_seconds"])]
        runs = [_run(base + ["--seed", str(seed), "--trace", "0"])
                for seed in baseline["seeds"]]
        rows = [result for result, _, _ in runs]
        summary = {
            metric["name"]: {"unit": metric["unit"], "bound": metric["bound"], **_summary(
                [r["metrics"][metric["name"]]["value"] for r in rows])}
            for metric in spec["end_to_end"]
        }
        measured = {key: _summary([m[key] for _, _, m in runs]) for key in runs[0][2]}
        traced, _, _ = _run(base + ["--seed", "0", "--trace", "1"])
        baseline["workloads"][name] = {
            "correct": all(r["correct"] for r in rows) and traced["correct"],
            "end_to_end": summary,
            "measured": measured,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "runs": {seed: records for seed, (_, records, _) in zip(baseline["seeds"], runs)},
        }
        print(f"{name}: " + ", ".join(
            f"{k} {v['median']:.4g} (spread {v['spread']:.3f})"
            for k, v in summary.items() if v["spread"] is not None
        ) + "; measured: " + ", ".join(
            f"{k} {v['median']:.4g} (spread {v['spread']:.3f})" for k, v in measured.items()
        ), file=sys.stderr)
    print(json.dumps(baseline, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
