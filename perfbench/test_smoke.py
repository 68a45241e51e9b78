"""Smoke test of the benchmark: every workload at a tiny budget, both modes.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Budgets that still reach every code path: sbs-pf filters from iteration
# 10, flow-diag logs a snapshot every 10 iterations, and the hybrid init
# is shrunk so that its continuation still runs.
TINY = {
    "flow-small": dict(budget=10_000),
    "flow-wide": dict(budget=20_000, methods=(("sbs", {"n_particles": 200}),)),
    "flow-diag": dict(budget=50_000),
    "grid": dict(budget=3_000, methods=(
        ("cma-es", {}), ("woa", {}), ("cbo", {}), ("langevin", {}),
        ("sbs-hybrid", {"cmaes_budget": 200, "woa_iterations": 20}),
    )),
}


def _printed(result: dict) -> dict:
    return json.loads(json.dumps(result))


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end(name, capsys):
    result = _printed(run.measure(replace(WORKLOADS[name], **TINY[name]), 0, 0.1, False))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {m: (v["unit"]) for m, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    # tiny budgets solve nothing, so solved_frac may read 0 here
    assert all(v["value"] > 0 for m, v in metrics.items() if m != "solved_frac")
    assert metrics["ok_frac"]["value"] == 1.0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    measured = [line["measured"] for line in lines if "measured" in line]
    assert len(measured) == 1 and all(v > 0 for v in measured[0].values())
    runs = [line["run"] for line in lines if "run" in line]
    assert runs and all(
        {"seed", "evals_used", "iterations_done", "best_f"} <= set(r) for r in runs
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer(name):
    result = _printed(run.measure(replace(WORKLOADS[name], **TINY[name]), 0, 0.1, True))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    value = {m: v["value"] for m, v in metrics.items()}
    assert (value["objective.evals_offbudget"] > 0) == (name == "flow-diag")
    assert (value["sbs.pf_filter.calls"] > 0) == (name == "flow-small")
    assert (value["trajectory.snapshots"] > 0) == (name == "flow-diag")
    assert (value["harness.cells"] > 0) == (name == "grid")
    assert value["benchmarks.evaluator.calls"] >= value["objective.evals_budgeted"] > 0
