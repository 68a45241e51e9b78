"""Whale optimization baseline: encircling, spiral, and random search moves.

Standard formulation: the exploration coefficient a decays linearly from 2
to 0 over the run, each agent flips a fair coin between encircling and the
logarithmic spiral (shape b=1), and encircling switches to a random agent
when |A| >= 1. Positions are clamped to the box after every move.

Random streams: 0 initializes the population, 1 drives the per-agent draws.
The final population is returned alongside the incumbent because hybrid
initialization consumes it.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BudgetTooSmall, ConfigError
from ..objective import EvalCounter, Objective, evaluate, project_to_box, uniform_sample
from .base import IterationRecord, RunResult, split_streams


def woa_run(
    obj: Objective,
    n_agents: int,
    iterations: int,
    seed: int,
    *,
    spiral_shape: float = 1.0,
    budget: int | None = None,
    counter: EvalCounter | None = None,
    collect_diagnostics: bool = False,
) -> tuple[RunResult, np.ndarray]:
    """Run WOA for a fixed iteration count (optionally capped by a budget).

    Costs n_agents evaluations for the initial population and n_agents per
    iteration. With budget given, stops before any iteration that would
    exceed it.
    """
    if n_agents < 2:
        raise ConfigError("WOA needs at least 2 agents", field="n_agents")
    if iterations < 0:
        raise ConfigError("iterations must be nonnegative", field="iterations")
    counter = counter if counter is not None else EvalCounter()
    if budget is not None and budget - counter.count < n_agents:
        raise BudgetTooSmall(
            f"budget {budget} below the initial population ({n_agents} evaluations)"
        )
    domain = obj.domain

    rng_init, rng_move = split_streams(seed, 2)
    positions = uniform_sample(domain, n_agents, rng_init)
    fitness = evaluate(obj, positions, counter)
    best_idx = int(np.argmin(fitness))
    best_x = positions[best_idx].copy()
    best_f = float(fitness[best_idx])

    records: list[IterationRecord] | None = [] if collect_diagnostics else None
    done = 0
    for t in range(1, iterations + 1):
        if budget is not None and counter.count + n_agents > budget:
            break
        a = 2.0 - 2.0 * t / iterations
        moved = np.empty_like(positions)
        for i in range(n_agents):
            r1 = rng_move.random()
            r2 = rng_move.random()
            amp = 2.0 * a * r1 - a
            attract = 2.0 * r2
            p = rng_move.random()
            spiral_l = -1.0 + 2.0 * rng_move.random()
            if p < 0.5:
                if abs(amp) < 1.0:
                    gap = np.abs(attract * best_x - positions[i])
                    moved[i] = best_x - amp * gap
                else:
                    other = positions[rng_move.integers(n_agents)]
                    gap = np.abs(attract * other - positions[i])
                    moved[i] = other - amp * gap
            else:
                gap = np.abs(best_x - positions[i])
                moved[i] = (
                    gap * math.exp(spiral_shape * spiral_l)
                    * math.cos(2.0 * math.pi * spiral_l)
                    + best_x
                )
        positions = project_to_box(domain, moved)
        fitness = evaluate(obj, positions, counter)
        done = t

        gen_best = int(np.argmin(fitness))
        if fitness[gen_best] < best_f:
            best_f = float(fitness[gen_best])
            best_x = positions[gen_best].copy()
        if records is not None:
            records.append(
                IterationRecord(t, float(fitness[gen_best]), best_f, n_agents)
            )

    result = RunResult(
        best_x=best_x,
        best_f=best_f,
        evals_used=counter.count,
        iterations_done=done,
        diagnostics=records,
    )
    return result, positions.copy()
