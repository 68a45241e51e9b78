"""Whale optimization baseline: encircling, spiral, and random search moves.

Standard formulation: the exploration coefficient a decays linearly from 2
to 0 over the run, each agent flips a fair coin between encircling and the
logarithmic spiral (shape b=1), and encircling switches to a random agent
when |A| >= 1. Positions are clamped to the box after every move.

Random streams: 0 initializes the population, 1 drives the per-agent draws.
Each iteration draws, agent by agent, r1, r2, the coin p and the spiral
parameter l (four doubles), then the random partner's index when that agent
explores. Moves are computed for the whole population at once from those
draws, with the same stream and results as an agent-by-agent loop.
The final population is returned alongside the incumbent because hybrid
initialization consumes it.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BudgetTooSmall, ConfigError
from ..objective import EvalCounter, Objective, evaluate, project_to_box, uniform_sample
from .base import IterationRecord, RunResult, improve_incumbent, split_streams


def _move(
    positions: np.ndarray,
    best_x: np.ndarray,
    a: float,
    spiral_shape: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One WOA move of every agent, before the clamp to the box.

    Agent i encircles best_x or, when its coin p < 0.5 and |A| >= 1, a
    random partner; otherwise it follows the spiral around best_x. Below
    a = 1, |A| <= a < 1 and no agent explores, so the whole population's
    draws come from one call.
    """
    n_agents = positions.shape[0]
    partner = [0] * n_agents
    if a < 1.0:
        draws = rng.random((n_agents, 4))
    else:
        rows = []
        for i in range(n_agents):
            row = rng.random(4).tolist()
            rows.append(row)
            r1, _, p, _ = row
            if p < 0.5 and abs(2.0 * a * r1 - a) >= 1.0:
                partner[i] = int(rng.integers(n_agents))
        draws = np.array(rows)
    r1, r2, p, u = draws.T
    amp = 2.0 * a * r1 - a
    encircle = p < 0.5
    spiral = ~encircle
    explore = encircle & (np.abs(amp) >= 1.0)

    moved = np.empty_like(positions)
    target = np.where(explore[:, None], positions[np.array(partner)], best_x)[encircle]
    gap = np.abs((2.0 * r2[encircle])[:, None] * target - positions[encircle])
    moved[encircle] = target - amp[encircle, None] * gap

    spiral_l = -1.0 + 2.0 * u[spiral]
    # math.exp and math.cos, as numpy's may round differently
    grow = np.array([math.exp(spiral_shape * l) for l in spiral_l.tolist()])
    turn = np.array([math.cos(2.0 * math.pi * l) for l in spiral_l.tolist()])
    gap = np.abs(best_x - positions[spiral])
    moved[spiral] = gap * grow[:, None] * turn[:, None] + best_x
    return moved


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
    best_x, best_f = improve_incumbent(positions, fitness, positions[0].copy(), np.inf)

    records: list[IterationRecord] | None = [] if collect_diagnostics else None
    done = 0
    for t in range(1, iterations + 1):
        if budget is not None and counter.count + n_agents > budget:
            break
        a = 2.0 - 2.0 * t / iterations
        moved = _move(positions, best_x, a, spiral_shape, rng_move)
        positions = project_to_box(domain, moved)
        fitness = evaluate(obj, positions, counter)
        done = t

        best_x, best_f = improve_incumbent(positions, fitness, best_x, best_f)
        if records is not None:
            records.append(
                IterationRecord(t, float(np.fmin.reduce(fitness)), best_f, n_agents)
            )

    result = RunResult(
        best_x=best_x,
        best_f=best_f,
        evals_used=counter.count,
        iterations_done=done,
        diagnostics=records,
    )
    return result, positions.copy()
