"""Whale optimization baseline: encircling, spiral, and random search moves.

Standard formulation: the exploration coefficient a decays linearly from 2
to 0 over the run, each agent flips a fair coin between encircling and the
logarithmic spiral (shape b=1), and encircling switches to a random agent
when |A| >= 1. Positions are clamped to the box after every move.

Random streams: 0 initializes the population, 1 drives the moves. Each
iteration draws one (n_agents, 4) block of doubles, a row per agent: r1, r2,
the coin p and the spiral parameter l. While a >= 1 it then draws one
partner index per agent, which only the agents that explore use.
The final population is returned alongside the incumbent because hybrid
initialization consumes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BudgetTooSmall
from ..objective import EvalCounter, Objective, evaluate, project_to_box, uniform_sample
from .base import RunResult, check_number, fold_block, population_iterations, split_streams


@dataclass(frozen=True)
class WoaParams:
    """iterations None: as many as the budget covers after the first population."""

    n_agents: int = 30
    iterations: int | None = None

    def __post_init__(self):
        check_number(self, "n_agents", int, minimum=2)
        check_number(self, "iterations", int, optional=True, minimum=0)


def _move(
    positions: np.ndarray,
    best_x: np.ndarray,
    a: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One WOA move of every agent, before the clamp to the box.

    Agent i encircles best_x or, when its coin p < 0.5 and |A| >= 1, its
    partner; otherwise it follows the spiral around best_x. Both moves are
    computed for every agent and the coin picks one. Below a = 1,
    |A| <= a < 1, so no agent explores and no partner is drawn.
    """
    n_agents = positions.shape[0]
    r1, r2, p, u = rng.random((n_agents, 4)).T
    amp = 2.0 * a * r1 - a
    encircle = p < 0.5
    target = best_x
    if a >= 1.0:
        partner = rng.integers(n_agents, size=n_agents)
        explore = encircle & (np.abs(amp) >= 1.0)
        target = np.where(explore[:, None], positions[partner], best_x)
    circled = target - amp[:, None] * np.abs((2.0 * r2)[:, None] * target - positions)

    spiral_l = -1.0 + 2.0 * u
    # math.exp and math.cos: numpy's own may round differently on another CPU
    grow = np.fromiter(map(math.exp, spiral_l.tolist()), float, n_agents)
    turn = np.fromiter(map(math.cos, (2.0 * math.pi * spiral_l).tolist()), float, n_agents)
    spiralled = np.abs(best_x - positions) * grow[:, None] * turn[:, None] + best_x
    return np.where(encircle[:, None], circled, spiralled)


def woa_run(
    obj: Objective,
    params: WoaParams,
    budget: int,
    seed: int,
    *,
    counter: EvalCounter | None = None,
    collect_diagnostics: bool = False,
) -> tuple[RunResult, np.ndarray]:
    """Run WOA for params.iterations iterations, stopping before any that
    would take counter past budget.

    Costs n_agents evaluations for the initial population and n_agents per
    iteration.
    """
    n_agents = params.n_agents
    counter = counter if counter is not None else EvalCounter()
    if budget - counter.count < n_agents:
        raise BudgetTooSmall(
            f"budget {budget} below the initial population ({n_agents} evaluations)"
        )
    iterations = population_iterations(budget - counter.count, n_agents, params.iterations)
    domain = obj.domain

    rng_init, rng_move = split_streams(seed, 2)
    positions = uniform_sample(domain, n_agents, rng_init)
    result = RunResult(best_x=positions[0].copy(), best_f=np.inf, evals_used=0,
                       iterations_done=0, diagnostics=[] if collect_diagnostics else None)
    fold_block(result, positions, evaluate(obj, positions, counter))

    for t in range(1, iterations + 1):
        if counter.count + n_agents > budget:
            break
        a = 2.0 - 2.0 * t / iterations
        moved = _move(positions, result.best_x, a, rng_move)
        positions = project_to_box(domain, moved)
        fold_block(result, positions, evaluate(obj, positions, counter), n_agents)

    result.evals_used = counter.count
    return result, positions.copy()
