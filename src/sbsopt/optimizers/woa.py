"""Whale optimization baseline: encircling, spiral, and random search moves.

Standard formulation: the exploration coefficient a decays linearly from 2
to 0 over the run, each agent flips a fair coin between encircling and the
logarithmic spiral (shape b=1), and encircling switches to a random agent
when |A| >= 1. Positions are clamped to the box after every move.

Random streams: 0 initializes the population, 1 drives the moves. Each
iteration draws one (n_agents, 4) block of doubles, a row per agent: r1, r2,
the coin p and the spiral parameter l. While a >= 1 it then draws one
partner index per agent, which only the agents that explore use.

No draw depends on the positions, so the run plans its moves a chunk of up
to CHUNK iterations at a time: it makes the chunk's draws in the order
above and turns them into per-agent coefficients. Every move is then the one
formula target + (q |r target - x|) w: encircling agents take
(q, r, w) = (-A, 2 r2, 1) and spiralling ones (e^l, 1, cos 2 pi l), with
target best_x, or the partner's row for an explorer. These are the same
draws and, bit for bit, the same moves as planning one iteration at a time.
A chunk stops at the last iteration the budget pays for, so the stream
ends where the iteration-by-iteration loop leaves it.
The final population is returned alongside the run's EvalCounter because
hybrid initialization consumes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import BudgetTooSmall
from ..objective import EvalCounter, Objective, evaluate, project_to_box, uniform_sample
from .base import check_number, log_iteration, population_iterations, split_streams

CHUNK = 64  # iterations planned at once; their draws take 2 kB per agent


@dataclass(frozen=True)
class WoaParams:
    """iterations None: as many as the budget covers after the first population."""

    n_agents: int = 30
    iterations: int | None = None

    def __post_init__(self):
        check_number(self, "n_agents", int, minimum=2)
        check_number(self, "iterations", int, optional=True, minimum=0)


class Move(NamedTuple):
    """One iteration's move, per agent: q, r and w are (n_agents, 1) columns,
    explore an (n_agents, 1) mask of the agents that go for their partner
    (None when no agent does) and partner the agents' partner indices
    (zeros on an iteration that draws none)."""

    q: np.ndarray
    r: np.ndarray
    w: np.ndarray
    explore: np.ndarray | None
    partner: np.ndarray


def _plan(a: np.ndarray, n_agents: int, rng: np.random.Generator) -> list[Move]:
    """The moves of len(a) iterations, iteration k at coefficient a[k].

    Draws as iteration-by-iteration planning does: a (n_agents, 4) block
    per iteration, each followed by the partner indices while a[k] >= 1.
    Agent i encircles best_x or, when its coin p < 0.5 and |A| >= 1, its
    partner; otherwise it follows the spiral around best_x. Below a = 1,
    |A| <= a < 1, so no agent explores and no partner is drawn.
    """
    draws = np.empty((len(a), n_agents, 4))
    partner = np.zeros((len(a), n_agents), dtype=np.int64)
    for k, drawn in enumerate((a >= 1.0).tolist()):
        rng.random(out=draws[k])
        if drawn:
            partner[k] = rng.integers(n_agents, size=n_agents)
    r1, r2, p, u = np.moveaxis(draws, 2, 0)
    a = a[:, None]
    amp = 2.0 * a * r1 - a
    encircle = p < 0.5
    explore = encircle & (np.abs(amp) >= 1.0)

    spiral = ~encircle
    spiral_l = -1.0 + 2.0 * u[spiral]
    # math.exp and math.cos: numpy's own may round differently on another CPU
    q = -amp
    q[spiral] = np.fromiter(map(math.exp, spiral_l.tolist()), float, spiral_l.size)
    r = 2.0 * r2
    r[spiral] = 1.0
    w = np.ones_like(q)
    w[spiral] = np.fromiter(map(math.cos, (2.0 * math.pi * spiral_l).tolist()), float,
                            spiral_l.size)
    explorers = [explore[k, :, None] if seen else None
                 for k, seen in enumerate(explore.any(axis=1).tolist())]
    return list(map(Move, q[..., None], r[..., None], w[..., None], explorers, partner))


def _move(positions: np.ndarray, best_x: np.ndarray, move: Move) -> np.ndarray:
    """One planned move of every agent, before the clamp to the box.

    target + (q |r target - x|) w gives the bits of the two moves as
    written: target - A |2 r2 target - x| for (q, r, w) = (-A, 2 r2, 1),
    since negating and scaling by 1 are exact, and
    |best_x - x| e^l cos(2 pi l) + best_x for (e^l, 1, cos 2 pi l).
    """
    target = best_x
    if move.explore is not None:
        target = np.where(move.explore, positions[move.partner], best_x)
    return target + move.q * np.abs(move.r * target - positions) * move.w


def woa_run(
    obj: Objective,
    params: WoaParams,
    budget: int,
    seed: int,
    *,
    collect_diagnostics: bool = False,
) -> tuple[EvalCounter, np.ndarray]:
    """Run WOA for params.iterations iterations, stopping before any that
    would spend past budget.

    Costs n_agents evaluations for the initial population and n_agents per
    iteration; the moves target the run's incumbent. Returns the run's
    EvalCounter and the final population.
    """
    n_agents = params.n_agents
    if budget < n_agents:
        raise BudgetTooSmall(
            f"budget {budget} below the initial population ({n_agents} evaluations)"
        )
    iterations = population_iterations(budget, n_agents, params.iterations)
    counter = EvalCounter(diagnostics=[] if collect_diagnostics else None)
    domain = obj.domain

    rng_init, rng_move = split_streams(seed, 2)
    positions = uniform_sample(domain, n_agents, rng_init)
    evaluate(obj, positions, counter)

    # every iteration costs n_agents evaluations: plan no move the budget
    # cannot pay for, so no draw is made for a move that never runs
    moves = min(iterations, (budget - counter.evals_used) // n_agents)
    for start in range(1, moves + 1, CHUNK):
        stop = min(start + CHUNK, moves + 1)
        a = np.array([2.0 - 2.0 * t / iterations for t in range(start, stop)])
        for move in _plan(a, n_agents, rng_move):
            positions = project_to_box(domain, _move(positions, counter.best_x, move))
            log_iteration(counter, evaluate(obj, positions, counter), n_agents)

    return counter, positions.copy()
