"""Unadjusted Langevin baseline on the Boltzmann log-density.

Each chain follows x <- project(x - eta kappa grad f(x) + sqrt(2 eta) xi)
with finite-difference gradients, so one chain step costs 2d probe
evaluations plus 1 to score the new state. Each sweep steps every chain
once, all in one block; the last sweep steps only as many chains, in chain
order, as the budget still covers. The best evaluated point across all
chains is returned.

Random streams: 0 initializes the chains, 1 drives the noise.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BudgetTooSmall, ConfigError
from ..objective import (
    EvalCounter,
    Objective,
    evaluate,
    fd_gradient,
    project_to_box,
    uniform_sample,
)
from .base import IterationRecord, RunResult, improve_incumbent, split_streams


def langevin_run(
    obj: Objective,
    n_chains: int,
    kappa: float,
    eta: float,
    budget: int,
    seed: int,
    *,
    counter: EvalCounter | None = None,
    collect_diagnostics: bool = False,
) -> RunResult:
    """Run parallel Langevin chains until the budget is exhausted."""
    if n_chains < 1:
        raise ConfigError("need at least one chain", field="n_chains")
    if eta < 0:
        raise ConfigError("eta must be nonnegative", field="eta")
    counter = counter if counter is not None else EvalCounter()
    domain = obj.domain
    d = domain.d
    if budget - counter.count < 2 * d:
        raise BudgetTooSmall(f"budget {budget} below one gradient step ({2 * d} evaluations)")

    rng_init, rng_noise = split_streams(seed, 2)
    chains = uniform_sample(domain, n_chains, rng_init)
    scored = chains[: budget - counter.count]
    best_x, best_f = improve_incumbent(scored, evaluate(obj, scored, counter),
                                       chains[0].copy(), np.inf)

    noise_scale = math.sqrt(2.0 * eta)
    step_cost = 2 * d + 1
    records: list[IterationRecord] | None = [] if collect_diagnostics else None
    sweeps = 0
    exhausted = False
    while not exhausted:
        # the chains the budget can still step this sweep, as one block
        k = min(n_chains, (budget - counter.count) // step_cost)
        exhausted = k < n_chains
        if k == 0:
            break
        grad = fd_gradient(obj, chains[:k], counter)
        proposal = (
            chains[:k] - eta * kappa * grad
            + noise_scale * rng_noise.standard_normal((k, d))
        )
        chains[:k] = project_to_box(domain, proposal)
        f = evaluate(obj, chains[:k], counter)
        best_x, best_f = improve_incumbent(chains[:k], f, best_x, best_f)
        sweep_min = np.fmin.reduce(f, initial=np.inf)
        if np.isfinite(sweep_min):
            sweeps += 1
            if records is not None:
                records.append(IterationRecord(sweeps, float(sweep_min), best_f, n_chains))
        else:
            exhausted = True

    return RunResult(
        best_x=best_x,
        best_f=best_f,
        evals_used=counter.count,
        iterations_done=sweeps,
        diagnostics=records,
    )
