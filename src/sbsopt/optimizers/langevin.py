"""Unadjusted Langevin baseline on the Boltzmann log-density.

Each chain follows x <- project(x - eta kappa grad f(x) + sqrt(2 eta) xi)
with finite-difference gradients, so one chain step costs 2d probe
evaluations plus 1 to score the new state. Each sweep steps every chain
once, all in one block; the last sweep steps only as many chains, in chain
order, as the budget still covers. The answer is the best point scored,
finite-difference probes included.

Random streams: 0 initializes the chains, 1 drives the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..boltzmann import DEFAULT_KAPPA
from ..errors import BudgetTooSmall
from ..objective import (
    EvalCounter,
    Objective,
    evaluate,
    fd_gradient,
    project_to_box,
    uniform_sample,
)
from .base import check_number, log_iteration, split_streams


@dataclass(frozen=True)
class LangevinParams:
    n_chains: int = 10
    kappa: float = DEFAULT_KAPPA
    eta: float = 1e-5

    def __post_init__(self):
        check_number(self, "n_chains", int, minimum=1)
        check_number(self, "kappa", float, positive=True)
        check_number(self, "eta", float, minimum=0.0)


def langevin_run(
    obj: Objective,
    params: LangevinParams,
    budget: int,
    seed: int,
    *,
    collect_diagnostics: bool = False,
) -> EvalCounter:
    """Run parallel Langevin chains until the budget is exhausted; returns
    the run's EvalCounter."""
    n_chains, kappa, eta = params.n_chains, params.kappa, params.eta
    domain = obj.domain
    d = domain.d
    if budget < 2 * d:
        raise BudgetTooSmall(f"budget {budget} below one gradient step ({2 * d} evaluations)")

    counter = EvalCounter(diagnostics=[] if collect_diagnostics else None)
    rng_init, rng_noise = split_streams(seed, 2)
    chains = uniform_sample(domain, n_chains, rng_init)
    evaluate(obj, chains[:budget], counter)

    noise_scale = math.sqrt(2.0 * eta)
    step_cost = 2 * d + 1
    exhausted = False
    while not exhausted:
        # the chains the budget can still step this sweep, as one block
        k = min(n_chains, (budget - counter.evals_used) // step_cost)
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
        # a sweep with no finite value ends the run and is not counted
        if not np.isfinite(np.fmin.reduce(f)):
            break
        log_iteration(counter, f, n_chains)

    return counter
