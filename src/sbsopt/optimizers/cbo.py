"""Consensus-based optimization baseline.

Particles drift toward a softmin-weighted consensus point and diffuse with
isotropic noise scaled by their distance to it, so agreement freezes the
dynamics. The consensus weights use a log-sum-exp so large alpha stays
finite.

Random streams: 0 initializes particles, 1 drives the diffusion noise.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BudgetTooSmall, ConfigError, NonFiniteValue
from ..objective import EvalCounter, Objective, evaluate, project_to_box, uniform_sample
from .base import IterationRecord, RunResult, improve_incumbent, split_streams


def consensus_point(positions: np.ndarray, f_values: np.ndarray, alpha: float) -> np.ndarray:
    """Softmin-weighted mean of the particles: sum_i x_i e^{-alpha f_i} / Z.

    A NaN value gets zero weight; NonFiniteValue when every value is NaN.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    f_values = np.asarray(f_values, dtype=float)
    nan = np.isnan(f_values)
    if nan.all():
        raise NonFiniteValue("every consensus value is NaN")
    log_w = np.where(nan, -np.inf, -alpha * f_values)
    log_w = log_w - log_w.max()
    weights = np.exp(log_w)
    return weights @ positions / weights.sum()


def cbo_run(
    obj: Objective,
    n_particles: int,
    iterations: int,
    seed: int,
    alpha: float = 30.0,
    lam_drift: float = 1.0,
    sigma_noise: float = 0.7,
    dt: float = 0.1,
    *,
    budget: int | None = None,
    counter: EvalCounter | None = None,
    collect_diagnostics: bool = False,
) -> RunResult:
    """Euler-Maruyama consensus dynamics under an optional evaluation budget.

    x_i <- x_i - lam_drift (x_i - v) dt + sigma_noise ||x_i - v|| sqrt(dt) xi_i,
    clamped to the box; best evaluated point is returned.
    """
    if n_particles < 2:
        raise ConfigError("CBO needs at least 2 particles", field="n_particles")
    if iterations < 0:
        raise ConfigError("iterations must be nonnegative", field="iterations")
    counter = counter if counter is not None else EvalCounter()
    if budget is not None and budget - counter.count < n_particles:
        raise BudgetTooSmall(
            f"budget {budget} below the initial population ({n_particles} evaluations)"
        )
    domain = obj.domain
    d = domain.d

    rng_init, rng_noise = split_streams(seed, 2)
    positions = uniform_sample(domain, n_particles, rng_init)
    fitness = evaluate(obj, positions, counter)
    best_x, best_f = improve_incumbent(positions, fitness, positions[0].copy(), np.inf)

    records: list[IterationRecord] | None = [] if collect_diagnostics else None
    done = 0
    sqrt_dt = math.sqrt(dt)
    for t in range(1, iterations + 1):
        if budget is not None and counter.count + n_particles > budget:
            break
        v = consensus_point(positions, fitness, alpha)
        gaps = positions - v
        noise = rng_noise.standard_normal((n_particles, d))
        scale = np.linalg.norm(gaps, axis=1, keepdims=True)
        positions = positions - lam_drift * gaps * dt + sigma_noise * scale * sqrt_dt * noise
        positions = project_to_box(domain, positions)
        fitness = evaluate(obj, positions, counter)
        done = t

        best_x, best_f = improve_incumbent(positions, fitness, best_x, best_f)
        if records is not None:
            records.append(
                IterationRecord(t, float(np.fmin.reduce(fitness)), best_f, n_particles)
            )

    return RunResult(
        best_x=best_x,
        best_f=best_f,
        evals_used=counter.count,
        iterations_done=done,
        diagnostics=records,
    )
