"""Consensus-based optimization baseline.

Particles drift toward a softmin-weighted consensus point and diffuse with
isotropic noise scaled by their distance to it, so agreement freezes the
dynamics. The consensus weights use a log-sum-exp so large alpha stays
finite.

Random streams: 0 initializes particles, 1 drives the diffusion noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BudgetTooSmall, NonFiniteValue
from ..objective import EvalCounter, Objective, evaluate, project_to_box, uniform_sample
from .base import check_number, log_iteration, population_iterations, split_streams


@dataclass(frozen=True)
class CboParams:
    """iterations None: as many as the budget covers after the first population."""

    n_particles: int = 100
    iterations: int | None = None
    alpha: float = 30.0
    lam_drift: float = 1.0
    sigma_noise: float = 0.7
    dt: float = 0.1

    def __post_init__(self):
        check_number(self, "n_particles", int, minimum=2)
        check_number(self, "iterations", int, optional=True, minimum=0)
        check_number(self, "alpha", float)
        check_number(self, "lam_drift", float)
        check_number(self, "sigma_noise", float)
        check_number(self, "dt", float, minimum=0.0)


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
    params: CboParams,
    budget: int,
    seed: int,
    *,
    collect_diagnostics: bool = False,
) -> EvalCounter:
    """Euler-Maruyama consensus dynamics for params.iterations iterations,
    stopping before any that would spend past budget.

    x_i <- x_i - lam_drift (x_i - v) dt + sigma_noise ||x_i - v|| sqrt(dt) xi_i,
    clamped to the box. Returns the run's EvalCounter: its incumbent, the
    best evaluated point, is the answer.
    """
    n_particles = params.n_particles
    if budget < n_particles:
        raise BudgetTooSmall(
            f"budget {budget} below the initial population ({n_particles} evaluations)"
        )
    iterations = min(population_iterations(budget, n_particles, params.iterations),
                     budget // n_particles - 1)
    counter = EvalCounter(diagnostics=[] if collect_diagnostics else None)
    domain = obj.domain
    d = domain.d

    rng_init, rng_noise = split_streams(seed, 2)
    positions = uniform_sample(domain, n_particles, rng_init)
    fitness = evaluate(obj, positions, counter)

    sqrt_dt = math.sqrt(params.dt)
    for _ in range(iterations):
        v = consensus_point(positions, fitness, params.alpha)
        gaps = positions - v
        noise = rng_noise.standard_normal((n_particles, d))
        scale = np.linalg.norm(gaps, axis=1, keepdims=True)
        positions = (positions - params.lam_drift * gaps * params.dt
                     + params.sigma_noise * scale * sqrt_dt * noise)
        positions = project_to_box(domain, positions)
        fitness = evaluate(obj, positions, counter)
        log_iteration(counter, fitness, n_particles)

    return counter
