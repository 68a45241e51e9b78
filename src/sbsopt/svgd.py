"""SVGD engine: the update direction as attraction plus repulsion, and
Adam stepping of the particles along it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boltzmann import BoltzmannTarget, score
from .errors import NonFiniteValue, ShapeMismatch
from .kernel import RbfKernel, pairwise_kernel
from .objective import EvalCounter, project_to_box

DEFAULT_STEP_SIZE = 0.03


@dataclass
class ParticleSet:
    """N particle positions, one row each, inside the ambient box."""

    positions: np.ndarray

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if self.positions.ndim != 2 or self.positions.shape[0] < 1:
            raise ValueError("positions must be a nonempty N x d matrix")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]


@dataclass
class AdamState:
    """Per-particle Adam moments; rows track the live particle set."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8

    @staticmethod
    def fresh(n: int, d: int) -> "AdamState":
        return AdamState(m=np.zeros((n, d)), v=np.zeros((n, d)))

    def keep(self, indices: np.ndarray) -> None:
        """Drop moment rows of filtered-out particles, in lockstep."""
        self.m = self.m[indices]
        self.v = self.v[indices]


def _forces(
    positions: np.ndarray,
    target: BoltzmannTarget,
    kernel: RbfKernel,
    counter: EvalCounter,
):
    """Attraction/repulsion decomposition plus the reusable kernel parts.

    attraction_i = (1/N) sum_j s(x_j) k(x_i, x_j)
    repulsion_i  = (1/N) sum_j k(x_i, x_j) (x_i - x_j) / sigma^2

    Their sum is the empirical SVGD direction
    phi*(x_i) = (1/N) sum_j [ s(x_j) k(x_i, x_j) + grad_{x_j} k(x_i, x_j) ].
    """
    n = positions.shape[0]
    scores = score(target, positions, counter)
    kmat, diff, sqdist = pairwise_kernel(kernel.sigma, positions)
    attraction = kmat @ scores / n
    repulsion = np.einsum("ij,ijd->id", kmat, diff) / kernel.sigma**2 / n
    return attraction, repulsion, scores, kmat, diff, sqdist


def adam_step(state: AdamState, direction: np.ndarray, lr: float) -> np.ndarray:
    """Advance Adam one step on an ascent direction; returns the displacement."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != state.m.shape:
        raise ShapeMismatch(
            f"direction shape {direction.shape} does not match state {state.m.shape}"
        )
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * direction
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * direction**2
    m_hat = state.m / (1.0 - state.beta1**state.t)
    v_hat = state.v / (1.0 - state.beta2**state.t)
    return lr * m_hat / (np.sqrt(v_hat) + state.eps_adam)


def _iterate_with_parts(
    particles: ParticleSet,
    target: BoltzmannTarget,
    kernel: RbfKernel,
    step_size: float,
    adam: AdamState,
    counter: EvalCounter,
):
    """One SVGD iteration: move along the Adam-preconditioned phi*, then
    project to the box. Also returns the kernel parts it computed.

    The run loop reuses scores and kernel matrices for discrepancy
    diagnostics, so the iteration exposes them instead of recomputing.
    """
    attraction, repulsion, scores, kmat, diff, sqdist = _forces(
        particles.positions, target, kernel, counter
    )
    phi = attraction + repulsion
    if not np.isfinite(phi).all():
        raise NonFiniteValue("the SVGD direction phi* has non-finite entries")
    displacement = adam_step(adam, phi, step_size)
    moved = project_to_box(target.objective.domain, particles.positions + displacement)
    return ParticleSet(moved), scores, kmat, diff, sqdist
