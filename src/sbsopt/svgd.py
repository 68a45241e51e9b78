"""SVGD engine: the update direction as attraction plus repulsion, and
Adam stepping of the particles along it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boltzmann import BoltzmannTarget, pairwise_kernel, score
from .errors import NonFiniteValue, ShapeMismatch
from .objective import EvalCounter, project_to_box

DEFAULT_STEP_SIZE = 0.03
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-particle Adam moments; rows track the live particle set."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

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
    sigma: float,
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
    kmat, diff, sqdist = pairwise_kernel(sigma, positions)
    attraction = kmat @ scores / n
    repulsion = np.einsum("ij,ijd->id", kmat, diff) / sigma**2 / n
    return attraction, repulsion, scores, kmat, diff, sqdist


def adam_step(state: AdamState, direction: np.ndarray, lr: float) -> np.ndarray:
    """Advance Adam one step on an ascent direction; returns the displacement."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != state.m.shape:
        raise ShapeMismatch(
            f"direction shape {direction.shape} does not match state {state.m.shape}"
        )
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * direction
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * direction**2
    m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
    return lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _iterate_with_parts(
    positions: np.ndarray,
    target: BoltzmannTarget,
    sigma: float,
    step_size: float,
    adam: AdamState,
    counter: EvalCounter,
):
    """One SVGD iteration of the (N, d) positions: move along the
    Adam-preconditioned phi*, then project to the box. Returns the moved
    positions and the kernel parts it computed.

    The run loop reuses scores and kernel matrices for discrepancy
    diagnostics, so the iteration exposes them instead of recomputing.
    """
    attraction, repulsion, scores, kmat, diff, sqdist = _forces(
        positions, target, sigma, counter
    )
    phi = attraction + repulsion
    if not np.isfinite(phi).all():
        raise NonFiniteValue("the SVGD direction phi* has non-finite entries")
    displacement = adam_step(adam, phi, step_size)
    moved = project_to_box(target.objective.domain, positions + displacement)
    return moved, scores, kmat, diff, sqdist
