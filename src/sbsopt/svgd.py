"""SVGD engine: the update direction as attraction plus repulsion, and
Adam stepping of the particles along it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boltzmann import BoltzmannTarget, kernel_tiles, pairwise_kernel, score
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
    visit=None,
):
    """Attraction/repulsion decomposition of the SVGD direction.

    attraction_i = (1/N) sum_j s(x_j) k(x_i, x_j)
    repulsion_i  = (1/N) sum_j k(x_i, x_j) (x_i - x_j) / sigma^2

    Their sum is the empirical SVGD direction
    phi*(x_i) = (1/N) sum_j [ s(x_j) k(x_i, x_j) + grad_{x_j} k(x_i, x_j) ].

    The sums run over the kernel blocks of kernel_tiles: each tile with
    itself first, then each pair of tiles, added into both of its sides. A
    lone particle's kernel row is e_i, so it gets attraction s(x_i) / N and
    repulsion exactly 0, the bits an identity row of a block gives, and no
    block is made for it. visit(scores, rows, cols, kmat, diff, sqdist),
    when given, sees every block once, as it is made; rows is cols on a
    tile with itself. The lone particles come last, as one block with rows
    is cols and kmat, diff and sqdist None (see ksd_from_parts).
    """
    n, d = positions.shape
    scores = score(target, positions, counter)
    tiles, pairs, lone = kernel_tiles(sigma, positions)
    attraction, repulsion = [], []  # per tile, rows in tile order
    for tile in tiles:
        kmat, diff, sqdist = pairwise_kernel(sigma, positions[tile])
        attraction.append(kmat @ scores[tile] / n)
        repulsion.append(np.einsum("ij,ijd->id", kmat, diff) / sigma**2 / n)
        if visit is not None:
            visit(scores, tile, tile, kmat, diff, sqdist)
    for a, b in pairs:
        rows, cols = tiles[a], tiles[b]
        kmat, diff, sqdist = pairwise_kernel(sigma, positions[rows], positions[cols])
        attraction[a] += kmat @ scores[cols] / n
        attraction[b] += kmat.T @ scores[rows] / n
        repulsion[a] += np.einsum("ij,ijd->id", kmat, diff) / sigma**2 / n
        repulsion[b] -= np.einsum("ij,ijd->jd", kmat, diff) / sigma**2 / n
        if visit is not None:
            visit(scores, rows, cols, kmat, diff, sqdist)
    if lone.size:
        tiles = tiles + [lone]
        attraction.append(scores[lone] / n)
        repulsion.append(np.zeros((lone.size, d)))
        if visit is not None:
            visit(scores, lone, lone, None, None, None)
    return _untile(tiles, attraction), _untile(tiles, repulsion)


def _untile(tiles: list, parts: list) -> np.ndarray:
    """Per-tile rows put back in particle order."""
    if len(parts) == 1:  # one tile, or the lone set, holds every particle in order
        return parts[0]
    out = np.empty((sum(len(t) for t in tiles), parts[0].shape[1]))
    out[np.concatenate(tiles)] = np.concatenate(parts)
    return out


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
    visit=None,
):
    """One SVGD iteration of the (N, d) positions: move along the
    Adam-preconditioned phi*, then project to the box. Returns the moved
    positions.

    The run loop reuses the scores and kernel blocks, through visit (see
    _forces), for discrepancy diagnostics instead of recomputing them.
    """
    attraction, repulsion = _forces(positions, target, sigma, counter, visit)
    phi = attraction + repulsion
    if not np.isfinite(phi).all():
        raise NonFiniteValue("the SVGD direction phi* has non-finite entries")
    displacement = adam_step(adam, phi, step_size)
    moved = project_to_box(target.objective.domain, positions + displacement)
    return moved
