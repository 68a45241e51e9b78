"""SVGD engine: the update direction as attraction plus repulsion, the KSD
over the same kernel blocks, and Adam stepping of the particles along the
direction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boltzmann import (PROOF_MIN, BoltzmannTarget, check_sigma, is_identity,
                        kernel_tiles, ksd_from_parts, near_pairs, pairwise_kernel, score)
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
    block is made for it. A tile whose block with itself is exactly the
    identity gets the same treatment, with no kernel products.

    A tile of at least PROOF_MIN particles first asks near_pairs which of
    its pairs one Gram product cannot prove apart. With none the tile is
    the identity and makes no block (in a 10-d run at the default
    bandwidth, the one tile of 100 particles, on every iteration). With
    fewer near pairs, counted in both orders, than particles, and no
    visitor, only those pairs get differences, squared distances and
    kernel values: the tile's kernel is the identity with them scattered
    in, which is the dense block bit for bit, since every other entry is
    exactly 0.0; its repulsion adds k(x_i, x_j) (x_i - x_j) over them with
    np.add.at, row by row in j order, as the dense einsum adds the same
    products (zeros aside) when d > 1. In one dimension that einsum sums
    along j in its own order, so a 1-d tile makes the dense block, as does
    a tile with no proof, under PROOF_MIN, under a visitor, or with more
    near pairs (particles bunched together, where the dense block costs
    less), and is_identity catches an identity one.
    visit(scores, rows, cols, kmat, diff, sqdist), when given, sees every
    block once, as it is made; rows is cols on a tile with itself, and
    kmat, diff and sqdist are None on an identity tile. The lone particles
    come last, as one such block.
    """
    n = positions.shape[0]
    scores = score(target, positions, counter)
    tiles, pairs, lone = kernel_tiles(sigma, positions)
    attraction, repulsion = np.empty_like(scores), np.empty_like(scores)

    def identity_rows(rows) -> None:
        attraction[rows] = scores[rows] / n
        repulsion[rows] = 0.0
        if visit is not None:
            visit(scores, rows, rows, None, None, None)

    for tile in tiles:
        points = positions[tile]
        near = near_pairs(sigma, points) if len(points) >= PROOF_MIN else None
        if near is not None and not near[0].size:
            identity_rows(tile)
            continue
        few = near is not None and near[0].size < len(points)
        if few and visit is None and points.shape[1] > 1:
            i, j = near
            diff = points[i] - points[j]
            kvals = np.exp(-np.einsum("pk,pk->p", diff, diff) / (2.0 * sigma**2))
            kmat = np.eye(len(points))
            kmat[i, j] = kvals
            pull = np.zeros_like(points)
            np.add.at(pull, i, kvals[:, None] * diff)
            attraction[tile] = kmat @ scores[tile] / n
            repulsion[tile] = pull / sigma**2 / n
            continue
        kmat, diff, sqdist = pairwise_kernel(sigma, points)
        if is_identity(kmat):
            identity_rows(tile)
            continue
        attraction[tile] = kmat @ scores[tile] / n
        repulsion[tile] = np.einsum("ij,ijd->id", kmat, diff) / sigma**2 / n
        if visit is not None:
            visit(scores, tile, tile, kmat, diff, sqdist)
    for a, b in pairs:
        rows, cols = tiles[a], tiles[b]
        kmat, diff, sqdist = pairwise_kernel(sigma, positions[rows], positions[cols])
        attraction[rows] += kmat @ scores[cols] / n
        attraction[cols] += kmat.T @ scores[rows] / n
        repulsion[rows] += np.einsum("ij,ijd->id", kmat, diff) / sigma**2 / n
        repulsion[cols] -= np.einsum("ij,ijd->jd", kmat, diff) / sigma**2 / n
        if visit is not None:
            visit(scores, rows, cols, kmat, diff, sqdist)
    if lone.size:
        identity_rows(lone)
    return attraction, repulsion


def ksd(
    particles: np.ndarray,
    target: BoltzmannTarget,
    sigma: float,
    counter: EvalCounter,
) -> float:
    """Empirical KSD of the particle set against the Boltzmann target.

    Scores are computed once per particle (2d evaluations each). Nonnegative
    up to floating-point rounding because the Stein kernel is PSD. sigma
    must be positive and finite (ValueError otherwise). The shares of
    ksd_from_parts are summed over the blocks _forces visits, in its order,
    so a run's KSD record equals this value of its entering state.
    """
    check_sigma(sigma)
    positions = np.atleast_2d(np.asarray(particles, dtype=float))
    shares: list[float] = []
    _forces(positions, target, sigma, counter,
            lambda *block: shares.append(ksd_from_parts(*block, sigma)))
    return sum(shares)


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
    # lr * m_hat / (sqrt(v_hat) + eps), in place on the two fresh arrays
    denom = np.sqrt(v_hat, out=v_hat)
    denom += ADAM_EPS
    m_hat *= lr
    m_hat /= denom
    return m_hat


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
