"""SVGD engine: the update direction as attraction plus repulsion, the KSD
assembled from the direction's parts, and Adam stepping of the particles
along the direction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boltzmann import (PROOF_MIN, BoltzmannTarget, check_sigma, kernel_tiles,
                        ksd_from_parts, near_pairs, pairwise_kernel, score)
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
    trace: bool = False,
):
    """The parts of the SVGD direction: (scores, attraction, repulsion,
    trace), with trace None unless asked for.

    attraction_i = (1/N) sum_j s(x_j) k(x_i, x_j)
    repulsion_i  = (1/N) sum_j k(x_i, x_j) (x_i - x_j) / sigma^2

    Their sum is the empirical SVGD direction
    phi*(x_i) = (1/N) sum_j [ s(x_j) k(x_i, x_j) + grad_{x_j} k(x_i, x_j) ].
    trace is T = sum_ij k(x_i, x_j) (d - ||x_i - x_j||^2 / sigma^2) / sigma^2,
    summed over the nonzero kernel values only: the one part of the KSD
    that the direction does not hold (see ksd_from_parts).

    The direction starts as the identity kernel gives it: attraction
    s(x_i) / N and repulsion +0.0 in every row, and T sigma^2 = N d from
    the diagonal. A particle in no tile of kernel_tiles keeps those rows,
    since its kernel row is e_i. Each tile that builds a block then
    overwrites its own rows and adds its off-diagonal Stein terms to T, and
    each pair of tiles adds its block into both of its sides.

    Each tile's path is fixed before any block is built, with sigma a width
    check_sigma accepts. A tile of at least PROOF_MIN particles first asks
    near_pairs which of its pairs one Gram product cannot prove apart. With
    none the tile is the identity and keeps the rows it starts with (in a
    10-d run at the default bandwidth, the one tile of 100 particles, on
    every iteration). With fewer near pairs, counted in both orders, than
    particles, only those pairs get differences, squared distances and
    kernel values: the tile's kernel is the identity with them scattered
    in, which is the dense block bit for bit, since every other entry is
    exactly 0.0; its pull sum_j k(x_i, x_j) (x_i - x_j) adds the pairs with
    np.add.at, row by row in j order, as the dense einsum adds the same
    products (zeros aside) when d > 1. In one dimension that einsum sums
    along j in its own order, so a 1-d tile makes the dense block, as does
    a tile with no proof, under PROOF_MIN, or with more near pairs
    (particles bunched together, where the dense block costs less), even
    an identity one: its rows give the identity's bits but for the sign of
    a zero attraction, which the repulsion's +0.0 clears from the direction
    and the KSD. Either way a tile adds its nonzero off-diagonal terms in
    row-major order, so T has the same bits whichever path a tile takes.
    """
    n, d = positions.shape
    scores = score(target, positions, counter)
    tiles, pairs = kernel_tiles(sigma, positions)
    attraction, repulsion = scores / n, np.zeros_like(scores)
    total = n * d  # T sigma^2

    def stein_sum(kvals, sqdist) -> float:
        # k (d - r^2 / sigma^2) where k is nonzero: a k of 0.0 adds nothing,
        # also where r^2 / sigma^2 overflows
        if not trace:
            return 0.0
        live = kvals != 0
        return np.sum(kvals[live] * (d - sqdist[live] / sigma**2))

    for tile in tiles:
        points = positions[tile]
        m = len(points)
        near = near_pairs(sigma, points) if m >= PROOF_MIN else None
        if near is not None and not near[0].size:
            continue
        if near is not None and near[0].size < m and d > 1:
            i, j = near
            diff = points[i] - points[j]
            sqdist = np.einsum("pk,pk->p", diff, diff)
            kvals = np.exp(-sqdist / (2.0 * sigma**2))
            kmat = np.eye(m)
            kmat[i, j] = kvals
            pull = np.zeros_like(points)
            np.add.at(pull, i, kvals[:, None] * diff)
        else:
            kmat, diff, sqdist = pairwise_kernel(sigma, points)
            pull = np.einsum("ij,ijd->id", kmat, diff)
            # off the diagonal, where a finite point's own k is exactly 1
            kvals = kmat - np.eye(m) if trace else None
        attraction[tile] = kmat @ scores[tile] / n
        repulsion[tile] = pull / sigma**2 / n
        total += stein_sum(kvals, sqdist)
    for a, b in pairs:
        rows, cols = tiles[a], tiles[b]
        kmat, diff, sqdist = pairwise_kernel(sigma, positions[rows], positions[cols])
        attraction[rows] += kmat @ scores[cols] / n
        attraction[cols] += kmat.T @ scores[rows] / n
        repulsion[rows] += np.einsum("ij,ijd->id", kmat, diff) / sigma**2 / n
        repulsion[cols] -= np.einsum("ij,ijd->jd", kmat, diff) / sigma**2 / n
        total += 2.0 * stein_sum(kmat, sqdist)
    return scores, attraction, repulsion, float(total) / sigma**2 if trace else None


def ksd(
    particles: np.ndarray,
    target: BoltzmannTarget,
    sigma: float,
    counter: EvalCounter,
) -> float:
    """Empirical KSD of the particle set against the Boltzmann target.

    Scores are computed once per particle (2d evaluations each). Nonnegative
    up to floating-point rounding because the Stein kernel is PSD. sigma
    must pass check_sigma (ValueError otherwise). It is ksd_from_parts
    of the direction's parts, as _forces makes them, so a run's KSD record
    equals this value of its entering state.
    """
    check_sigma(sigma)
    positions = np.atleast_2d(np.asarray(particles, dtype=float))
    return ksd_from_parts(*_forces(positions, target, sigma, counter, trace=True))


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
    trace: bool = False,
):
    """One SVGD iteration of the (N, d) positions: move along the
    Adam-preconditioned phi*, then project to the box. Returns the moved
    positions and the parts of _forces (with the KSD's trace when asked
    for), which the run loop reuses for the KSD of the entering state
    instead of recomputing them.
    """
    parts = _forces(positions, target, sigma, counter, trace)
    phi = parts[1] + parts[2]  # attraction + repulsion
    if not np.isfinite(phi).all():
        raise NonFiniteValue("the SVGD direction phi* has non-finite entries")
    displacement = adam_step(adam, phi, step_size)
    moved = project_to_box(target.objective.domain, positions + displacement)
    return moved, parts
