"""Boltzmann target: score function, tiled RBF kernel, a certificate of
which pairs of a tile can have a nonzero kernel value, and the KSD
diagnostic assembled from the parts of the SVGD direction.

The target density is m(x) = exp(-kappa f(x)) / Z on the box domain. Its
normalizer cancels in the log-gradient, so the score is just -kappa grad f,
which is all SVGD ever needs.

A kernel width lies in [SIGMA_MIN, SIGMA_MAX], where sigma^2 is a normal
double and (WINDOW sigma)^2 is finite, so the cutoffs need no special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import EvalCounter, Objective, fd_gradient

DEFAULT_KAPPA = 1e3
TILE = 256  # particles per kernel tile; a block holds TILE^2 (d + 2) floats
WINDOW = 40.0  # tile pairs whose coordinate-0 gap exceeds WINDOW sigma are skipped
PROOF_MIN = 32  # smaller tiles skip near_pairs: their block costs no more
SIGMA_MIN = 2.0**-511  # the smallest width whose square is a normal double
SIGMA_MAX = math.sqrt(np.finfo(float).max) / WINDOW  # (WINDOW sigma)^2 stays finite


@dataclass(frozen=True)
class BoltzmannTarget:
    """Objective plus inverse temperature; exposes the score -kappa grad f."""

    objective: Objective
    kappa: float = DEFAULT_KAPPA
    fd_step: float | None = None  # None: 1e-6 * max(1, |x_i|) per coordinate

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("kappa must be positive and finite")


def score(target: BoltzmannTarget, x: np.ndarray, counter: EvalCounter) -> np.ndarray:
    """grad log m(x) = -kappa * fd_gradient(f, x); costs 2d evaluations per point.

    x is one point (d,) or one point per row (N, d), scored in one block.
    """
    grad = fd_gradient(target.objective, x, counter, h=target.fd_step)
    return -target.kappa * grad


def check_sigma(sigma: float, name: str = "sigma") -> None:
    """Raise ValueError unless the kernel width sigma (named by name) lies
    in [SIGMA_MIN, SIGMA_MAX]. sigma 1e-150 is in it and switches the
    kernel off: two particles then interact only within 4e-149 of each
    other."""
    if not SIGMA_MIN <= sigma <= SIGMA_MAX:
        raise ValueError(f"{name} must be positive and finite, from 2^-511 to "
                         f"{SIGMA_MAX:.3g}, got {sigma!r}")


def pairwise_kernel(sigma: float, positions: np.ndarray, others: np.ndarray | None = None):
    """RBF kernel block, pairwise differences, and squared distances.

    k(x, y) = exp(-||x - y||^2 / (2 sigma^2)). Returns (K, diff, sqdist) with
    diff[i, j] = x_i - y_j over the rows x of positions and the rows y of
    others (positions again when None).
    """
    others = positions if others is None else others
    diff = positions[:, None, :] - others[None, :, :]
    sqdist = np.einsum("ijk,ijk->ij", diff, diff)
    kmat = np.exp(-sqdist / (2.0 * sigma**2))
    return kmat, diff, sqdist


def near_pairs(sigma: float, points: np.ndarray):
    """The ordered pairs (i, j), i != j, of points that one Gram product
    cannot prove more than WINDOW sigma apart, as two index arrays in
    row-major order, or None when it proves nothing.

    Every pair left out has k(x_i, x_j) exactly 0.0 in pairwise_kernel(sigma,
    points), so with no pair at all the block is exactly the identity. The
    bound on each squared distance is n_i + n_j - 2 G_ij - c (n_i + n_j),
    c = (d + 4) eps, from the computed squared norms n_i and Gram matrix
    G = points @ points.T. With unit roundoff u = eps / 2 and
    gamma_d = d u / (1 - d u), a dot product of length d summed in any
    order, with or without fused multiply-adds, is within
    gamma_d sum_k |x_ik x_jk| <= gamma_d (n_i + n_j) / 2 of its exact value
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1). So the
    computed n_i + n_j - 2 G_ij is within 2 gamma_d (n_i + n_j) of the
    exact squared distance (-2 G is computed as (-2 points) @ points.T, the
    same roundings), and the bound's own three roundings, the scaling by
    1 - c and two additions, add at most u (3 (n_i + n_j) + 4 |G_ij|) <=
    2.5 eps (n_i + n_j): together (d + 2.5) eps (n_i + n_j) to first order,
    and c leaves 1.5 eps (n_i + n_j) for the second-order terms while
    d < 10^7. Gradual underflow adds at most 4 d 2^-1074 to a distance,
    under 1e-18 d of (WINDOW sigma)^2 with sigma^2 normal. Each entry
    G_ij is a dot product of x_i and x_j, so either entry of a pair proves
    it, and a pair is listed in both orders only when neither does.

    A distance above (WINDOW sigma)^2 = 1600 sigma^2 leaves the exponent
    pairwise_kernel computes, rounded as it is, above 800 (1 - (d + 8) u),
    past the 745.13 beyond which exp rounds to 0.0; a finite point's own
    difference is exactly 0, so its diagonal entry is exp(-0) = 1. None
    when a squared norm is not finite: for a NaN or infinite coordinate, or
    one beyond about 1e154. A listed pair proves nothing either: its kernel
    value may still be 0.0.
    """
    d = points.shape[1]
    norms = np.einsum("ij,ij->i", points, points)
    if not np.isfinite(norms).all():
        return None
    norms *= 1.0 - (d + 4) * np.finfo(float).eps
    bound = (-2.0 * points) @ points.T
    bound += norms[:, None]
    bound += norms
    np.fill_diagonal(bound, np.inf)
    reach2 = (WINDOW * sigma) ** 2
    if bound.min() > reach2:  # the whole block is the identity
        none = np.empty(0, dtype=np.intp)
        return none, none
    near = ~(bound > reach2)  # a NaN bound proves nothing
    return np.nonzero(near & near.T)


def kernel_tiles(sigma: float, positions: np.ndarray) -> tuple[list, list, np.ndarray]:
    """The particles cut into tiles, the pairs of tiles whose kernel block
    can hold a nonzero entry, and the particles whose kernel row is e_i.

    Returns (tiles, pairs, lone). The particles are sorted on coordinate 0;
    lone, in ascending order, holds each one whose two neighbours in that
    order both lie more than WINDOW sigma away, so that k(x_i, x_j) is
    exactly 0.0 for every j != i. The rest are cut into tiles of TILE, each
    an index array in ascending order; pairs lists (a, b), a < b, for each
    two tiles whose coordinate-0 ranges come within WINDOW sigma. Every
    block left out is exactly zero: k underflows to 0.0 once ||x - y||
    exceeds about 38.6 sigma (sigma^2 is normal, see check_sigma), and a
    coordinate-0 gap is a lower bound on every distance across it. With at
    most TILE particles the one tile is slice(0, N) and lone is empty, so
    the kernel is computed on views, as one dense N x N block.
    """
    n = positions.shape[0]
    if n <= TILE:
        return [slice(0, n)], [], np.empty(0, dtype=np.intp)
    order = np.argsort(positions[:, 0], kind="stable")
    x0 = positions[order, 0]
    reach = WINDOW * sigma
    apart = np.diff(x0) > reach  # the exact gap; particles further out lie further
    alone = np.r_[True, apart] & np.r_[apart, True]
    lone = np.sort(order[alone])
    order, x0 = order[~alone], x0[~alone]
    starts = range(0, order.size, TILE)
    tiles = [np.sort(order[s:s + TILE]) for s in starts]
    lows = [x0[s] for s in starts]
    highs = [x0[min(s + TILE, order.size) - 1] for s in starts]
    pairs = []
    for a, high in enumerate(highs):
        for b in range(a + 1, len(tiles)):
            if lows[b] - high > reach:  # the exact gap; later tiles lie further
                break
            pairs.append((a, b))
    return tiles, pairs, lone


def ksd_from_parts(
    scores: np.ndarray,
    attraction: np.ndarray,
    repulsion: np.ndarray,
    trace: float,
) -> float:
    """The KSD V-statistic of the RBF Stein kernel, from the parts of the
    SVGD direction that svgd._forces returns.

    V = (1/N^2) sum_ij [ s_i.s_j k_ij + s_i.(x_i-x_j) k_ij / sigma^2
                         + s_j.(x_j-x_i) k_ij / sigma^2
                         + k_ij (d - ||x_i-x_j||^2 / sigma^2) / sigma^2 ]

    The first sum is (1/N) sum_i s_i.attraction_i, the two middle ones, each
    the other's mirror image, (2/N) sum_i s_i.repulsion_i, and the last is
    trace / N^2.
    """
    n = scores.shape[0]
    return float(np.einsum("id,id->", scores, attraction + 2.0 * repulsion) / n
                 + trace / n**2)
