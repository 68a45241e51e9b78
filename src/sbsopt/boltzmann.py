"""Boltzmann target: score function, tiled RBF kernel, and the KSD
diagnostic.

The target density is m(x) = exp(-kappa f(x)) / Z on the box domain. Its
normalizer cancels in the log-gradient, so the score is just -kappa grad f,
which is all SVGD ever needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import EvalCounter, Objective, fd_gradient

DEFAULT_KAPPA = 1e3
TILE = 256  # particles per kernel tile; a block holds TILE^2 (d + 2) floats
WINDOW = 40.0  # tile pairs whose coordinate-0 gap exceeds WINDOW sigma are skipped


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
    """Raise ValueError unless the kernel width is positive and finite."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"{name} must be positive and finite, got {sigma!r}")


def pairwise_kernel(sigma: float, positions: np.ndarray, others: np.ndarray | None = None):
    """RBF kernel block, pairwise differences, and squared distances.

    k(x, y) = exp(-||x - y||^2 / (2 sigma^2)). Returns (K, diff, sqdist) with
    diff[i, j] = x_i - y_j over the rows x of positions and the rows y of
    others (positions again when None). Shared by the SVGD update and the
    KSD diagnostic so both see identical floating-point values.
    """
    others = positions if others is None else others
    diff = positions[:, None, :] - others[None, :, :]
    sqdist = np.einsum("ijk,ijk->ij", diff, diff)
    kmat = np.exp(-sqdist / (2.0 * sigma**2))
    return kmat, diff, sqdist


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
    exceeds about 38.6 sigma, and a coordinate-0 gap is a lower bound on
    every distance across it. With at most TILE particles the one tile is
    slice(0, N) and lone is empty, so the kernel is computed on views, as
    one dense N x N block.
    """
    n = positions.shape[0]
    if n <= TILE:
        return [slice(0, n)], [], np.empty(0, dtype=np.intp)
    order = np.argsort(positions[:, 0], kind="stable")
    x0 = positions[order, 0]
    # below the normal range sigma**2 rounds coarsely and the cutoff moves,
    # so there no particle is lone and every pair of tiles is kept
    reach = WINDOW * sigma if sigma**2 >= np.finfo(float).tiny else np.inf
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
    rows,
    cols,
    kmat: np.ndarray,
    diff: np.ndarray,
    sqdist: np.ndarray,
    sigma: float,
) -> float:
    """One kernel block's share of the KSD V-statistic, from the scores of
    all N particles and the parts of the block of tiles rows and cols (see
    kernel_tiles).

    V = (1/N^2) sum_ij [ s_i.s_j k_ij + s_i.(x_i-x_j) k_ij / sigma^2
                         + s_j.(x_j-x_i) k_ij / sigma^2
                         + k_ij (d/sigma^2 - ||x_i-x_j||^2 / sigma^4) ]

    A diagonal block (rows is cols) holds each of its pairs in both orders;
    a cross block stands for itself and its mirror image, so counts twice.
    The lone particles come as a diagonal block whose kmat, diff and sqdist
    are None: their block is the identity, so each adds
    (s_i.s_i + d/sigma^2) / N^2.
    """
    n, d = scores.shape
    sig2 = sigma**2
    s_rows = scores[rows]
    if kmat is None:
        term_ss = np.einsum("id,id->", s_rows, s_rows)
        return float((term_ss + len(s_rows) * d / sig2) / n**2)
    s_cols = s_rows if rows is cols else scores[cols]
    weight = 1.0 if rows is cols else 2.0
    term_ss = np.einsum("id,jd,ij->", s_rows, s_cols, kmat)
    # s_i . grad_{x_j} k = s_i . (x_i - x_j) k / sigma^2, plus its mirror
    s_dot_diff = np.einsum("id,ijd->ij", s_rows, diff)
    if rows is not cols:
        s_dot_diff -= np.einsum("jd,ijd->ij", s_cols, diff)
    term_cross = 2.0 * np.sum(s_dot_diff * kmat) / sig2
    term_trace = np.sum(kmat * (d / sig2 - sqdist / sig2**2))
    return float((weight * term_ss + term_cross + weight * term_trace) / n**2)


def ksd(
    particles: np.ndarray,
    target: BoltzmannTarget,
    sigma: float,
    counter: EvalCounter,
) -> float:
    """Empirical KSD of the particle set against the Boltzmann target.

    Scores are computed once per particle (2d evaluations each). Nonnegative
    up to floating-point rounding because the Stein kernel is PSD. sigma
    must be positive and finite (ValueError otherwise).
    """
    check_sigma(sigma)
    positions = np.atleast_2d(np.asarray(particles, dtype=float))
    scores = score(target, positions, counter)
    tiles, pairs, lone = kernel_tiles(sigma, positions)
    total = 0.0
    for rows, cols in [(t, t) for t in tiles] + [(tiles[a], tiles[b]) for a, b in pairs]:
        others = None if rows is cols else positions[cols]
        parts = pairwise_kernel(sigma, positions[rows], others)
        total += ksd_from_parts(scores, rows, cols, *parts, sigma)
    if lone.size:  # last, in the order of svgd._forces' visits
        total += ksd_from_parts(scores, lone, lone, None, None, None, sigma)
    return total
