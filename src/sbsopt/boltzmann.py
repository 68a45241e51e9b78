"""Boltzmann target: score function, RBF kernel, grid densities, and the KSD
diagnostic.

The target density is m(x) = exp(-kappa f(x)) / Z on the box domain. Its
normalizer cancels in the log-gradient, so the score is just -kappa grad f,
which is all SVGD ever needs. The grid utilities exist to verify the
concentration properties of the density numerically in low dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateGrid
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


def kernel_tiles(sigma: float, positions: np.ndarray) -> tuple[list, list]:
    """The particles cut into tiles, and the pairs of tiles whose kernel
    block can hold a nonzero entry.

    Returns (tiles, pairs). The particles are sorted on coordinate 0 and cut
    into tiles of TILE, each an index array in ascending order; pairs lists
    (a, b), a < b, for each two tiles whose coordinate-0 ranges come within
    WINDOW sigma. Every block left out is exactly zero: k underflows to 0.0
    once ||x - y|| exceeds about 38.6 sigma, and the gap between two tiles'
    ranges is a lower bound on every distance across them. With at most
    TILE particles the one tile is slice(0, N), so the kernel is computed on
    views, as one dense N x N block.
    """
    n = positions.shape[0]
    if n <= TILE:
        return [slice(0, n)], []
    order = np.argsort(positions[:, 0], kind="stable")
    x0 = positions[order, 0]
    starts = range(0, n, TILE)
    tiles = [np.sort(order[s:s + TILE]) for s in starts]
    lows = [x0[s] for s in starts]
    highs = [x0[min(s + TILE, n) - 1] for s in starts]
    # below the normal range sigma**2 rounds coarsely and the cutoff moves,
    # so there every pair of tiles is kept
    reach = WINDOW * sigma if sigma**2 >= np.finfo(float).tiny else np.inf
    pairs = []
    for a, high in enumerate(highs):
        for b in range(a + 1, len(tiles)):
            if lows[b] - high > reach:  # the exact gap; later tiles lie further
                break
            pairs.append((a, b))
    return tiles, pairs


@dataclass(frozen=True)
class GridDensity:
    """Normalized density values on a 1-d or 2-d tensor grid."""

    grid_points: np.ndarray  # (n_points, d)
    weights: np.ndarray  # trapezoid quadrature weights, (n_points,)
    values: np.ndarray  # density values, (n_points,)


def _axis_weights(axis: np.ndarray) -> np.ndarray:
    # trapezoid weights for a sorted, possibly non-uniform axis
    w = np.zeros(axis.size)
    gaps = np.diff(axis)
    w[:-1] += gaps / 2.0
    w[1:] += gaps / 2.0
    return w


def density_on_grid(target: BoltzmannTarget, *axes: np.ndarray) -> GridDensity:
    """Trapezoid-normalized exp(-kappa f) on a tensor grid (d <= 2).

    Each axis must be strictly increasing with at least 2 points. The min of
    kappa*f is subtracted before exponentiating, so very large kappa cannot
    underflow the whole grid.
    """
    if not 1 <= len(axes) <= 2:
        raise DegenerateGrid("grids are supported in 1 or 2 dimensions only")
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    for a in axes:
        if a.ndim != 1 or a.size < 2:
            raise DegenerateGrid("each axis needs at least 2 points")
        if not (np.diff(a) > 0).all():
            raise DegenerateGrid("axes must be strictly increasing")

    if len(axes) == 1:
        points = axes[0][:, None]
        weights = _axis_weights(axes[0])
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.column_stack([xx.ravel(), yy.ravel()])
        weights = np.outer(_axis_weights(axes[0]), _axis_weights(axes[1])).ravel()

    f_vals = np.array([target.objective.evaluator(p) for p in points])
    neg_energy = -target.kappa * f_vals
    neg_energy -= neg_energy.max()  # subtract min of kappa*f
    unnorm = np.exp(neg_energy)
    z = float(np.sum(unnorm * weights))
    if not (np.isfinite(z) and z > 0):
        raise DegenerateGrid("density normalizer is zero or non-finite")
    return GridDensity(grid_points=points, weights=weights, values=unnorm / z)


def expectation_on_grid(density: GridDensity, g: Callable[[np.ndarray], float]) -> float:
    """Quadrature of g against the normalized grid density."""
    g_vals = np.array([g(p) for p in density.grid_points])
    return float(np.sum(g_vals * density.values * density.weights))


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
    """
    n, d = scores.shape
    sig2 = sigma**2
    s_rows = scores[rows]
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
    tiles, pairs = kernel_tiles(sigma, positions)
    total = 0.0
    for rows, cols in [(t, t) for t in tiles] + [(tiles[a], tiles[b]) for a, b in pairs]:
        others = None if rows is cols else positions[cols]
        parts = pairwise_kernel(sigma, positions[rows], others)
        total += ksd_from_parts(scores, rows, cols, *parts, sigma)
    return total
