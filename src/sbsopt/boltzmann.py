"""Boltzmann target: score function, RBF kernel, grid densities, and the KSD
diagnostic.

The target density is m(x) = exp(-kappa f(x)) / Z on the box domain. Its
normalizer cancels in the log-gradient, so the score is just -kappa grad f,
which is all SVGD ever needs. The grid utilities exist to verify the
concentration properties of the density numerically in low dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateGrid
from .objective import EvalCounter, Objective, fd_gradient

DEFAULT_KAPPA = 1e3


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


def pairwise_kernel(sigma: float, positions: np.ndarray):
    """RBF Gram matrix K, pairwise differences, and squared distances.

    k(x, y) = exp(-||x - y||^2 / (2 sigma^2)). Returns (K, diff, sqdist) with
    diff[i, j] = x_i - x_j. Shared by the SVGD update and the KSD diagnostic
    so both see identical floating-point values.
    """
    diff = positions[:, None, :] - positions[None, :, :]
    sqdist = np.einsum("ijk,ijk->ij", diff, diff)
    kmat = np.exp(-sqdist / (2.0 * sigma**2))
    return kmat, diff, sqdist


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
    kmat: np.ndarray,
    diff: np.ndarray,
    sqdist: np.ndarray,
    sigma: float,
) -> float:
    """KSD V-statistic from precomputed scores and kernel parts.

    V = (1/N^2) sum_ij [ s_i.s_j k_ij + s_i.(x_i-x_j) k_ij / sigma^2
                         + s_j.(x_j-x_i) k_ij / sigma^2
                         + k_ij (d/sigma^2 - ||x_i-x_j||^2 / sigma^4) ]
    """
    n, d = scores.shape
    sig2 = sigma**2
    term_ss = np.einsum("id,jd,ij->", scores, scores, kmat)
    # s_i . grad_{x_j} k = s_i . (x_i - x_j) k / sigma^2, plus its mirror
    s_dot_diff = np.einsum("id,ijd->ij", scores, diff)
    term_cross = 2.0 * np.sum(s_dot_diff * kmat) / sig2
    term_trace = np.sum(kmat * (d / sig2 - sqdist / sig2**2))
    return float((term_ss + term_cross + term_trace) / n**2)


def ksd(
    particles: np.ndarray,
    target: BoltzmannTarget,
    sigma: float,
    counter: EvalCounter,
) -> float:
    """Empirical KSD of the particle set against the Boltzmann target.

    Scores are computed once per particle (2d evaluations each). Nonnegative
    up to floating-point rounding because the Stein kernel is PSD.
    """
    positions = np.atleast_2d(np.asarray(particles, dtype=float))
    scores = score(target, positions, counter)
    kmat, diff, sqdist = pairwise_kernel(sigma, positions)
    return ksd_from_parts(scores, kmat, diff, sqdist, sigma)
