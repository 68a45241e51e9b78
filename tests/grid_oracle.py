"""Grid quadrature of the Boltzmann density, a test oracle.

It checks numerically, in one or two dimensions, how exp(-kappa f)
concentrates as kappa grows. The optimizers never need the normalized
density, only its score, so this lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from sbsopt import BoltzmannTarget


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

    Each axis must be strictly increasing with at least 2 points, else
    ValueError. The min of kappa*f is subtracted before exponentiating, so
    very large kappa cannot underflow the whole grid.
    """
    if not 1 <= len(axes) <= 2:
        raise ValueError("grids are supported in 1 or 2 dimensions only")
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    for a in axes:
        if a.ndim != 1 or a.size < 2:
            raise ValueError("each axis needs at least 2 points")
        if not (np.diff(a) > 0).all():
            raise ValueError("axes must be strictly increasing")

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
        raise ValueError("density normalizer is zero or non-finite")
    return GridDensity(grid_points=points, weights=weights, values=unnorm / z)


def expectation_on_grid(density: GridDensity, g: Callable[[np.ndarray], float]) -> float:
    """Quadrature of g against the normalized grid density."""
    g_vals = np.array([g(p) for p in density.grid_points])
    return float(np.sum(g_vals * density.values * density.weights))
