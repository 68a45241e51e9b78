"""Box-constrained black-box objectives and evaluation accounting.

An :class:`Objective` is a name, a box and an evaluator, nothing more: the
known minima of the registry benchmarks live in the registry, which checks
them in :func:`~sbsopt.benchmarks.make_benchmark`.

Every optimizer in this package spends its budget through :func:`evaluate`
and :func:`fd_gradient`; the :class:`EvalCounter` passed along is the single
source of truth for how many scalar function evaluations a run consumed.

Both take one point or a block of points, one per row, and count one
evaluation per point either way. An evaluator whose ``vectorized``
attribute is true (the registry benchmarks) scores a whole block in one
call; any other callable is called once per row, in row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteValue, OutOfDomain

Point = np.ndarray
Evaluator = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box [lower, upper] in R^d with finite bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or upper.shape != lower.shape or lower.size == 0:
            raise ValueError("bounds must be 1-d vectors of equal positive length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")
        if not (lower < upper).all():
            raise ValueError("lower bound must be strictly below upper bound")

    @property
    def d(self) -> int:
        return self.lower.size

    def contains(self, x: np.ndarray) -> bool:
        """True when x is one point (d,) or a block (M, d) of points, all in the box."""
        x = np.asarray(x, dtype=float)
        return x.ndim in (1, 2) and x.shape[-1:] == self.lower.shape and bool(
            (x >= self.lower).all() and (x <= self.upper).all()
        )

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass
class EvalCounter:
    """Counts scalar objective evaluations, one per evaluator call."""

    count: int = 0

    def tick(self, n: int = 1) -> None:
        self.count += n


@dataclass(frozen=True)
class Objective:
    """A named scalar function on a box domain. The evaluator must be pure."""

    name: str
    domain: BoxDomain
    evaluator: Evaluator = field(repr=False)

    @property
    def d(self) -> int:
        return self.domain.d


def evaluate(obj: Objective, x: Point, counter: EvalCounter) -> float | np.ndarray:
    """Evaluate f at a point (d,) -> float, or at each row of a block
    (M, d) -> (M,), counting one evaluation per point.

    Raises OutOfDomain, before counting anything, if any coordinate
    violates the (closed) bounds; callers are expected to project first.
    """
    x = np.asarray(x, dtype=float)
    if not obj.domain.contains(x):
        raise OutOfDomain(f"{obj.name}: point {_first_outside(obj.domain, x)} "
                          f"outside {obj.domain.lower}..{obj.domain.upper}")
    if x.ndim == 1:
        counter.tick()
        return float(obj.evaluator(x))
    counter.tick(len(x))
    if getattr(obj.evaluator, "vectorized", False):
        return obj.evaluator(x)
    return np.array([float(obj.evaluator(row)) for row in x], dtype=float)


def _first_outside(domain: BoxDomain, x: np.ndarray) -> np.ndarray:
    # the offending row of a block, for the error message
    if x.ndim == 2:
        return next((row for row in x if not domain.contains(row)), x)
    return x


def project_to_box(domain: BoxDomain, x: Point) -> Point:
    """Componentwise clamp of x to the box. Identity on interior points."""
    return np.clip(np.asarray(x, dtype=float), domain.lower, domain.upper)


def fd_gradient(
    obj: Objective,
    x: Point,
    counter: EvalCounter,
    h: float | None = None,
) -> np.ndarray:
    """Central-difference gradient estimate, 2d evaluations per point.

    x is one point (d,) or N points (N, d); the gradient has the same shape.
    All 2dN probes go to :func:`evaluate` as one block, ordered by point,
    then coordinate, then + before -.

    With h=None the step is 1e-6 * max(1, |x_i|) per coordinate. Probe points
    are clamped to the box; the difference is divided by the actual probe
    separation, so the estimate is one-sided (bias O(h)) only on the boundary.
    """
    x = np.asarray(x, dtype=float)
    points = np.atleast_2d(x)
    n, d = points.shape
    step = h if h is not None else 1e-6 * np.maximum(1.0, np.abs(points))
    up = np.minimum(points + step, obj.domain.upper)
    down = np.maximum(points - step, obj.domain.lower)
    coord = np.arange(d)
    # probes[k, i, 0] is point k with coordinate i moved up, probes[k, i, 1] down
    probes = np.repeat(points[:, None, None, :], d, axis=1).repeat(2, axis=2)
    probes[:, coord, 0, coord] = up
    probes[:, coord, 1, coord] = down
    f = evaluate(obj, probes.reshape(-1, d), counter).reshape(n, d, 2)
    if not np.isfinite(f).all():
        k = np.flatnonzero(~np.isfinite(f).all(axis=(1, 2)))[0]
        raise NonFiniteValue(f"{obj.name}: non-finite probe near {points[k]}")
    grad = (f[:, :, 0] - f[:, :, 1]) / (up - down)
    return grad.reshape(x.shape)


def uniform_sample(domain: BoxDomain, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform over the box, one row per point."""
    return rng.uniform(domain.lower, domain.upper, size=(n, domain.d))


def make_objective(
    name: str,
    lower: Sequence[float],
    upper: Sequence[float],
    evaluator: Evaluator,
) -> Objective:
    """An Objective for a user callable on the box [lower, upper]."""
    domain = BoxDomain(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
    return Objective(name=name, domain=domain, evaluator=evaluator)
