"""Box-constrained black-box objectives and evaluation accounting.

An :class:`Objective` is a name, a box and an evaluator, nothing more: the
known minima of the registry benchmarks live in the registry, which checks
them in :func:`~sbsopt.benchmarks.make_benchmark`.

Every optimizer in this package pays for its evaluations through
EvalCounter.charge, one per row of a scored block, offered to the
incumbent; the :class:`EvalCounter` passed along is the run's ledger and,
once the run ends, its result: the single source of truth for how many
scalar function evaluations it consumed, the best point they scored (the
run's answer), how many iterations it ran and, when the run keeps them,
its iteration records and trajectory log.

:func:`block_values` scores a block, one point per row, and pays for
nothing: off-budget values come from it. :func:`evaluate` is block_values
then charge; :func:`fd_gradient` evaluates its :func:`fd_probes` and takes
their :func:`fd_difference`. Both count one evaluation per point, of one
point or a block. An evaluator whose ``vectorized`` attribute is true (the
registry benchmarks) scores a whole block in one call; any other callable
is called once per row, in row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import NonFiniteValue, OutOfDomain

if TYPE_CHECKING:
    from .trajectory import TrajectoryLog

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
            ((x >= self.lower) & (x <= self.upper)).all()
        )

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass
class EvalCounter:
    """The ledger of a run, and its result: evals_used is the scalar
    objective evaluations it made, one per point scored, (best_x, best_f)
    its incumbent and answer, iterations_done and diagnostics (None unless
    the run keeps records) what optimizers.base.log_iteration counts and
    appends, and trajectory the log of an SBS run that keeps one.

    charge pays for a scored block and records it. record keeps the
    incumbent by one rule: the first row of a block with the lowest value
    replaces it when strictly better, NaN never wins, and an empty block
    changes nothing. While no value is below inf, best_x is the first point
    recorded (None before any) and best_f is inf.
    """

    evals_used: int = 0
    best_x: np.ndarray | None = None
    best_f: float = math.inf
    iterations_done: int = 0
    diagnostics: list | None = None
    trajectory: TrajectoryLog | None = None

    def charge(self, points: np.ndarray, f: np.ndarray) -> None:
        """Pay one evaluation per row of points (M, d), scored f (M,); record them."""
        self.evals_used += len(points)
        self.record(points, f)

    def record(self, points: np.ndarray, f: np.ndarray) -> None:
        """Offer the rows of points (M, d), scored f (M,), to the incumbent."""
        if f.size:
            i = int(f.argmin())
            low = float(f[i])
            if math.isnan(low):  # argmin stops at the first NaN; look past them
                i = int(np.argmin(np.where(np.isnan(f), np.inf, f)))
                low = float(f[i])
            if low < self.best_f:
                self.best_x, self.best_f = points[i].copy(), low
            elif self.best_x is None:
                self.best_x = points[0].copy()


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
    (M, d) -> (M,), counting one evaluation per point and recording the
    scored points on counter.

    Raises OutOfDomain, before counting anything, if any coordinate
    violates the (closed) bounds; callers are expected to project first.
    """
    x = np.asarray(x, dtype=float)
    block = x[None] if x.ndim == 1 else x
    f = block_values(obj, block)
    counter.charge(block, f)
    return float(f[0]) if x.ndim == 1 else f


def block_values(obj: Objective, block: np.ndarray) -> np.ndarray:
    """f at each row of a block (M, d), neither counted nor recorded: what
    evaluate scores, for a caller that charges the rows itself
    (EvalCounter.charge) or scores them off budget. OutOfDomain as in
    evaluate."""
    lower, upper = obj.domain.lower, obj.domain.upper
    if not (block.ndim == 2 and block.shape[1] == lower.size
            and ((block >= lower) & (block <= upper)).all()):
        row = next((row for row in np.atleast_2d(block) if not obj.domain.contains(row)),
                   block)
        raise OutOfDomain(f"{obj.name}: point {row} outside {lower}..{upper}")
    if getattr(obj.evaluator, "vectorized", False):
        return obj.evaluator(block)
    return np.array([float(obj.evaluator(row)) for row in block], dtype=float)


def project_to_box(domain: BoxDomain, x: Point) -> Point:
    """Componentwise clamp of x to the box. Identity on interior points."""
    return np.asarray(x, dtype=float).clip(domain.lower, domain.upper)


def fd_gradient(
    obj: Objective,
    x: Point,
    counter: EvalCounter,
    h: float | None = None,
) -> np.ndarray:
    """Central-difference gradient estimate, 2d evaluations per point.

    x is one point (d,) or N points (N, d); the gradient has the same shape.
    All 2dN probes (fd_probes) go to :func:`evaluate` as one block, and
    fd_difference turns their values into the gradient.
    """
    x = np.asarray(x, dtype=float)
    points = np.atleast_2d(x)
    probes, gaps = fd_probes(obj.domain, points, h)
    grad = fd_difference(obj, points, evaluate(obj, probes, counter), gaps)
    return grad.reshape(x.shape)


def fd_probes(domain: BoxDomain, points: np.ndarray,
              h: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The 2dN probes of fd_gradient at the points (N, d), ordered by point,
    then coordinate, then + before -, and the separations (N, d) of each
    coordinate's two probes.

    With h=None the step is 1e-6 * max(1, |x_i|) per coordinate. Probe points
    are clamped to the box; the difference is divided by the actual probe
    separation, so the estimate is one-sided (bias O(h)) only on the boundary.
    """
    n, d = points.shape
    step = h if h is not None else 1e-6 * np.maximum(1.0, np.abs(points))
    up = np.minimum(points + step, domain.upper)
    down = np.maximum(points - step, domain.lower)
    # rows 2dk + 2i and 2dk + 2i + 1 are point k with coordinate i moved up
    # and down: in the (n, 2d^2) view, entries i(2d + 1) and d + i(2d + 1)
    probes = points.repeat(2 * d, axis=0)
    flat = probes.reshape(n, 2 * d * d)
    flat[:, ::2 * d + 1] = up
    flat[:, d::2 * d + 1] = down
    return probes, up - down


def fd_difference(obj: Objective, points: np.ndarray, f: np.ndarray,
                  gaps: np.ndarray) -> np.ndarray:
    """The central differences (N, d) at the points (N, d) from the values f
    of their fd_probes and its separations; NonFiniteValue names the first
    point with a non-finite probe value."""
    n, d = points.shape
    f = f.reshape(n, d, 2)
    if not np.isfinite(f).all():
        k = np.flatnonzero(~np.isfinite(f).all(axis=(1, 2)))[0]
        raise NonFiniteValue(f"{obj.name}: non-finite probe near {points[k]}")
    return (f[:, :, 0] - f[:, :, 1]) / gaps


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
