"""Registry of the 13 classical benchmark functions.

Definitions follow the standard virtual-library forms. The reference
minima are the published values, re-refined to full double precision so
that every listed minimizer evaluates to f_star within 1e-9; make_benchmark
checks this for the dimension it builds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnsupportedDimension
from .objective import BoxDomain, Evaluator, Objective

_PI = math.pi


def _vectorized(fn: Callable[[np.ndarray], np.ndarray]) -> Evaluator:
    """Mark an evaluator written over the last axis of its input.

    An (M, d) block gives M values, so :func:`~sbsopt.objective.evaluate`
    can score a whole block in one call. A (d,) point is scored as a 1-row
    block and gives a float: numpy scalars would round some powers through
    libm's pow instead of a product, so one point and the same point inside
    a block would not agree bit for bit.
    """

    @functools.wraps(fn)
    def evaluator(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(fn(x[None, :])[0])
        return fn(x)

    evaluator.vectorized = True
    return evaluator


def _sqnorm(x: np.ndarray) -> np.ndarray:
    # a stacked 1 x d by d x 1 product rounds like np.dot(x, x) on each row,
    # which np.sum(x * x, -1) and einsum do not
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


@_vectorized
def _sphere(x):
    return _sqnorm(x)


@_vectorized
def _ackley(x):
    d = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(_sqnorm(x) / d))
        - np.exp(np.add.reduce(np.cos(2.0 * _PI * x), axis=-1) / d)
        + 20.0
        + math.e
    )


@_vectorized
def _rastrigin(x):
    return 10.0 * x.shape[-1] + np.add.reduce(x * x - 10.0 * np.cos(2.0 * _PI * x), axis=-1)


@_vectorized
def _rosenbrock(x):
    head, tail = x[..., :-1], x[..., 1:]
    return np.add.reduce(100.0 * (tail - head**2) ** 2 + (head - 1.0) ** 2, axis=-1)


@_vectorized
def _levy(x):
    w = 1.0 + (x - 1.0) / 4.0
    first, rest, last = w[..., 0], w[..., :-1], w[..., -1]
    head = np.sin(_PI * first) ** 2
    mid = np.add.reduce((rest - 1.0) ** 2 * (1.0 + 10.0 * np.sin(_PI * rest + 1.0) ** 2), axis=-1)
    tail = (last - 1.0) ** 2 * (1.0 + np.sin(2.0 * _PI * last) ** 2)
    return head + mid + tail


@_vectorized
def _michalewicz(x):
    # steepness m=10, so the sine factor is raised to 2m=20
    i = np.arange(1, x.shape[-1] + 1)
    return -np.add.reduce(np.sin(x) * np.sin(i * x * x / _PI) ** 20, axis=-1)


@_vectorized
def _branin(x):
    x1, x2 = x[..., 0], x[..., 1]
    b = 5.1 / (4.0 * _PI**2)
    c = 5.0 / _PI
    t = 1.0 / (8.0 * _PI)
    return (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * np.cos(x1) + 10.0


@_vectorized
def _dropwave(x):
    q = _sqnorm(x)
    return -(1.0 + np.cos(12.0 * np.sqrt(q))) / (0.5 * q + 2.0)


@_vectorized
def _eggholder(x):
    x1 = x[..., 0]
    a = x[..., 1] + 47.0
    return (
        -a * np.sin(np.sqrt(np.abs(x1 / 2.0 + a)))
        - x1 * np.sin(np.sqrt(np.abs(x1 - a)))
    )


@_vectorized
def _goldstein_price(x):
    x1, x2 = x[..., 0], x[..., 1]
    part1 = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1**2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2**2
    )
    part2 = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1**2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2**2
    )
    return part1 * part2


@_vectorized
def _himmelblau(x):
    x1, x2 = x[..., 0], x[..., 1]
    return (x1**2 + x2 - 11.0) ** 2 + (x1 + x2**2 - 7.0) ** 2


@_vectorized
def _holder_table(x):
    r = np.sqrt(_sqnorm(x))
    return -np.abs(np.sin(x[..., 0]) * np.cos(x[..., 1]) * np.exp(np.abs(1.0 - r / _PI)))


@_vectorized
def _camel(x):
    x1, x2 = x[..., 0], x[..., 1]
    return (
        (4.0 - 2.1 * x1**2 + x1**4 / 3.0) * x1**2
        + x1 * x2
        + (-4.0 + 4.0 * x2**2) * x2**2
    )


@dataclass(frozen=True)
class BenchmarkEntry:
    """One registry row: evaluator plus domain and reference per dimension."""

    name: str
    evaluator: Evaluator
    dims_supported: frozenset[int] | None  # None: any d >= min_dim
    min_dim: int
    bounds: tuple[tuple[float, float], ...] | tuple[float, float]
    f_star_by_dim: dict[int, float]  # key 0: same value for every dimension
    minimizers_by_dim: dict[int, tuple[tuple[float, ...], ...] | str]

    def supports(self, d: int) -> bool:
        if self.dims_supported is not None:
            return d in self.dims_supported
        return d >= self.min_dim

    def dims_label(self) -> str:
        if self.dims_supported is not None:
            return ",".join(str(d) for d in sorted(self.dims_supported))
        return f"any d>={self.min_dim}"

    def domain_for(self, d: int) -> BoxDomain:
        if not self.supports(d):
            raise UnsupportedDimension(f"{self.name} does not support d={d}")
        if isinstance(self.bounds[0], tuple):
            pairs = self.bounds
        else:
            pairs = (self.bounds,) * d
        lower = np.array([p[0] for p in pairs], dtype=float)
        upper = np.array([p[1] for p in pairs], dtype=float)
        return BoxDomain(lower, upper)

    def f_star_for(self, d: int) -> float:
        if 0 in self.f_star_by_dim:
            return self.f_star_by_dim[0]
        if d in self.f_star_by_dim:
            return self.f_star_by_dim[d]
        raise UnsupportedDimension(f"{self.name} has no reference value for d={d}")

    def minimizers_for(self, d: int) -> tuple[np.ndarray, ...]:
        spec = self.minimizers_by_dim.get(0, self.minimizers_by_dim.get(d, ()))
        if spec == "zeros":
            return (np.zeros(d),)
        if spec == "ones":
            return (np.ones(d),)
        return tuple(np.asarray(m, dtype=float) for m in spec)


_BRANIN_F = 0.39788735772973816
_EGGHOLDER_F = -959.640662720851
_HOLDER_F = -19.208502567886747
_CAMEL_F = -1.0316284534898774
_MICHALEWICZ_F = {
    2: -1.8013034100985534,
    5: -4.68765817908815,
    10: -9.66015171564135,
}
# The function is separable, so coordinate i minimizes its own term
# -sin(x) sin(i x^2 / pi)^20 alone; each entry was polished in 1-D down to
# adjacent floats, and the minimizers evaluate to the values above exactly.
_MICHALEWICZ_X = (
    2.2029055223491447, 1.5707963215265406, 1.2849915686900788, 1.9230584692131107,
    1.7204697721271454, 1.570796325038778, 1.4544139713072446, 1.756086521094113,
    1.6557174167022464, 1.5707963257412256,
)

_ENTRIES: tuple[BenchmarkEntry, ...] = (
    BenchmarkEntry(
        # restricted form of the usual [-32.768, 32.768] hypercube; the
        # published definition allows a smaller domain
        "Ackley", _ackley, None, 1, (-5.0, 5.0),
        {0: 0.0}, {0: "zeros"},
    ),
    BenchmarkEntry(
        "Branin", _branin, frozenset({2}), 2, ((-5.0, 10.0), (0.0, 15.0)),
        {2: _BRANIN_F},
        {2: ((-_PI, 12.275), (_PI, 2.275), (3.0 * _PI, 2.475))},
    ),
    BenchmarkEntry(
        "DropWave", _dropwave, frozenset({2}), 2, (-5.12, 5.12),
        {2: -1.0}, {2: ((0.0, 0.0),)},
    ),
    BenchmarkEntry(
        "EggHolder", _eggholder, frozenset({2}), 2, (-512.0, 512.0),
        {2: _EGGHOLDER_F}, {2: ((512.0, 404.2318052512796),)},
    ),
    BenchmarkEntry(
        "GoldsteinPrice", _goldstein_price, frozenset({2}), 2, (-2.0, 2.0),
        {2: 3.0}, {2: ((0.0, -1.0),)},
    ),
    BenchmarkEntry(
        "Himmelblau", _himmelblau, frozenset({2}), 2, (-5.0, 5.0),
        {2: 0.0},
        {2: (
            (3.0, 2.0),
            (-2.8051180869527457, 3.1313125182505757),
            (-3.7793102533777456, -3.28318599128617),
            (3.58442834033049, -1.8481265269644025),
        )},
    ),
    BenchmarkEntry(
        "HolderTable", _holder_table, frozenset({2}), 2, (-10.0, 10.0),
        {2: _HOLDER_F},
        {2: (
            (8.05502348789846, 9.664590020886543),
            (-8.05502348789846, 9.664590020886543),
            (8.05502348789846, -9.664590020886543),
            (-8.05502348789846, -9.664590020886543),
        )},
    ),
    BenchmarkEntry(
        "Michalewicz", _michalewicz, frozenset({2, 5, 10}), 2, (0.0, _PI),
        _MICHALEWICZ_F,
        {2: ((2.202905519986293, 1.5707963272256125),),
         5: (_MICHALEWICZ_X[:5],), 10: (_MICHALEWICZ_X,)},
    ),
    BenchmarkEntry(
        "Rastrigin", _rastrigin, None, 1, (-5.12, 5.12),
        {0: 0.0}, {0: "zeros"},
    ),
    BenchmarkEntry(
        "Rosenbrock", _rosenbrock, None, 2, (-5.0, 10.0),
        {0: 0.0}, {0: "ones"},
    ),
    BenchmarkEntry(
        "Camel", _camel, frozenset({2}), 2, ((-3.0, 3.0), (-2.0, 2.0)),
        {2: _CAMEL_F},
        {2: (
            (0.08984200893527233, -0.712656403019058),
            (-0.08984200893527233, 0.712656403019058),
        )},
    ),
    BenchmarkEntry(
        "Levy", _levy, None, 1, (-10.0, 10.0),
        {0: 0.0}, {0: "ones"},
    ),
    BenchmarkEntry(
        "Sphere", _sphere, None, 1, (-5.12, 5.12),
        {0: 0.0}, {0: "zeros"},
    ),
)

_REGISTRY = {e.name: e for e in _ENTRIES}


def registry() -> dict[str, BenchmarkEntry]:
    """Name -> entry, in canonical listing order."""
    return _REGISTRY


def lookup(name: str) -> BenchmarkEntry:
    """Case-insensitive registry lookup."""
    table = registry()
    key = name.strip().lower()
    for entry_name, entry in table.items():
        if entry_name.lower() == key:
            return entry
    raise KeyError(f"unknown benchmark {name!r}; known: {', '.join(table)}")


def make_benchmark(name: str, d: int) -> Objective:
    """Build an Objective for the named benchmark at dimension d.

    Checks the entry's reference minimum first: each minimizer for d must
    lie in the box and evaluate to f_star within 1e-9, else ValueError.
    """
    entry = lookup(name)
    if not entry.supports(d):
        raise UnsupportedDimension(
            f"{entry.name} supports dims {entry.dims_label()}, not {d}"
        )
    obj = Objective(name=f"{entry.name}-{d}d", domain=entry.domain_for(d),
                    evaluator=entry.evaluator)
    f_star = entry.f_star_for(d)
    for x_star in entry.minimizers_for(d):
        if not obj.domain.contains(x_star):
            raise ValueError(f"{obj.name}: minimizer {x_star} outside domain")
        f_val = float(obj.evaluator(x_star))
        if abs(f_val - f_star) > 1e-9:
            raise ValueError(
                f"{obj.name}: f(minimizer)={f_val!r} differs from "
                f"f_star={f_star!r} beyond 1e-9"
            )
    return obj


def distance_to_minimum(entry: BenchmarkEntry, f_found: float, d: int) -> float:
    """|f_found - f_star|: distance to the optimum in objective value at dimension d."""
    return abs(f_found - entry.f_star_for(d))

