"""Shared optimizer plumbing: run results, seeding, and diagnostics records."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..trajectory import TrajectoryLog

_SEED_BITS = 64


def derive_seed(*tokens: object) -> int:
    """Fold tokens into a 64-bit seed via SHA-256.

    The same tokens give the same seed on every platform, so any experiment
    cell can be reproduced in isolation from its (base_seed, method,
    function, dim, repetition) coordinates.
    """
    text = "|".join(str(t) for t in tokens)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def split_streams(seed: int, n_streams: int) -> list[np.random.Generator]:
    """Derive independent generators from one run seed.

    Stream 0 is always the initializer (particles, population, or mean);
    later streams are method-specific and documented by each optimizer.
    """
    root = np.random.SeedSequence(seed % (1 << _SEED_BITS))
    return [np.random.Generator(np.random.PCG64(child)) for child in root.spawn(n_streams)]


def check_number(config, name: str, kind: type, *, optional: bool = False,
                 minimum: int | float | None = None, positive: bool = False) -> None:
    """Convert field `name` of the dataclass `config` with kind (int or float)
    in place.

    A boolean, a value kind cannot convert or, for int, would change, one
    that is not finite, one below minimum, or with positive set one that
    is not above zero raises ConfigError naming the field. None passes
    unchanged when the field is optional.
    """
    value = getattr(config, name)
    if value is None and optional:
        return
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if converted is None or isinstance(value, bool) or kind is int and converted != value:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}", field=name)
    if not math.isfinite(converted):
        raise ConfigError(f"{name} must be finite, got {value!r}", field=name)
    if positive and not converted > 0:
        raise ConfigError(f"{name} must be positive, got {value!r}", field=name)
    if minimum is not None and converted < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value!r}", field=name)
    object.__setattr__(config, name, converted)


def population_iterations(budget: int, size: int, iterations: int | None) -> int:
    """Iterations of a fixed-population method: given, or as many as budget
    covers after the first population."""
    return iterations if iterations is not None else budget // size - 1


def improve_incumbent(points: np.ndarray, f: np.ndarray, best_x: np.ndarray,
                      best_f: float) -> tuple[np.ndarray, float]:
    """The incumbent after scoring points in row order: the first row with the
    lowest value replaces it when strictly better. NaN values never win."""
    if f.size:
        i = int(f.argmin())
        low = float(f[i])
        if math.isnan(low):  # argmin stops at the first NaN; look past them
            i = int(np.argmin(np.where(np.isnan(f), np.inf, f)))
            low = float(f[i])
        if low < best_f:
            return points[i].copy(), low
    return best_x, best_f


def fold_block(result: RunResult, points: np.ndarray, f: np.ndarray,
               live: int | None = None) -> None:
    """Fold one scored block into a running result in place.

    The incumbent moves by improve_incumbent's rule. Given live, the size
    of the population the block scored, the block also ends an iteration:
    iterations_done grows by one and, when diagnostics are collected, the
    iteration's record is appended.
    """
    result.best_x, result.best_f = improve_incumbent(points, f, result.best_x, result.best_f)
    if live is not None:
        result.iterations_done += 1
        if result.diagnostics is not None:
            result.diagnostics.append(IterationRecord(
                result.iterations_done, float(np.fmin.reduce(f)), result.best_f, live))


@dataclass
class IterationRecord:
    """One diagnostics row per iteration.

    min_f and live describe the particle state leaving the iteration, and
    min_f skips NaN values (it is NaN only when every value is); ksd, when
    tracked, is measured on the state entering it: it is ksd_from_parts of
    that iteration's direction, equal to svgd.ksd of the entering state.
    best_so_far is the lowest value the run has scored so far, its start
    included, on or off budget.
    """

    iteration: int
    min_f: float
    best_so_far: float
    live: int
    ksd: float | None = None


@dataclass
class RunResult:
    """Outcome of one optimizer run under an evaluation budget."""

    best_x: np.ndarray
    best_f: float
    evals_used: int
    iterations_done: int
    diagnostics: list[IterationRecord] | None = None
    trajectory: TrajectoryLog | None = None
