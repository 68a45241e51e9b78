"""Particle runs: the SBS configuration and its budget-accounted SVGD loop,
with optional filtering.

Budget convention: every objective evaluation counts, including the 2d
finite-difference probes behind each particle's score. One iteration of N
live particles therefore costs 2dN evaluations, plus N more on iterations
that filter (the filter needs current f-values, which are then reused to
pick the final answer). At or below min_particles live particles the filter
cannot remove one and is not run, but those N evaluations are still made
and charged, so the arithmetic is the same. On non-filtering iterations the
loop keeps N evaluations in reserve so the final argmin over particles is
always affordable. Diagnostics and trajectory logging use a separate
uncounted meter so instrumentation never changes what the algorithm does or
spends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..boltzmann import DEFAULT_KAPPA, BoltzmannTarget, ksd_from_parts
from ..errors import BudgetExceeded, BudgetTooSmall, ConfigError, ShapeMismatch
from ..objective import EvalCounter, Objective, evaluate, uniform_sample
from ..svgd import DEFAULT_STEP_SIZE, AdamState, _iterate_with_parts
from ..trajectory import TrajectoryLog, TrajectorySnapshot
from .base import (IterationRecord, RunResult, check_number, improve_incumbent,
                   split_streams)

if TYPE_CHECKING:
    from .hybrid import HybridConfig

HYBRID_SIGMA = 1e-10


@dataclass(frozen=True)
class FilterConfig:
    """Percentile rule for permanently removing unpromising particles.

    A particle is removed when its f-value is above the q-th percentile AND
    its last displacement is below the p-th percentile (both strict). When
    min_particles is None it resolves to max(5, N // 20) at run start. At or
    below min_particles live particles the rule cannot remove one (the floor
    keeps the best min_particles, which is all of them), so the run does not
    apply it; its N evaluations per iteration are still made and charged.

    The default percentiles are calibrated on Ackley-2d so that stuck
    particles are removed fast enough to cut the evaluation bill well below
    half of an unfiltered run without hurting the answer; a stricter pair
    like (90, 10) removes too slowly because Adam keeps every particle
    wandering at a similar pace on conical minima. They barely act on
    Rosenbrock-5d: at seed 0 the live count never drops below 93 of 100
    at 20k or 100k, so sbs-pf spends like sbs there, while on Ackley-2d
    the same filter goes down to 5.
    """

    q_value_percentile: float = 80.0
    p_move_percentile: float = 25.0
    start_iteration: int = 10
    min_particles: int | None = None

    def __post_init__(self):
        check_number(self, "q_value_percentile", float)
        check_number(self, "p_move_percentile", float)
        check_number(self, "start_iteration", int, minimum=0)
        check_number(self, "min_particles", int, optional=True, minimum=1)
        if not 0.0 < self.q_value_percentile <= 100.0:
            raise ConfigError(
                "q_value_percentile must be in (0, 100]", field="q_value_percentile"
            )
        if not 0.0 <= self.p_move_percentile < 100.0:
            raise ConfigError(
                "p_move_percentile must be in [0, 100)", field="p_move_percentile"
            )


@dataclass(frozen=True)
class SbsConfig:
    """One SBS run: the particle flow plus its two optional parts.

    filter removes unpromising particles as the run goes (SBS-PF); hybrid
    warm-starts the particles from CMA-ES or WOA (SBS-hybrid). n_particles
    None resolves to 100, or to 50 with a warm start. bandwidth() is the one
    rule for the kernel width sigma. fd_step None uses 1e-6 * max(1, |x_i|)
    per coordinate.
    """

    n_particles: int | None = None
    kappa: float = DEFAULT_KAPPA
    step_size: float = DEFAULT_STEP_SIZE
    sigma: float | None = None
    fd_step: float | None = None
    max_iterations: int | None = None
    filter: FilterConfig | None = None
    hybrid: HybridConfig | None = None

    def __post_init__(self):
        if self.n_particles is None:
            object.__setattr__(self, "n_particles", 100 if self.hybrid is None else 50)
        check_number(self, "n_particles", int, positive=True)
        check_number(self, "kappa", float, positive=True)
        check_number(self, "step_size", float, positive=True)
        check_number(self, "sigma", float, optional=True, positive=True)
        check_number(self, "fd_step", float, optional=True, positive=True)
        check_number(self, "max_iterations", int, optional=True, minimum=0)

    @property
    def method(self) -> str:
        """The registry name of this configuration."""
        return ("sbs" + ("-pf" if self.filter is not None else "")
                + ("-hybrid" if self.hybrid is not None else ""))

    def bandwidth(self, n: int) -> float:
        """The kernel width sigma for n live particles: sigma when set, else
        HYBRID_SIGMA with a warm start, else 1/n^2 (re-resolved as n shrinks)."""
        if self.sigma is not None:
            return self.sigma
        if self.hybrid is not None:
            return HYBRID_SIGMA
        return 1.0 / float(n) ** 2


def pf_filter(
    positions: np.ndarray,
    prev_positions: np.ndarray,
    f_values: np.ndarray,
    cfg: FilterConfig,
) -> np.ndarray:
    """Surviving indices after one filtering pass, sorted ascending.

    Percentiles are np.percentile's default linear interpolation between
    closest ranks; a NaN f-value makes the value threshold NaN, so nothing
    is removed by value. Survivors never drop below cfg.min_particles (the
    best-f particles are kept instead), and the current best particle
    always survives.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    prev_positions = np.atleast_2d(np.asarray(prev_positions, dtype=float))
    f_values = np.asarray(f_values, dtype=float)
    if positions.shape != prev_positions.shape or positions.shape[0] != f_values.shape[0]:
        raise ShapeMismatch("positions, prev_positions and f_values must align")
    if cfg.min_particles is None:
        raise ConfigError("min_particles must be resolved before filtering",
                          field="min_particles")

    step = positions - prev_positions
    moves = np.sqrt(np.add.reduce(step * step, axis=1))  # np.linalg.norm's formula
    with np.errstate(invalid="ignore"):  # interpolating next to an infinite value
        f_threshold = np.percentile(f_values, cfg.q_value_percentile)
        move_threshold = np.percentile(moves, cfg.p_move_percentile)
    removed = (f_values > f_threshold) & (moves < move_threshold)
    keep = np.flatnonzero(~removed)
    if keep.size < cfg.min_particles:
        order = np.argsort(f_values, kind="stable")
        keep = np.sort(order[: cfg.min_particles])
    best = int(np.argmin(f_values))
    if best not in keep:
        keep = np.sort(np.append(keep, best))
    return keep


def _run_engine(
    obj: Objective,
    cfg: SbsConfig,
    budget: int,
    seed: int,
    counter: EvalCounter,
    start: tuple[np.ndarray, np.ndarray, float] | None,
    *,
    collect_diagnostics: bool = False,
    track_ksd: bool = False,
    log_every: int = 0,
    benchmark: str | None = None,
) -> RunResult:
    """The particle run loop of every SBS configuration.

    start is None for a plain start from cfg.n_particles uniform draws, or
    a warm start's (positions, incumbent_x, incumbent_f), whose positions'
    row count replaces cfg.n_particles; counter already holds what was spent
    to find it. The answer is improve_incumbent over the final particles,
    from the warm start's incumbent or else from (first final particle,
    inf). A warm start has paid for its init phase, so only a plain start
    raises BudgetTooSmall when the budget cannot cover one iteration; a
    warm start that leaves too little budget to score its particles runs
    zero iterations and answers its incumbent.
    """
    domain = obj.domain
    d = domain.d

    if start is not None:
        positions = np.atleast_2d(np.asarray(start[0], dtype=float)).copy()
    else:
        rng = split_streams(seed, 1)[0]
        positions = uniform_sample(domain, cfg.n_particles, rng)
    n_particles = positions.shape[0]
    if start is None and budget - counter.count < 2 * d * n_particles:
        raise BudgetTooSmall(
            f"budget {budget} cannot cover one iteration "
            f"(2 * {d} * {n_particles} evaluations)"
        )

    target = BoltzmannTarget(objective=obj, kappa=cfg.kappa, fd_step=cfg.fd_step)
    adam = AdamState.fresh(n_particles, d)
    fcfg = cfg.filter
    if fcfg is not None and fcfg.min_particles is None:
        fcfg = replace(fcfg, min_particles=max(5, n_particles // 20))
    original_ids = np.arange(n_particles)
    last_f: np.ndarray | None = None

    records: list[IterationRecord] | None = [] if collect_diagnostics else None
    best_so_far = np.inf
    instrument = EvalCounter()  # instrumentation only: not the run budget

    log: TrajectoryLog | None = None
    if log_every > 0:
        log = TrajectoryLog(
            method=cfg.method,
            objective_name=obj.name,
            dim=d,
            lower=[float(v) for v in domain.lower],
            upper=[float(v) for v in domain.upper],
            kappa=cfg.kappa,
            benchmark=benchmark,
            fd_step=cfg.fd_step,
        )

    def snapshot(iteration: int, f_vals: np.ndarray | None) -> None:
        # sigma is the bandwidth the next iteration uses on these particles
        if f_vals is None:
            f_vals = evaluate(obj, positions, instrument)
        log.append(
            TrajectorySnapshot(
                iteration=iteration,
                sigma=cfg.bandwidth(positions.shape[0]),
                ids=list(original_ids),
                positions=positions.copy(),
                f_values=f_vals,
            )
        )

    if log is not None:
        snapshot(0, None)

    track_ksd = track_ksd and records is not None  # the KSD only goes into records
    ksd_parts: list[float] = []

    def add_ksd(*block) -> None:
        # one kernel block of the iteration's direction, reused for the KSD
        ksd_parts.append(ksd_from_parts(*block, sigma))

    iteration = 0
    seen_f: np.ndarray | None = None  # the live particles' f-values, when known
    while True:
        n_live = positions.shape[0]
        will_filter = fcfg is not None and (iteration + 1) >= fcfg.start_iteration
        iter_cost = 2 * d * n_live + (n_live if will_filter else 0)
        reserve = 0 if will_filter else n_live
        if counter.count + iter_cost + reserve > budget:
            break
        if cfg.max_iterations is not None and iteration >= cfg.max_iterations:
            break

        sigma = cfg.bandwidth(n_live)
        prev_positions = positions
        ksd_parts.clear()
        positions = _iterate_with_parts(
            positions, target, sigma, cfg.step_size, adam, counter,
            add_ksd if track_ksd else None,
        )
        ksd_value = sum(ksd_parts) if track_ksd else None
        iteration += 1

        last_f = None
        if will_filter:
            last_f = evaluate(obj, positions, counter)
        # at or below its floor the filter keeps every particle, so it is not run
        if will_filter and n_live > fcfg.min_particles:
            keep = pf_filter(positions, prev_positions, last_f, fcfg)
            if keep.size < n_live:
                positions = positions[keep]
                adam.keep(keep)
                original_ids = original_ids[keep]
                last_f = last_f[keep]

        # one off-budget pass at most, shared by the record and the snapshot
        logged = log is not None and iteration % log_every == 0
        seen_f = last_f
        if seen_f is None and (records is not None or logged):
            seen_f = evaluate(obj, positions, instrument)
        if records is not None:
            min_f = float(np.fmin.reduce(seen_f))
            best_so_far = min(best_so_far, min_f)
            records.append(
                IterationRecord(iteration, min_f, best_so_far, positions.shape[0],
                                ksd_value)
            )
        if logged:
            snapshot(iteration, seen_f)

    if log is not None and log.snapshots[-1].iteration != iteration:
        snapshot(iteration, seen_f)

    if last_f is None:
        if budget - counter.count >= positions.shape[0]:
            last_f = evaluate(obj, positions, counter)
        else:
            last_f = np.full(positions.shape[0], np.inf)
    best_x, best_f = (positions[0].copy(), np.inf) if start is None else start[1:]
    best_x, best_f = improve_incumbent(positions, last_f, best_x, best_f)
    if counter.count > budget:
        raise BudgetExceeded(f"internal accounting error: {counter.count} evaluations "
                             f"exceed the budget of {budget}")
    return RunResult(
        best_x=best_x,
        best_f=best_f,
        evals_used=counter.count,
        iterations_done=iteration,
        diagnostics=records,
        trajectory=log,
    )

