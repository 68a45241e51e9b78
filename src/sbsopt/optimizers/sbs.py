"""Particle runs: the SBS configuration and its budget-accounted SVGD loop,
with optional filtering, from the start that sbs_run (hybrid.py) builds.

Budget convention: every objective evaluation counts, including the 2d
finite-difference probes behind each particle's score. One iteration of N
live particles therefore costs 2dN evaluations, plus N more on iterations
that filter (the filter needs current f-values). At or below min_particles
live particles the filter cannot remove one and is not run, but those N
evaluations are still made and charged, so the arithmetic is the same. An
iteration starts only when (2d + 1)N evaluations remain: its probes plus N
more, the filter's evaluations or, on the last iteration when it does not
filter, a final pass over the particles, which is then always affordable.
Each iteration scores its probes by one path: fd_probes, their values,
EvalCounter.charge, then -kappa times their fd_difference. A floor pass
leaves the particles as they are, so when the next iteration is sure to
run, the pass and its probes are scored in one evaluator call; the pass is
charged before this iteration's record, the probes when the next starts.
The answer is the best point the run paid for, probes included, which the
run's EvalCounter keeps and returns. Diagnostics and trajectory logging
score other iterations' particles off budget (block_values), so
instrumentation never changes what the run does or spends; the last
iteration's record and snapshot reuse its paid values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..boltzmann import DEFAULT_KAPPA, SIGMA_MAX, SIGMA_MIN, ksd_from_parts
from ..errors import BudgetExceeded, ConfigError, ShapeMismatch
from ..objective import (EvalCounter, Objective, block_values, evaluate, fd_difference,
                         fd_probes)
from ..svgd import DEFAULT_STEP_SIZE, AdamState, _iterate_with_parts
from ..trajectory import TrajectoryLog, TrajectorySnapshot
from .base import check_number, log_iteration

if TYPE_CHECKING:
    from .hybrid import HybridConfig

HYBRID_SIGMA = 1e-10


@dataclass(frozen=True)
class FilterConfig:
    """Percentile rule for permanently removing unpromising particles.

    A particle is removed when its f-value is above the q-th percentile AND
    its last displacement is below the p-th percentile (both strict). When
    min_particles is None, SbsConfig resolves it to max(5, N // 20). At or
    below min_particles live particles the rule cannot remove one (the floor
    keeps the best min_particles, which is all of them), so the run does not
    apply it; its N evaluations per iteration are still made and charged,
    in one evaluator call with the next iteration's probes when that
    iteration is sure to run (the probes are charged when it starts).

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
    rule for the kernel width sigma. A set sigma must lie in the kernel's
    domain [2^-511, 3.35e152] (boltzmann.SIGMA_MIN, SIGMA_MAX; ConfigError
    otherwise); sigma 1e-150 switches the kernel off. fd_step None uses
    1e-6 * max(1, |x_i|) per coordinate.
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
        if self.filter is not None and self.filter.min_particles is None:
            object.__setattr__(self, "filter", replace(
                self.filter, min_particles=max(5, self.n_particles // 20)))
        check_number(self, "kappa", float, positive=True)
        check_number(self, "step_size", float, positive=True)
        check_number(self, "sigma", float, optional=True)
        if self.sigma is not None and not SIGMA_MIN <= self.sigma <= SIGMA_MAX:
            raise ConfigError(f"sigma must lie in [2^-511, {SIGMA_MAX:.3g}], "
                              f"got {self.sigma!r}", field="sigma")
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
    counter: EvalCounter,
    positions: np.ndarray,
    *,
    track_ksd: bool = False,
    log_every: int = 0,
    benchmark: str | None = None,
) -> EvalCounter:
    """The particle run loop of every SBS configuration; returns counter.

    It moves the starting positions, whose row count replaces
    cfg.n_particles; counter already holds what was spent to find them and
    the best point found, and no iteration. An iteration runs while its
    (2d + 1)N evaluations fit and cfg.max_iterations is not reached, so a
    start that leaves too little budget runs zero iterations. Unless the
    last iteration filtered, it ends with a final pass over the particles
    before its record, so the last record's best_so_far is the answer; a
    run of zero iterations makes that pass if the budget covers it. The log
    goes into counter.trajectory.
    """
    domain = obj.domain
    d = domain.d
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n_particles = positions.shape[0]

    adam = AdamState.fresh(n_particles, d)
    original_ids = np.arange(n_particles)
    last_f: np.ndarray | None = None

    def snapshot(iteration: int, f_vals: np.ndarray) -> None:
        # sigma is the bandwidth the next iteration uses on these particles
        counter.trajectory.append(
            TrajectorySnapshot(
                iteration=iteration,
                sigma=cfg.bandwidth(positions.shape[0]),
                ids=list(original_ids),
                positions=positions.copy(),
                f_values=f_vals,
            )
        )

    if log_every > 0:
        counter.trajectory = TrajectoryLog(
            method=cfg.method,
            objective_name=obj.name,
            dim=d,
            lower=[float(v) for v in domain.lower],
            upper=[float(v) for v in domain.upper],
            kappa=cfg.kappa,
            benchmark=benchmark,
            fd_step=cfg.fd_step,
        )
        snapshot(0, block_values(obj, positions))

    track_ksd = track_ksd and counter.diagnostics is not None  # it goes into records only

    def running(done: int, pending: int = 0) -> bool:
        """The one stop test: another iteration's (2d + 1)N evaluations fit
        beside pending ones not yet charged, and done iterations have not
        reached max_iterations."""
        return (counter.evals_used + pending + (2 * d + 1) * positions.shape[0] <= budget
                and (cfg.max_iterations is None or done < cfg.max_iterations))

    ahead = None  # the next iteration's probes, scored with a floor pass
    more = running(counter.iterations_done)
    while more:
        iteration = counter.iterations_done + 1
        n_live = positions.shape[0]
        sigma = cfg.bandwidth(n_live)
        if ahead is None:
            probes, gaps = fd_probes(domain, positions, cfg.fd_step)
            f = block_values(obj, probes)
        else:
            probes, gaps, f = ahead
            ahead = None
        counter.charge(probes, f)
        scores = -cfg.kappa * fd_difference(obj, positions, f, gaps)
        prev_positions = positions
        positions, parts = _iterate_with_parts(
            positions, scores, sigma, cfg.step_size, adam, domain, track_ksd
        )
        ksd_value = ksd_from_parts(scores, *parts) if track_ksd else None

        last_f = None
        if cfg.filter is not None and iteration >= cfg.filter.start_iteration:
            if n_live <= cfg.filter.min_particles and running(iteration, n_live):
                # at its floor the positions stay as they are until the next
                # iteration, which is sure to run: its probes are scored with
                # this pass in one evaluator call, and charged when it starts
                probes, gaps = fd_probes(domain, positions, cfg.fd_step)
                f = block_values(obj, np.concatenate((positions, probes)))
                last_f = f[:n_live]
                counter.charge(positions, last_f)
                ahead = probes, gaps, f[n_live:]
            else:
                last_f = evaluate(obj, positions, counter)
            # at or below its floor the filter keeps every particle, so it is not run
            if n_live > cfg.filter.min_particles:
                keep = pf_filter(positions, prev_positions, last_f, cfg.filter)
                if keep.size < n_live:
                    positions = positions[keep]
                    adam.keep(keep)
                    original_ids = original_ids[keep]
                    last_f = last_f[keep]

        more = running(iteration)
        if last_f is None and not more:  # the final pass, on budget
            last_f = evaluate(obj, positions, counter)
        # one off-budget pass at most, shared by the record and the snapshot;
        # the iteration that ends the run is always logged
        logged = log_every > 0 and (iteration % log_every == 0 or not more)
        seen_f = last_f
        if seen_f is None and (counter.diagnostics is not None or logged):
            seen_f = block_values(obj, positions)
        log_iteration(counter, seen_f, positions.shape[0], ksd_value)
        if logged:
            snapshot(iteration, seen_f)

    if last_f is None and budget - counter.evals_used >= positions.shape[0]:
        evaluate(obj, positions, counter)
    if counter.evals_used > budget:
        raise BudgetExceeded(f"internal accounting error: {counter.evals_used} evaluations "
                             f"exceed the budget of {budget}")
    return counter
