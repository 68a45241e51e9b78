"""Particle runs: the budget-accounted SVGD loop, with optional filtering.

Budget convention: every objective evaluation counts, including the 2d
finite-difference probes behind each particle's score. One iteration of N
live particles therefore costs 2dN evaluations, plus N more on iterations
that filter (the filter needs current f-values, which are then reused to
pick the final answer). On non-filtering iterations the loop keeps N
evaluations in reserve so the final argmin over particles is always
affordable. Diagnostics and trajectory logging use a separate uncounted
meter so instrumentation never changes what the algorithm does or spends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..boltzmann import DEFAULT_KAPPA, BoltzmannTarget, ksd_from_parts
from ..errors import BudgetExceeded, BudgetTooSmall, ConfigError, ShapeMismatch
from ..kernel import BandwidthPolicy, RbfKernel, resolve_bandwidth
from ..objective import EvalCounter, Objective, evaluate, uniform_sample
from ..svgd import (
    DEFAULT_STEP_SIZE,
    AdamState,
    ParticleSet,
    SvgdConfig,
    _iterate_with_parts,
)
from ..trajectory import TrajectoryLog, TrajectorySnapshot
from .base import IterationRecord, RunResult, split_streams


@dataclass(frozen=True)
class FilterConfig:
    """Percentile rule for permanently removing unpromising particles.

    A particle is removed when its f-value is above the q-th percentile AND
    its last displacement is below the p-th percentile (both strict). When
    min_particles is None it resolves to max(5, N // 20) at run start.

    The default percentiles are calibrated on Ackley-2d so that stuck
    particles are removed fast enough to cut the evaluation bill well below
    half of an unfiltered run without hurting the answer; a stricter pair
    like (90, 10) removes too slowly because Adam keeps every particle
    wandering at a similar pace on conical minima.
    """

    q_value_percentile: float = 80.0
    p_move_percentile: float = 25.0
    start_iteration: int = 10
    min_particles: int | None = None

    def __post_init__(self):
        if not 0.0 < self.q_value_percentile <= 100.0:
            raise ConfigError(
                "q_value_percentile must be in (0, 100]", field="q_value_percentile"
            )
        if not 0.0 <= self.p_move_percentile < 100.0:
            raise ConfigError(
                "p_move_percentile must be in [0, 100)", field="p_move_percentile"
            )
        if self.start_iteration < 0:
            raise ConfigError(
                "start_iteration must be nonnegative", field="start_iteration"
            )
        if self.min_particles is not None and self.min_particles < 1:
            raise ConfigError("min_particles must be positive", field="min_particles")


def _percentile(values: np.ndarray, q: float) -> float:
    """np.percentile(values, q) with its default "linear" method, bit for
    bit, from one sort and scalar arithmetic; NaN if any value is NaN."""
    ordered = np.sort(values)
    n = ordered.size
    if np.isnan(ordered[-1]):
        return float("nan")
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        # numpy takes the last value on both sides and counts from index -1
        below = above = n - 1
        t = virtual + 1
    else:
        below = math.floor(virtual)
        above = below + 1
        t = virtual - below
    a, b = float(ordered[below]), float(ordered[above])
    diff = b - a
    # numpy's _lerp: interpolate from the nearer end
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def pf_filter(
    positions: np.ndarray,
    prev_positions: np.ndarray,
    f_values: np.ndarray,
    cfg: FilterConfig,
) -> np.ndarray:
    """Surviving indices after one filtering pass, sorted ascending.

    Percentiles use linear interpolation between closest ranks. Survivors
    never drop below cfg.min_particles (the best-f particles are kept
    instead), and the current best particle always survives.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    prev_positions = np.atleast_2d(np.asarray(prev_positions, dtype=float))
    f_values = np.asarray(f_values, dtype=float)
    if positions.shape != prev_positions.shape or positions.shape[0] != f_values.shape[0]:
        raise ShapeMismatch("positions, prev_positions and f_values must align")
    if cfg.min_particles is None:
        raise ConfigError("min_particles must be resolved before filtering",
                          field="min_particles")

    moves = np.linalg.norm(positions - prev_positions, axis=1)
    f_threshold = _percentile(f_values, cfg.q_value_percentile)
    move_threshold = _percentile(moves, cfg.p_move_percentile)
    removed = (f_values > f_threshold) & (moves < move_threshold)
    keep = np.flatnonzero(~removed)
    if keep.size < cfg.min_particles:
        order = np.argsort(f_values, kind="stable")
        keep = np.sort(order[: cfg.min_particles])
    best = int(np.argmin(f_values))
    if best not in keep:
        keep = np.sort(np.append(keep, best))
    return keep


def _resolved_filter(cfg: FilterConfig | None, n_particles: int) -> FilterConfig | None:
    if cfg is None:
        return None
    if cfg.min_particles is None:
        return replace(cfg, min_particles=max(5, n_particles // 20))
    return cfg


def _run_engine(
    obj: Objective,
    n_particles: int,
    kappa: float,
    step_size: float,
    budget: int,
    seed: int,
    *,
    bandwidth_policy: BandwidthPolicy | None = None,
    filter_config: FilterConfig | None = None,
    init: np.ndarray | None = None,
    max_iterations: int | None = None,
    counter: EvalCounter | None = None,
    check_budget: bool = True,
    collect_diagnostics: bool = False,
    track_ksd: bool = False,
    log_every: int = 0,
    benchmark: str | None = None,
    fd_step: float | None = None,
    method_name: str = "sbs",
) -> RunResult:
    """The particle run loop shared by all SBS variants."""
    counter = counter if counter is not None else EvalCounter()
    domain = obj.domain
    d = domain.d
    policy = bandwidth_policy if bandwidth_policy is not None else BandwidthPolicy.inverse_n_squared()

    if init is not None:
        positions = np.atleast_2d(np.asarray(init, dtype=float)).copy()
        n_particles = positions.shape[0]
    else:
        rng = split_streams(seed, 1)[0]
        positions = uniform_sample(domain, n_particles, rng)
    if n_particles < 1:
        raise ConfigError("need at least one particle", field="n_particles")
    if check_budget and budget - counter.count < 2 * d * n_particles:
        raise BudgetTooSmall(
            f"budget {budget} cannot cover one iteration "
            f"(2 * {d} * {n_particles} evaluations)"
        )

    target = BoltzmannTarget(objective=obj, kappa=kappa, fd_step=fd_step)
    config = SvgdConfig(step_size=step_size, bandwidth_policy=policy)
    adam = AdamState.fresh(n_particles, d)
    fcfg = _resolved_filter(filter_config, n_particles)
    particles = ParticleSet(positions)
    original_ids = np.arange(n_particles)
    last_f: np.ndarray | None = None

    records: list[IterationRecord] | None = [] if collect_diagnostics else None
    best_so_far = np.inf
    instrument = EvalCounter()

    def current_f_values() -> np.ndarray:
        # instrumentation only: does not touch the run budget
        return evaluate(obj, particles.positions, instrument)

    log: TrajectoryLog | None = None
    if log_every > 0:
        log = TrajectoryLog(
            method=method_name,
            objective_name=obj.name,
            dim=d,
            lower=[float(v) for v in domain.lower],
            upper=[float(v) for v in domain.upper],
            kappa=kappa,
            benchmark=benchmark,
        )

    def snapshot(iteration: int, sigma: float, f_vals: np.ndarray | None) -> None:
        if log is None:
            return
        values = f_vals if f_vals is not None else current_f_values()
        log.append(
            TrajectorySnapshot(
                iteration=iteration,
                sigma=sigma,
                ids=list(original_ids),
                positions=particles.positions.copy(),
                f_values=values,
            )
        )

    snapshot(0, resolve_bandwidth(policy, particles.n), None)

    iteration = 0
    while True:
        n_live = particles.n
        will_filter = fcfg is not None and (iteration + 1) >= fcfg.start_iteration
        iter_cost = 2 * d * n_live + (n_live if will_filter else 0)
        reserve = 0 if will_filter else n_live
        if counter.count + iter_cost + reserve > budget:
            break
        if max_iterations is not None and iteration >= max_iterations:
            break

        sigma = resolve_bandwidth(policy, n_live)
        kernel = RbfKernel(sigma)
        prev_positions = particles.positions
        moved, scores, kmat, diff, sqdist = _iterate_with_parts(
            particles, target, kernel, config, adam, counter
        )
        ksd_value = (
            ksd_from_parts(scores, kmat, diff, sqdist, sigma) if track_ksd else None
        )
        iteration += 1

        if will_filter:
            f_vals = evaluate(obj, moved.positions, counter)
            keep = pf_filter(moved.positions, prev_positions, f_vals, fcfg)
            if keep.size < moved.n:
                moved = ParticleSet(moved.positions[keep])
                adam.keep(keep)
                original_ids = original_ids[keep]
                f_vals = f_vals[keep]
            particles = moved
            last_f = f_vals
        else:
            particles = moved
            last_f = None

        if records is not None:
            values = last_f if last_f is not None else current_f_values()
            min_f = float(values.min())
            best_so_far = min(best_so_far, min_f)
            records.append(
                IterationRecord(iteration, min_f, best_so_far, particles.n, ksd_value)
            )
        if log is not None and iteration % log_every == 0:
            snapshot(iteration, sigma, last_f)

    if log is not None and log.snapshots[-1].iteration != iteration:
        final_sigma = resolve_bandwidth(policy, particles.n)
        snapshot(iteration, final_sigma, last_f)

    if last_f is None:
        last_f = evaluate(obj, particles.positions, counter)
    best_idx = int(np.argmin(last_f))
    if counter.count > budget:
        raise BudgetExceeded(f"internal accounting error: {counter.count} evaluations "
                             f"exceed the budget of {budget}")
    return RunResult(
        best_x=particles.positions[best_idx].copy(),
        best_f=float(last_f[best_idx]),
        evals_used=counter.count,
        iterations_done=iteration,
        diagnostics=records,
        trajectory=log,
    )


def sbs_run(
    obj: Objective,
    n_particles: int = 100,
    kappa: float = DEFAULT_KAPPA,
    step_size: float = DEFAULT_STEP_SIZE,
    budget: int = 200_000,
    seed: int = 0,
    init: np.ndarray | None = None,
    *,
    bandwidth_policy: BandwidthPolicy | None = None,
    max_iterations: int | None = None,
    collect_diagnostics: bool = False,
    track_ksd: bool = False,
    log_every: int = 0,
    benchmark: str | None = None,
    fd_step: float | None = None,
) -> RunResult:
    """Plain run: N particles descend the Boltzmann flow until the budget
    can no longer cover the next iteration. Returns the argmin over the
    final particles (ties broken by lowest index)."""
    return _run_engine(
        obj, n_particles, kappa, step_size, budget, seed,
        bandwidth_policy=bandwidth_policy,
        filter_config=None,
        init=init,
        max_iterations=max_iterations,
        collect_diagnostics=collect_diagnostics,
        track_ksd=track_ksd,
        log_every=log_every,
        benchmark=benchmark,
        fd_step=fd_step,
        method_name="sbs",
    )


def sbs_pf_run(
    obj: Objective,
    n_particles: int = 100,
    kappa: float = DEFAULT_KAPPA,
    step_size: float = DEFAULT_STEP_SIZE,
    budget: int = 200_000,
    seed: int = 0,
    filter_config: FilterConfig | None = None,
    init: np.ndarray | None = None,
    *,
    bandwidth_policy: BandwidthPolicy | None = None,
    max_iterations: int | None = None,
    collect_diagnostics: bool = False,
    track_ksd: bool = False,
    log_every: int = 0,
    benchmark: str | None = None,
    fd_step: float | None = None,
) -> RunResult:
    """Filtered run: from start_iteration onward, each iteration evaluates
    the moved particles and permanently removes those with high f-value and
    low displacement. Adam moments and the 1/N^2 bandwidth track the live
    set. With filter_config=None this is exactly sbs_run."""
    if filter_config is None:
        return sbs_run(
            obj, n_particles, kappa, step_size, budget, seed, init,
            bandwidth_policy=bandwidth_policy,
            max_iterations=max_iterations,
            collect_diagnostics=collect_diagnostics,
            track_ksd=track_ksd,
            log_every=log_every,
            benchmark=benchmark,
            fd_step=fd_step,
        )
    return _run_engine(
        obj, n_particles, kappa, step_size, budget, seed,
        bandwidth_policy=bandwidth_policy,
        filter_config=filter_config,
        init=init,
        max_iterations=max_iterations,
        collect_diagnostics=collect_diagnostics,
        track_ksd=track_ksd,
        log_every=log_every,
        benchmark=benchmark,
        fd_step=fd_step,
        method_name="sbs-pf",
    )
