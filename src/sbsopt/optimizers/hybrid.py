"""The SBS entry point, and the two starts of its one particle loop: N
uniform draws, which need the (2d + 1)N evaluations of one iteration, or
the warm start of a hybrid run from CMA-ES or WOA.

The init phase spends a slice of the budget on CMA-ES and a fixed WOA
schedule, then seeds the particles from whichever did better: N samples
from CMA-ES's final Gaussian (projected to the box) or WOA's final
population. The SVGD continuation runs with a tiny fixed bandwidth, which
decouples the particles into parallel Adam descents with a residual
repulsion only between near-coincident particles. The init phase's best
point is the incumbent the one engine call starts its answer from, so the
reported best covers the entire run, init phase included.

CMA-ES stops inside its slice by the same rules as a standalone run,
including the stops once its values have gone flat or its best value has
stalled (cmaes.py). The evaluations of the slice it leaves unspent are not
lost: WOA runs its fixed schedule after it, and the continuation runs on
to the whole budget. The init phase checks its own cost before it spends
anything, and that check counts the full slice, so whether a budget is
large enough never depends on where CMA-ES stops.

Sub-run seeds derive from the run seed with the tags "hybrid-cma",
"hybrid-woa", and "hybrid-sample" (for Gaussian sampling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BudgetTooSmall, ConfigError
from ..objective import EvalCounter, Objective, project_to_box, uniform_sample
from .base import RunResult, check_number, derive_seed, split_streams
from .cmaes import CmaesParams, cmaes_run, default_popsize, sample_gaussian
from .sbs import SbsConfig, _run_engine
from .woa import WoaParams, woa_run


@dataclass(frozen=True)
class HybridConfig:
    """Init-phase budget split of a warm-started run."""

    cmaes_budget: int = 1000
    woa_iterations: int = 1000

    def __post_init__(self):
        check_number(self, "cmaes_budget", int, positive=True)
        check_number(self, "woa_iterations", int, positive=True)

    def check_dim(self, d: int) -> None:
        """ConfigError unless cmaes_budget covers one CMA-ES generation in d
        dimensions."""
        lam = default_popsize(d)
        if self.cmaes_budget < lam:
            raise ConfigError(
                f"cmaes_budget {self.cmaes_budget} is below one CMA-ES generation "
                f"({lam} evaluations in {d} dimensions)",
                field="cmaes_budget",
            )


def _hybrid_init_full(
    obj: Objective,
    cfg: SbsConfig,
    budget: int,
    seed: int,
    counter: EvalCounter,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Run cfg.hybrid's init phase; returns (positions, incumbent_x, incumbent_f).

    Before any evaluation it raises ConfigError unless cmaes_budget covers
    one CMA-ES generation (HybridConfig.check_dim), and BudgetTooSmall
    unless budget covers the whole phase. All evaluations are counted on
    counter.
    """
    hybrid, n_particles = cfg.hybrid, cfg.n_particles
    hybrid.check_dim(obj.domain.d)
    # WOA needs 2 agents to interact; a 1-particle request still runs 2
    woa_params = WoaParams(max(2, n_particles), hybrid.woa_iterations)
    init_cost = hybrid.cmaes_budget + woa_params.n_agents * (hybrid.woa_iterations + 1)
    if init_cost > budget:
        raise BudgetTooSmall(
            f"budget {budget} cannot cover the init phase ({init_cost} evaluations)"
        )
    cma_result, gaussian = cmaes_run(
        obj, CmaesParams(), counter.count + hybrid.cmaes_budget,
        derive_seed(seed, "hybrid-cma"), counter=counter,
    )
    woa_result, woa_population = woa_run(
        obj, woa_params, budget, derive_seed(seed, "hybrid-woa"), counter=counter
    )
    if cma_result.best_f < woa_result.best_f:
        rng = split_streams(derive_seed(seed, "hybrid-sample"), 1)[0]
        samples = sample_gaussian(gaussian, n_particles, rng)
        positions = project_to_box(obj.domain, samples)
        return positions, cma_result.best_x, cma_result.best_f
    return woa_population[:n_particles], woa_result.best_x, woa_result.best_f


def sbs_run(
    obj: Objective,
    cfg: SbsConfig,
    budget: int,
    seed: int,
    *,
    collect_diagnostics: bool = False,
    track_ksd: bool = False,
    log_every: int = 0,
    benchmark: str | None = None,
) -> RunResult:
    """Run SBS as cfg configures it, under an evaluation budget.

    The particles descend the Boltzmann flow until the budget can no longer
    cover the next iteration; the answer is the best final particle (NaN
    values skipped, ties to the lowest index). cfg.filter permanently
    removes particles of high f-value and low displacement from its
    start_iteration on. A plain start draws cfg.n_particles uniform
    particles and raises BudgetTooSmall below one iteration's (2d + 1)N
    evaluations. cfg.hybrid instead picks them by the init phase above,
    whose incumbent stays the answer unless a final particle is strictly
    better; it checks only its own cost, so it may run zero iterations.
    Diagnostics and a trajectory snapshot every log_every iterations are
    off-budget instrumentation. The KSD costs no evaluation: each iteration
    assembles it from the parts of its own direction, with one more sum
    over the kernel values it makes. It goes only into the diagnostics
    records, so track_ksd does nothing without collect_diagnostics.
    """
    counter = EvalCounter()
    if cfg.hybrid is not None:
        positions, best_x, best_f = _hybrid_init_full(obj, cfg, budget, seed, counter)
    else:
        d, n = obj.domain.d, cfg.n_particles
        if budget < (2 * d + 1) * n:
            raise BudgetTooSmall(f"budget {budget} cannot cover one iteration "
                                 f"((2 * {d} + 1) * {n} evaluations)")
        positions = uniform_sample(obj.domain, n, split_streams(seed, 1)[0])
        best_x, best_f = positions[0].copy(), np.inf
    return _run_engine(obj, cfg, budget, counter, positions, best_x, best_f,
                       collect_diagnostics=collect_diagnostics, track_ksd=track_ksd,
                       log_every=log_every, benchmark=benchmark)
