"""Optimizers behind a uniform name-addressable interface.

run_method dispatches on the names the experiment harness and CLI use:
sbs, sbs-pf, sbs-hybrid, sbs-pf-hybrid, cma-es, woa, cbo, langevin.
The four sbs names are aliases of one SbsConfig with or without its filter
and warm-start parts. Method parameters arrive as a plain dict (typically
parsed from a config file); a method accepts exactly the fields of its
parameter dataclasses, which also hold the defaults and check the values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..boltzmann import DEFAULT_KAPPA
from ..errors import BudgetTooSmall, ConfigError
from ..objective import Objective
from .base import IterationRecord, RunResult, check_number, derive_seed, split_streams
from .cbo import cbo_run, consensus_point
from .cmaes import CmaGaussian, cmaes_run, default_popsize, sample_gaussian
from .hybrid import HybridConfig, sbs_run
from .langevin import langevin_run
from .sbs import FilterConfig, SbsConfig, pf_filter
from .woa import woa_run

__all__ = [
    "CmaGaussian",
    "FilterConfig",
    "HybridConfig",
    "IterationRecord",
    "RunResult",
    "SbsConfig",
    "available_methods",
    "cbo_run",
    "cmaes_run",
    "consensus_point",
    "default_popsize",
    "derive_seed",
    "langevin_run",
    "logs_trajectories",
    "pf_filter",
    "run_method",
    "sample_gaussian",
    "sbs_run",
    "split_streams",
    "woa_run",
]


@dataclass(frozen=True)
class CmaesParams:
    """popsize None: 4 + floor(3 ln d); sigma0 None: 0.3 x the widest box side."""

    popsize: int | None = None
    sigma0: float | None = None

    def __post_init__(self):
        check_number(self, "popsize", int, optional=True)
        check_number(self, "sigma0", float, optional=True, positive=True)


@dataclass(frozen=True)
class WoaParams:
    """iterations None: as many as the budget covers after the first population."""

    n_agents: int = 30
    iterations: int | None = None

    def __post_init__(self):
        check_number(self, "n_agents", int, positive=True)
        check_number(self, "iterations", int, optional=True)


@dataclass(frozen=True)
class CboParams:
    """iterations None: as many as the budget covers after the first population."""

    n_particles: int = 100
    iterations: int | None = None
    alpha: float = 30.0
    lam_drift: float = 1.0
    sigma_noise: float = 0.7
    dt: float = 0.1

    def __post_init__(self):
        check_number(self, "n_particles", int, positive=True)
        check_number(self, "iterations", int, optional=True)
        check_number(self, "alpha", float)
        check_number(self, "lam_drift", float)
        check_number(self, "sigma_noise", float)
        if check_number(self, "dt", float) < 0:
            raise ConfigError("dt must be nonnegative", field="dt")


@dataclass(frozen=True)
class LangevinParams:
    n_chains: int = 10
    kappa: float = DEFAULT_KAPPA
    eta: float = 1e-5

    def __post_init__(self):
        check_number(self, "n_chains", int)
        check_number(self, "kappa", float)
        check_number(self, "eta", float)


def _population_iterations(budget: int, size: int, iterations: int | None) -> int:
    """Iterations for a fixed-population method: given, or fit to budget."""
    if iterations is not None:
        return iterations
    iterations = budget // size - 1
    if iterations < 0:
        raise BudgetTooSmall(f"budget {budget} below one population of {size}")
    return iterations


# The baseline adapters look the run functions up as module globals at call
# time, so a caller that replaces one on this module (a tracer, a test) is
# honoured.

def _cmaes(obj, p: CmaesParams, budget, seed, *, collect_diagnostics, **_):
    result, _ = cmaes_run(obj, budget, seed, popsize=p.popsize, sigma0=p.sigma0,
                          collect_diagnostics=collect_diagnostics)
    return result


def _woa(obj, p: WoaParams, budget, seed, *, collect_diagnostics, **_):
    iterations = _population_iterations(budget, p.n_agents, p.iterations)
    result, _ = woa_run(obj, p.n_agents, iterations, seed, budget=budget,
                        collect_diagnostics=collect_diagnostics)
    return result


def _cbo(obj, p: CboParams, budget, seed, *, collect_diagnostics, **_):
    iterations = _population_iterations(budget, p.n_particles, p.iterations)
    return cbo_run(obj, p.n_particles, iterations, seed, alpha=p.alpha,
                   lam_drift=p.lam_drift, sigma_noise=p.sigma_noise, dt=p.dt,
                   budget=budget, collect_diagnostics=collect_diagnostics)


def _langevin(obj, p: LangevinParams, budget, seed, *, collect_diagnostics, **_):
    return langevin_run(obj, n_chains=p.n_chains, kappa=p.kappa, eta=p.eta,
                        budget=budget, seed=seed, collect_diagnostics=collect_diagnostics)


# name -> (parameter dataclasses, run function). The first dataclass is the
# method's parameter object; the others become its nested parts.
_METHODS = {
    "sbs": ((SbsConfig,), sbs_run),
    "sbs-pf": ((SbsConfig, FilterConfig), sbs_run),
    "sbs-hybrid": ((SbsConfig, HybridConfig), sbs_run),
    "sbs-pf-hybrid": ((SbsConfig, FilterConfig, HybridConfig), sbs_run),
    "cma-es": ((CmaesParams,), _cmaes),
    "woa": ((WoaParams,), _woa),
    "cbo": ((CboParams,), _cbo),
    "langevin": ((LangevinParams,), _langevin),
}

# SbsConfig field that holds each nested part
_NESTED = {FilterConfig: "filter", HybridConfig: "hybrid"}


def _keys(cls: type) -> list[str]:
    """The flat parameter keys of a dataclass: its fields, less nested parts."""
    return [f.name for f in fields(cls) if f.name not in _NESTED.values()]


def available_methods() -> list[str]:
    return list(_METHODS)


def logs_trajectories(name: str) -> bool:
    """Whether runs of the named method can record a trajectory log."""
    return _METHODS[name][0][0] is SbsConfig


def run_method(
    name: str,
    obj: Objective,
    budget: int,
    seed: int,
    params: dict | None = None,
    *,
    collect_diagnostics: bool = False,
    track_ksd: bool = False,
    log_every: int = 0,
    benchmark: str | None = None,
) -> RunResult:
    """Run one optimizer by name under an evaluation budget.

    track_ksd, log_every and benchmark only affect the sbs names.
    """
    if name not in _METHODS:
        raise ConfigError(f"unknown method {name!r}", field="method")
    (head, *nested), run = _METHODS[name]
    params = dict(params or {})
    accepted = {key for cls in (head, *nested) for key in _keys(cls)}
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise ConfigError(f"unknown parameter {unknown[0]!r} for method {name!r}",
                          field=unknown[0])

    def take(cls: type) -> dict:
        return {key: params[key] for key in _keys(cls) if key in params}

    config = head(**take(head), **{_NESTED[cls]: cls(**take(cls)) for cls in nested})
    return run(obj, config, budget, seed, collect_diagnostics=collect_diagnostics,
               track_ksd=track_ksd, log_every=log_every, benchmark=benchmark)
