"""Optimizers behind a uniform name-addressable interface.

run_method dispatches on the names the experiment harness and CLI use:
sbs, sbs-pf, sbs-hybrid, sbs-pf-hybrid, cma-es, woa, cbo, langevin.
The four sbs names are aliases of one SbsConfig with or without its filter
and warm-start parts. Method parameters arrive as a plain dict (typically
parsed from a config file); a method accepts exactly the fields of its
parameter dataclasses, which also hold the defaults and check the values.
"""

from __future__ import annotations

from dataclasses import fields

from ..errors import ConfigError
from ..objective import EvalCounter, Objective
from .base import IterationRecord, derive_seed, split_streams
from .cbo import CboParams, cbo_run, consensus_point
from .cmaes import CmaesParams, CmaGaussian, cmaes_run, default_popsize, sample_gaussian
from .hybrid import HybridConfig, sbs_run
from .langevin import LangevinParams, langevin_run
from .sbs import FilterConfig, SbsConfig, pf_filter
from .woa import WoaParams, woa_run

__all__ = [
    "CboParams",
    "CmaGaussian",
    "CmaesParams",
    "FilterConfig",
    "HybridConfig",
    "IterationRecord",
    "LangevinParams",
    "SbsConfig",
    "WoaParams",
    "available_methods",
    "cbo_run",
    "cmaes_run",
    "consensus_point",
    "default_popsize",
    "derive_seed",
    "langevin_run",
    "logs_trajectories",
    "method_config",
    "pf_filter",
    "run_method",
    "sample_gaussian",
    "sbs_run",
    "split_streams",
    "woa_run",
]


# name -> (parameter dataclasses, name of the run function). The first
# dataclass is the method's parameter object; the others become its nested
# parts. Every run function is run(obj, params, budget, seed, *,
# collect_diagnostics=False), sbs_run with its instrument keywords, and
# returns the EvalCounter it ran on as its result; cmaes_run and woa_run
# also return their final state.
_METHODS = {
    "sbs": ((SbsConfig,), "sbs_run"),
    "sbs-pf": ((SbsConfig, FilterConfig), "sbs_run"),
    "sbs-hybrid": ((SbsConfig, HybridConfig), "sbs_run"),
    "sbs-pf-hybrid": ((SbsConfig, FilterConfig, HybridConfig), "sbs_run"),
    "cma-es": ((CmaesParams,), "cmaes_run"),
    "woa": ((WoaParams,), "woa_run"),
    "cbo": ((CboParams,), "cbo_run"),
    "langevin": ((LangevinParams,), "langevin_run"),
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


def method_config(name: str, params: dict | None = None):
    """The parameter object of the named method, built from a flat dict.

    ConfigError, naming the offending key, for an unknown method, an
    unknown key or a value its dataclass rejects.
    """
    if name not in _METHODS:
        raise ConfigError(f"unknown method {name!r}", field="method")
    head, *nested = _METHODS[name][0]
    params = dict(params or {})
    accepted = {key for cls in (head, *nested) for key in _keys(cls)}
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise ConfigError(f"unknown parameter {unknown[0]!r} for method {name!r}",
                          field=unknown[0])

    def take(cls: type) -> dict:
        return {key: params[key] for key in _keys(cls) if key in params}

    return head(**take(head), **{_NESTED[cls]: cls(**take(cls)) for cls in nested})


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
) -> EvalCounter:
    """Run one optimizer by name under an evaluation budget; the result is
    the run's EvalCounter.

    track_ksd, log_every and benchmark only affect the sbs names; track_ksd
    adds a KSD to each diagnostics record, so it needs collect_diagnostics.
    """
    config = method_config(name, params)
    instruments = {}
    if isinstance(config, SbsConfig):
        instruments = dict(track_ksd=track_ksd, log_every=log_every, benchmark=benchmark)
    # looked up at call time, so a caller that replaces a run function on
    # this module (a tracer, a test) is honoured
    run = globals()[_METHODS[name][1]]
    result = run(obj, config, budget, seed, collect_diagnostics=collect_diagnostics,
                 **instruments)
    return result[0] if isinstance(result, tuple) else result
