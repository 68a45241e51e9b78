"""Experiment orchestration: repeated runs, metrics, and result files.

A config names functions, methods, a per-run evaluation budget, and the
repetition count. Every cell (method x function x repetition) gets its own
seed derived from the base seed and the cell coordinates, so cells can be
rerun in isolation or run in worker processes, one per usable CPU, with
the same results as one after another. Outputs are a CSV of aggregate
distances, a JSON summary with the comparison metrics, and optional per-run
trajectory logs.

The config checks itself when it is built: FunctionSpec resolves its
benchmark and dimension, MethodSpec builds its method's parameter object,
and ExperimentConfig checks its counts and rejects empty sections and
duplicates: two method keys alike, or two functions that name one registry
entry at one dimension. validate_config adds the one check that needs a
method and a dimension together, so a bad config fails before its first
cell runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import BenchmarkEntry, distance_to_minimum, lookup, make_benchmark
from .errors import BudgetExceeded, ConfigError
from .optimizers import RunResult, derive_seed, method_config, run_method
from .optimizers.base import check_number

ECR_FLOOR = 1e-12
ECR_CLIP = 100.0


@dataclass(frozen=True)
class MethodSpec:
    """One optimizer column: registry name, parameters, display label. Built
    only from a params dict its method's parameter dataclasses accept. A
    label names a results.csv field and trajectory files, so it must be a
    non-empty string without ',', '/', '\\' or a line break."""

    name: str
    params: dict = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self):
        label = self.label
        if label is not None and not (
            isinstance(label, str)
            and label.splitlines() == [label]  # not empty, no line break
            and not any(c in label for c in ",/\\")
        ):
            raise ConfigError(f"method label {label!r} must be a non-empty string "
                              "without ',', '/', '\\' or a line break", field="label")
        if not isinstance(self.params, dict):
            raise ConfigError(f"params of method {self.name!r} must be an object, "
                              f"got {self.params!r}", field="params")
        object.__setattr__(self, "params", dict(self.params))
        method_config(self.name, self.params)

    @property
    def key(self) -> str:
        return self.label if self.label is not None else self.name


@dataclass(frozen=True)
class FunctionSpec:
    """One benchmark row: registry name and an integer dimension, which the
    named benchmark must support. The name, as spelled, enters cell seeds,
    results.csv and trajectory files, so it may not start or end with
    whitespace."""

    name: str
    dim: int

    def __post_init__(self):
        check_number(self, "dim", int)
        if self.name != self.name.strip():
            raise ConfigError(f"function name {self.name!r} starts or ends with whitespace",
                              field="function")
        try:
            entry = lookup(self.name)
        except KeyError as exc:
            raise ConfigError(exc.args[0], field="function") from None
        if not entry.supports(self.dim):
            raise ConfigError(
                f"function {self.name!r} does not support dim {self.dim}", field="dim"
            )

    @property
    def key(self) -> str:
        return f"{self.name}-{self.dim}d"


@dataclass
class ExperimentConfig:
    """The whole experiment: budget and repetitions at least 1, log_every at
    least 0, and each section non-empty with distinct entries: method keys,
    and benchmarks at a dimension, whatever the case of a name."""

    functions: list[FunctionSpec]
    methods: list[MethodSpec]
    budget: int
    repetitions: int = 10
    base_seed: int = 0
    output_dir: str = "results"
    log_every: int = 0

    def __post_init__(self):
        check_number(self, "budget", int, minimum=1)
        check_number(self, "repetitions", int, minimum=1)
        check_number(self, "base_seed", int)
        check_number(self, "log_every", int, minimum=0)
        for section in ("functions", "methods"):
            specs = getattr(self, section)
            if not specs:
                raise ConfigError(f"no {section} given", field=section)
            # a function is its registry entry at a dimension, in any case
            same = [(lookup(s.name).name, s.dim) if section == "functions" else s.key
                    for s in specs]
            for i, spec in enumerate(specs):
                if same[i] in same[:i]:
                    raise ConfigError(f"duplicate {section[:-1]} {spec.key!r}",
                                      field=section)
        self.output_dir = str(self.output_dir)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = {f.name: f for f in fields(ExperimentConfig)}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}", field=key)
        for name, f in known.items():
            if f.default is MISSING and name not in data:
                raise ConfigError(f"missing field {name!r}", field=name)
        values = {name: data.get(name, f.default) for name, f in known.items()}
        try:
            values["functions"] = [
                FunctionSpec(name=str(f["name"]), dim=f["dim"])
                for f in values["functions"]
            ]
            values["methods"] = [
                MethodSpec(name=str(m["name"]), params=m.get("params", {}),
                           label=m.get("label"))
                for m in values["methods"]
            ]
        except KeyError as exc:
            raise ConfigError(f"missing field {exc.args[0]!r}", field=str(exc.args[0]))
        except TypeError:
            raise ConfigError("functions and methods must be lists of objects",
                              field="functions")
        return ExperimentConfig(**values)

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}", field="config")
        return ExperimentConfig.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "functions": [{"name": f.name, "dim": f.dim} for f in self.functions],
            "methods": [
                {"name": m.name, "params": m.params, "label": m.key}
                for m in self.methods
            ],
            "budget": self.budget,
            "repetitions": self.repetitions,
            "base_seed": self.base_seed,
            "output_dir": self.output_dir,
            "log_every": self.log_every,
        }


def validate_config(cfg: ExperimentConfig) -> dict[str, BenchmarkEntry]:
    """Check every warm-started method's cmaes_budget against every
    function's dimension, the one check the specs cannot make alone, before
    any cell runs; returns the benchmark entries by function name."""
    for m in cfg.methods:
        hybrid = getattr(method_config(m.name, m.params), "hybrid", None)
        if hybrid is not None:
            for f in cfg.functions:
                hybrid.check_dim(f.dim)
    return {f.name: lookup(f.name) for f in cfg.functions}


@dataclass
class RunRecord:
    """One completed cell: coordinates, seed, and the raw result."""

    method: str
    function: str
    dim: int
    repetition: int
    seed: int
    result: RunResult
    distance: float


@dataclass
class CellStats:
    mean_distance: float
    std_distance: float
    mean_evals: float


@dataclass
class ExperimentTable:
    cells: dict[tuple[str, str], CellStats]
    ecr: dict[str, float]
    avg_rank: dict[str, float]
    final_rank: dict[str, int]
    runs: list[RunRecord]
    config: ExperimentConfig


def ecr(mean_distances: dict[str, dict[str, float]]) -> dict[str, float]:
    """Empirical competitive ratio per method.

    For each function, a method's distance is divided by the best method's
    distance and clipped at 100; values below the 1e-12 floor are treated
    as exact hits (ratio 1 when both are hits, clip when only the best is).
    The ECR is the mean of these ratios over functions.
    """
    methods = list(mean_distances)
    if not methods:
        raise ConfigError("ecr needs at least one method", field="methods")
    functions = list(mean_distances[methods[0]])
    ratios = {m: [] for m in methods}
    for fn in functions:
        best = min(mean_distances[m][fn] for m in methods)
        for m in methods:
            dist = mean_distances[m][fn]
            if best <= ECR_FLOOR:
                ratio = 1.0 if dist <= ECR_FLOOR else ECR_CLIP
            else:
                ratio = min(ECR_CLIP, dist / best)
            ratios[m].append(ratio)
    return {m: float(np.mean(ratios[m])) for m in methods}


def average_rank(
    mean_distances: dict[str, dict[str, float]],
) -> tuple[dict[str, float], dict[str, int]]:
    """Tie-averaged ranks per function, averaged over functions.

    The final rank is competition-style on the averages: 1 plus the number
    of methods with a strictly smaller average rank, so exact ties share
    the lower ordinal.
    """
    methods = list(mean_distances)
    functions = list(mean_distances[methods[0]])
    totals = {m: 0.0 for m in methods}
    for fn in functions:
        values = [mean_distances[m][fn] for m in methods]
        for m, v in zip(methods, values):
            # the methods below v, then the mean 1-based position among v's ties
            smaller = sum(1 for o in values if o < v)
            tied = sum(1 for o in values if o == v)
            totals[m] += smaller + (tied + 1) / 2.0
    avg = {m: totals[m] / len(functions) for m in methods}
    final = {m: 1 + sum(1 for o in methods if avg[o] < avg[m]) for m in methods}
    return avg, final


def _run_cell(spec: tuple) -> RunResult:
    """One cell's run from its plain spec: (method, function, dim, budget,
    seed, params, log_every). Module-level and fed only plain values, so a
    worker process of any start method can run it."""
    method, function, dim, budget, seed, params, log_every = spec
    return run_method(method, make_benchmark(function, dim), budget, seed, params,
                      log_every=log_every, benchmark=function)


# The calls a cell makes, as this module imported them. A caller that
# replaces one here (a tracer, a test double) observes only the cells that
# run in this process.
_CELL_CALLS = (make_benchmark, run_method)


def _default_workers(cells: int) -> int:
    """One worker per CPU this process may use, at most one per cell. One,
    so no pool, while a replaced run_method or make_benchmark observes the
    cells here, or where workers would not fork: a spawned or forkserver
    worker re-imports the main script, which breaks a script that calls
    run_experiment without an `if __name__ == "__main__":` guard."""
    if (make_benchmark, run_method) != _CELL_CALLS:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cells, cpus)
    if workers > 1:
        import multiprocessing

        # read the default start method without fixing it
        method = (multiprocessing.get_start_method(allow_none=True)
                  or multiprocessing.get_all_start_methods()[0])
        if method != "fork":
            return 1
    return workers


def run_experiment(cfg: ExperimentConfig) -> ExperimentTable:
    """Run every (method, function, repetition) cell and aggregate.

    The cells run in worker processes, one per CPU this process may use
    and at most one per cell (`taskset` limits them). They run in this
    process instead with one CPU, where workers would not start by fork, or
    while a replaced run_method or make_benchmark observes them. Each worker
    gets only the cell's plain spec; this process audits each run against
    the budget, in config order, and builds the table from the same values
    in the same order, so the table and the files written from it are
    byte-identical for any worker count. A failing cell raises what the
    cells run one after another raise first in config order, after the
    pool is shut down. The returned runs are sorted by cell coordinates.
    """
    entries = validate_config(cfg)
    specs = [
        (m.name, f.name, f.dim, cfg.budget,
         derive_seed(cfg.base_seed, m.key, f.name, f.dim, rep), m.params, cfg.log_every)
        for m in cfg.methods for f in cfg.functions for rep in range(cfg.repetitions)
    ]
    workers = _default_workers(len(specs))
    if workers == 1:
        return _tabulate(cfg, entries, specs, map(_run_cell, specs))
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers)
    try:
        return _tabulate(cfg, entries, specs, pool.map(_run_cell, specs, chunksize=1))
    finally:
        pool.shutdown(cancel_futures=True)


def _tabulate(cfg: ExperimentConfig, entries: dict[str, BenchmarkEntry],
              specs: list[tuple], results) -> ExperimentTable:
    """The table of the cells' results, taken in config order: each run is
    audited against the budget as it is taken."""
    done = zip(specs, results)
    records = []
    cells: dict[tuple[str, str], CellStats] = {}
    mean_distances: dict[str, dict[str, float]] = {m.key: {} for m in cfg.methods}
    for m in cfg.methods:
        for f in cfg.functions:
            cell = []
            for rep in range(cfg.repetitions):
                (_, _, _, _, seed, _, _), result = next(done)
                if result.evals_used > cfg.budget:
                    raise BudgetExceeded(
                        f"budget audit failed: {m.key} on {f.key} "
                        f"used {result.evals_used} > {cfg.budget}"
                    )
                distance = distance_to_minimum(entries[f.name], result.best_f, f.dim)
                cell.append(RunRecord(m.key, f.name, f.dim, rep, seed, result, distance))
            distances = np.array([r.distance for r in cell])
            evals = np.array([r.result.evals_used for r in cell], dtype=float)
            stats = CellStats(
                mean_distance=float(distances.mean()),
                std_distance=float(distances.std()),
                mean_evals=float(evals.mean()),
            )
            cells[(m.key, f.key)] = stats
            mean_distances[m.key][f.key] = stats.mean_distance
            records.extend(cell)
    records.sort(key=lambda r: (r.method, r.function, r.dim, r.repetition))

    table_ecr = ecr(mean_distances)
    avg, final = average_rank(mean_distances)
    return ExperimentTable(
        cells=cells,
        ecr=table_ecr,
        avg_rank=avg,
        final_rank=final,
        runs=records,
        config=cfg,
    )


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_results(table: ExperimentTable, cfg: ExperimentConfig) -> list[Path]:
    """Write results.csv, summary.json, and any trajectory logs.

    Numbers are serialized with 17 significant digits so reruns of the same
    config produce byte-identical files.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    csv_path = out / "results.csv"
    lines = ["method,function,dim,mean_distance,std_distance,mean_evals,budget"]
    for m in cfg.methods:
        for f in cfg.functions:
            stats = table.cells[(m.key, f.key)]
            lines.append(
                f"{m.key},{f.name},{f.dim},{_fmt(stats.mean_distance)},"
                f"{_fmt(stats.std_distance)},{_fmt(stats.mean_evals)},{cfg.budget}"
            )
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(csv_path)

    summary = {
        "version": __version__,
        "config": cfg.to_dict(),
        "cells": {
            f"{m}::{f}": {
                "mean_distance": stats.mean_distance,
                "std_distance": stats.std_distance,
                "mean_evals": stats.mean_evals,
            }
            for (m, f), stats in table.cells.items()
        },
        "ecr": table.ecr,
        "avg_rank": table.avg_rank,
        "final_rank": table.final_rank,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    written.append(summary_path)

    if cfg.log_every > 0:
        log_dir = out / "trajectories"
        log_dir.mkdir(exist_ok=True)
        for rec in table.runs:
            if rec.result.trajectory is None:
                continue
            log_path = log_dir / (
                f"{rec.method}_{rec.function}_{rec.dim}d_rep{rec.repetition}.json"
            )
            rec.result.trajectory.save(log_path)
            written.append(log_path)
    return written


__all__ = [
    "ECR_CLIP",
    "ECR_FLOOR",
    "CellStats",
    "ExperimentConfig",
    "ExperimentTable",
    "FunctionSpec",
    "MethodSpec",
    "RunRecord",
    "average_rank",
    "ecr",
    "run_experiment",
    "validate_config",
    "write_results",
]
