"""Command line entry point.

Subcommands: run (an experiment config), bench list, single (one run),
plot (render a trajectory log), diag ksd (discrepancy per snapshot).
Exit codes: 0 success, 2 config error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .benchmarks import distance_to_minimum, lookup, make_benchmark, registry
from .boltzmann import DEFAULT_KAPPA, BoltzmannTarget, ksd
from .errors import ConfigError, SbsError
from .harness import ExperimentConfig, FunctionSpec, run_experiment, write_results
from .objective import EvalCounter
from .optimizers import available_methods, logs_trajectories, run_method
from .optimizers.base import check_number
from .trajectory import TrajectoryLog, plot_trajectories


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--param expects key=value, got {pair!r}", field="param")
        key, _, raw = pair.partition("=")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    table = run_experiment(cfg)
    files = write_results(table, cfg)
    for m in cfg.methods:
        print(
            f"{m.key}: ecr={table.ecr[m.key]:.4g} "
            f"avg_rank={table.avg_rank[m.key]:.4g} "
            f"final_rank={table.final_rank[m.key]}"
        )
    for path in files[:2]:
        print(f"wrote {path}")
    return 0


def _cmd_bench_list(args) -> int:
    for name, entry in registry().items():
        domain = entry.domain_for(2)
        box = " x ".join(
            f"[{lo:g}, {hi:g}]" for lo, hi in zip(domain.lower, domain.upper)
        )
        print(
            f"{name:16s} dims {entry.dims_label():12s} "
            f"domain(2d) {box:24s} f*(2d) = {entry.f_star_for(2):.10g}"
        )
    return 0


def _cmd_single(args) -> int:
    FunctionSpec(args.function, args.dim)  # ConfigError for a bad name or dimension
    check_number(args, "budget", int, minimum=1)  # as ExperimentConfig does
    if args.log_trajectory and not logs_trajectories(args.method):
        raise ConfigError(f"method {args.method!r} records no trajectory",
                          field="log_trajectory")
    if args.log_trajectory and args.log_every < 1:
        raise ConfigError(f"log_every must be positive, got {args.log_every}",
                          field="log_every")
    params = _parse_params(args.param or [])
    obj = make_benchmark(args.function, args.dim)
    log_every = args.log_every if args.log_trajectory else 0
    result = run_method(
        args.method, obj, args.budget, args.seed, params,
        log_every=log_every, benchmark=args.function,
    )
    report = {
        "method": args.method,
        "function": args.function,
        "dim": args.dim,
        "budget": args.budget,
        "seed": args.seed,
        "best_f": result.best_f,
        "distance": distance_to_minimum(lookup(args.function), result.best_f, args.dim),
        "evals_used": result.evals_used,
        "iterations_done": result.iterations_done,
        "best_x": [float(v) for v in result.best_x],
    }
    if args.log_trajectory:
        result.trajectory.save(args.log_trajectory)
        report["trajectory"] = args.log_trajectory
    print(json.dumps(report, indent=2))
    return 0


def _cmd_plot(args) -> int:
    log = TrajectoryLog.load(args.log)
    plot_trajectories(log, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_diag_ksd(args) -> int:
    log = TrajectoryLog.load(args.log)
    if log.benchmark is None:
        raise SbsError("trajectory log names no benchmark; cannot rebuild the target")
    obj = make_benchmark(log.benchmark, log.dim)
    kappa = log.kappa if log.kappa is not None else DEFAULT_KAPPA
    target = BoltzmannTarget(objective=obj, kappa=kappa)
    print("iteration  live  ksd")
    for snap in log.snapshots:
        value = ksd(snap.positions, target, snap.sigma, EvalCounter())
        print(f"{snap.iteration:9d}  {len(snap.ids):4d}  {value:.10g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbsopt",
        description="Particle-based global optimization of box-constrained functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment config")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="benchmark registry utilities")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_list = bench_sub.add_parser("list", help="list registered benchmark functions")
    p_list.set_defaults(func=_cmd_bench_list)

    p_single = sub.add_parser("single", help="run one optimizer on one benchmark")
    p_single.add_argument("--method", required=True, choices=available_methods())
    p_single.add_argument("--function", required=True)
    p_single.add_argument("--dim", type=int, default=2)
    p_single.add_argument("--budget", type=int, default=200_000)
    p_single.add_argument("--seed", type=int, default=0)
    p_single.add_argument("--param", action="append", metavar="KEY=VALUE",
                          help="method parameter, repeatable")
    p_single.add_argument("--log-trajectory", metavar="PATH",
                          help="write a trajectory log to PATH")
    p_single.add_argument("--log-every", type=int, default=10,
                          help="iterations between trajectory snapshots")
    p_single.set_defaults(func=_cmd_single)

    p_plot = sub.add_parser("plot", help="render a trajectory log as SVG")
    p_plot.add_argument("log", help="trajectory log path")
    p_plot.add_argument("-o", "--out", required=True, help="output SVG path")
    p_plot.set_defaults(func=_cmd_plot)

    p_diag = sub.add_parser("diag", help="diagnostics on trajectory logs")
    diag_sub = p_diag.add_subparsers(dest="diag_command", required=True)
    p_ksd = diag_sub.add_parser("ksd", help="discrepancy of each logged snapshot")
    p_ksd.add_argument("log", help="trajectory log path")
    p_ksd.set_defaults(func=_cmd_diag_ksd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
