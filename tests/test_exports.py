"""The public surface of the package, pinned so export changes are deliberate."""

import sbsopt

EXPORTS = [
    "AdamState", "BenchmarkEntry", "BoltzmannTarget", "BoxDomain", "BudgetExceeded",
    "BudgetTooSmall", "ConfigError", "DEFAULT_KAPPA", "DEFAULT_STEP_SIZE",
    "DegenerateGrid", "EvalCounter", "ExperimentConfig", "ExperimentTable",
    "FilterConfig", "FunctionSpec", "GridDensity", "HybridConfig", "IterationRecord",
    "MethodSpec", "NonFiniteValue", "NotTwoDimensional", "Objective", "OutOfDomain",
    "Reference", "RunResult", "SbsConfig", "SbsError", "ShapeMismatch",
    "TrajectoryLog", "TrajectorySnapshot", "UnsupportedDimension", "__version__",
    "adam_step", "available_methods", "average_rank", "benchmark_names", "cbo_run",
    "cmaes_run", "density_on_grid", "derive_seed", "distance_to_minimum", "ecr",
    "evaluate", "expectation_on_grid", "fd_gradient", "ksd", "langevin_run", "lookup",
    "make_benchmark", "make_objective", "pf_filter", "plot_trajectories",
    "project_to_box", "registry", "run_experiment", "run_method", "sbs_run", "score",
    "split_streams", "uniform_sample", "woa_run", "write_results",
]


def test_all_is_pinned():
    assert sbsopt.__all__ == EXPORTS
    assert len(EXPORTS) == 62


def test_every_export_resolves():
    for name in EXPORTS:
        assert hasattr(sbsopt, name), name
