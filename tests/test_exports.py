"""The public surface of the package, pinned so export changes are deliberate."""

import sbsopt

EXPORTS = [
    "BenchmarkEntry", "BoltzmannTarget", "BoxDomain", "BudgetExceeded",
    "BudgetTooSmall", "CboParams", "CmaesParams", "ConfigError", "DEFAULT_KAPPA",
    "DEFAULT_STEP_SIZE", "EvalCounter", "ExperimentConfig", "ExperimentTable",
    "FilterConfig", "FunctionSpec", "HybridConfig", "IterationRecord",
    "LangevinParams", "MethodSpec", "NonFiniteValue", "NotTwoDimensional",
    "Objective", "OutOfDomain", "RunResult", "SbsConfig", "SbsError",
    "ShapeMismatch", "TrajectoryLog", "TrajectorySnapshot", "UnsupportedDimension",
    "WoaParams", "__version__", "available_methods",
    "average_rank", "cbo_run", "cmaes_run", "derive_seed", "distance_to_minimum",
    "ecr", "evaluate", "fd_gradient", "ksd", "langevin_run", "lookup",
    "make_benchmark", "make_objective", "pf_filter", "plot_trajectories",
    "project_to_box", "registry", "run_experiment", "run_method", "sbs_run", "score",
    "split_streams", "uniform_sample", "woa_run", "write_results",
]


def test_all_is_pinned():
    assert sbsopt.__all__ == EXPORTS
    assert len(EXPORTS) == 58


def test_every_export_resolves():
    for name in EXPORTS:
        assert hasattr(sbsopt, name), name
