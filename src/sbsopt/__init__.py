"""Particle-based global optimization of box-constrained functions.

The core idea: treat minimization of f as sampling from a sharp Boltzmann
density proportional to exp(-kappa f), transport a deterministic particle
ensemble toward it with a kernelized score flow, and read the answer off
the best particle. Variants add particle filtering, warm starts from
CMA-ES or WOA, or both; classic stochastic baselines and an experiment
harness round out the package.
"""

__version__ = "0.1.0"

from .benchmarks import (
    BenchmarkEntry,
    distance_to_minimum,
    lookup,
    make_benchmark,
    registry,
)
from .boltzmann import DEFAULT_KAPPA, BoltzmannTarget, score
from .errors import (
    BudgetExceeded,
    BudgetTooSmall,
    ConfigError,
    NonFiniteValue,
    NotTwoDimensional,
    OutOfDomain,
    SbsError,
    ShapeMismatch,
    UnsupportedDimension,
)
from .harness import (
    ExperimentConfig,
    ExperimentTable,
    FunctionSpec,
    MethodSpec,
    average_rank,
    ecr,
    run_experiment,
    write_results,
)
from .objective import (
    BoxDomain,
    EvalCounter,
    Objective,
    evaluate,
    fd_gradient,
    make_objective,
    project_to_box,
    uniform_sample,
)
from .optimizers import (
    CboParams,
    CmaesParams,
    FilterConfig,
    HybridConfig,
    IterationRecord,
    LangevinParams,
    SbsConfig,
    WoaParams,
    available_methods,
    cbo_run,
    cmaes_run,
    derive_seed,
    langevin_run,
    pf_filter,
    run_method,
    sbs_run,
    split_streams,
    woa_run,
)
from .svgd import DEFAULT_STEP_SIZE, ksd
from .trajectory import TrajectoryLog, TrajectorySnapshot, plot_trajectories

__all__ = [
    "BenchmarkEntry",
    "BoltzmannTarget",
    "BoxDomain",
    "BudgetExceeded",
    "BudgetTooSmall",
    "CboParams",
    "CmaesParams",
    "ConfigError",
    "DEFAULT_KAPPA",
    "DEFAULT_STEP_SIZE",
    "EvalCounter",
    "ExperimentConfig",
    "ExperimentTable",
    "FilterConfig",
    "FunctionSpec",
    "HybridConfig",
    "IterationRecord",
    "LangevinParams",
    "MethodSpec",
    "NonFiniteValue",
    "NotTwoDimensional",
    "Objective",
    "OutOfDomain",
    "SbsConfig",
    "SbsError",
    "ShapeMismatch",
    "TrajectoryLog",
    "TrajectorySnapshot",
    "UnsupportedDimension",
    "WoaParams",
    "__version__",
    "available_methods",
    "average_rank",
    "cbo_run",
    "cmaes_run",
    "derive_seed",
    "distance_to_minimum",
    "ecr",
    "evaluate",
    "fd_gradient",
    "ksd",
    "langevin_run",
    "lookup",
    "make_benchmark",
    "make_objective",
    "pf_filter",
    "plot_trajectories",
    "project_to_box",
    "registry",
    "run_experiment",
    "run_method",
    "sbs_run",
    "score",
    "split_streams",
    "uniform_sample",
    "woa_run",
    "write_results",
]
