"""Pinned seeded results of all eight methods at small budgets.

The values were recorded when every evaluation still went through one
point at a time. They pin evals_used, iterations_done and best_f to the
bit, so any change to evaluation order, block scoring or floating-point
rounding that moves a seeded result fails here. sbs-pf runs far past its
filter's start_iteration (10) on every function.

A second table pins one run per method with non-default parameters, so
that every parameter key keeps reaching the run it configures, and two
runs on paths the first table never takes: CMA-ES clamping offspring and
WOA with two agents. All were recorded before CMA-ES and WOA drew and
moved their populations in blocks.
"""

import pytest

from sbsopt import make_benchmark, run_method

BUDGET = 8000
SEED = 3
FLOW = {"n_particles": 20}
HYBRID = {"n_particles": 20, "cmaes_budget": 200, "woa_iterations": 20}
PARAMS = {
    "sbs": FLOW, "sbs-pf": FLOW, "sbs-hybrid": HYBRID, "sbs-pf-hybrid": HYBRID,
    "cma-es": {}, "woa": {}, "cbo": {}, "langevin": {},
}

# (method, function, dim) -> (evals_used, iterations_done, best_f.hex())
GOLDEN = {
    ("sbs", "ackley", 2): (7940, 99, "0x1.4a3e85fa92371p+1"),
    ("sbs-pf", "ackley", 2): (7980, 205, "0x1.4a3b10f225529p+1"),
    ("sbs-hybrid", "ackley", 2): (7998, 92, "0x1.01fe1c766e200p-8"),
    ("sbs-pf-hybrid", "ackley", 2): (7968, 187, "0x1.5c7117e4e8200p-8"),
    ("cma-es", "ackley", 2): (7998, 1333, "0x1.0000000000000p-51"),
    ("woa", "ackley", 2): (7980, 265, "0x1.0000000000000p-51"),
    ("cbo", "ackley", 2): (8000, 79, "0x1.b70ed97962000p-12"),
    ("langevin", "ackley", 2): (8000, 160, "0x1.4a3b485c22ec1p+1"),
    ("sbs", "rastrigin", 10): (7620, 19, "0x1.c62a52f8d6e2cp+5"),
    ("sbs-pf", "rastrigin", 10): (7737, 19, "0x1.c555126bfacb8p+5"),
    ("sbs-hybrid", "rastrigin", 10): (7840, 18, "0x1.332ecfae12940p+0"),
    ("sbs-pf-hybrid", "rastrigin", 10): (7895, 30, "0x1.0536a90facb40p+0"),
    ("cma-es", "rastrigin", 10): (8000, 800, "0x1.dd947c8472af0p+3"),
    ("woa", "rastrigin", 10): (7980, 265, "0x0.0p+0"),
    ("cbo", "rastrigin", 10): (8000, 79, "0x1.06e3d76ad4ec0p+6"),
    ("langevin", "rastrigin", 10): (7990, 38, "0x1.6e8f86f2d1dbbp+6"),
    ("sbs", "rosenbrock", 5): (7820, 39, "0x1.1b3af4addf444p+12"),
    ("sbs-pf", "rosenbrock", 5): (7960, 37, "0x1.2eec9e229e5d3p+12"),
    ("sbs-hybrid", "rosenbrock", 5): (7840, 36, "0x1.7beb953ea1b42p+1"),
    ("sbs-pf-hybrid", "rosenbrock", 5): (7920, 34, "0x1.9bba781fb9830p+1"),
    ("cma-es", "rosenbrock", 5): (8000, 1000, "0x0.0p+0"),
    ("woa", "rosenbrock", 5): (7980, 265, "0x1.2b58930febeecp-8"),
    ("cbo", "rosenbrock", 5): (8000, 79, "0x1.27090d8cc36dap+2"),
    ("langevin", "rosenbrock", 5): (7996, 73, "0x1.14db030d6c6fdp+15"),
}


@pytest.mark.parametrize("method, function, dim", list(GOLDEN))
def test_seeded_result_is_pinned(method, function, dim):
    result = run_method(method, make_benchmark(function, dim), BUDGET, SEED,
                        dict(PARAMS[method]))
    got = (result.evals_used, result.iterations_done, float(result.best_f).hex())
    assert got == GOLDEN[method, function, dim]


# (method, function, dim, params) -> (evals_used, iterations_done, best_f.hex())
GOLDEN_PARAMS = {
    ("sbs", "ackley", 2, (("n_particles", 15), ("kappa", 50.0), ("step_size", 0.05),
                          ("sigma", 0.3), ("fd_step", 1e-5), ("max_iterations", 60))):
        (3615, 60, "0x1.4a72c725dc7b9p+1"),
    ("sbs-pf", "rastrigin", 3, (("n_particles", 30), ("q_value_percentile", 70.0),
                                ("p_move_percentile", 40.0), ("start_iteration", 3),
                                ("min_particles", 4))):
        (7976, 125, "0x1.fd6b240560780p+2"),
    ("sbs-hybrid", "rosenbrock", 5, (("n_particles", 10), ("cmaes_budget", 300),
                                     ("woa_iterations", 15))):
        (7966, 75, "0x1.177d024beebd2p+0"),
    ("sbs-pf-hybrid", "ackley", 2, (("n_particles", 25), ("cmaes_budget", 150),
                                    ("woa_iterations", 30), ("start_iteration", 2),
                                    ("sigma", 0.01))):
        (7970, 105, "0x1.820205c800000p-22"),
    ("cma-es", "rastrigin", 10, (("popsize", 12), ("sigma0", 0.5))):
        (7992, 666, "0x1.dd9452296b630p+3"),
    ("woa", "rosenbrock", 5, (("n_agents", 12), ("iterations", 100))):
        (1212, 100, "0x1.fd522c66bb24cp+1"),
    ("cbo", "ackley", 2, (("n_particles", 40), ("iterations", 50), ("alpha", 10.0),
                          ("lam_drift", 0.5), ("sigma_noise", 0.9), ("dt", 0.05))):
        (2040, 50, "0x1.a25ef4069f248p-2"),
    ("langevin", "rastrigin", 10, (("n_chains", 4), ("kappa", 100.0), ("eta", 1e-3))):
        (7984, 95, "0x1.a72b405c3bd69p+6"),
    # sigma0=100 against Ackley's [-5, 5] box: some offspring miss 100 times
    # and are clamped (tests/test_baselines.py counts them)
    ("cma-es", "ackley", 2, (("sigma0", 100.0),)):
        (7998, 1333, "0x1.0000000000000p-51"),
    ("woa", "rosenbrock", 5, (("n_agents", 2),)):
        (8000, 3999, "0x1.fe83b362bf6d4p+1"),
}


@pytest.mark.parametrize("method, function, dim, params", list(GOLDEN_PARAMS),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_seeded_result_with_parameters_is_pinned(method, function, dim, params):
    result = run_method(method, make_benchmark(function, dim), BUDGET, SEED, dict(params))
    got = (result.evals_used, result.iterations_done, float(result.best_f).hex())
    assert got == GOLDEN_PARAMS[method, function, dim, params]
