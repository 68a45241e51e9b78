"""End-to-end acceptance suite.

These tests pin the package's quantitative guarantees at desk scale: the
Boltzmann-limit closed form, the degenerate single-particle oracle, force
decomposition identities, KSD behavior, median solution quality per method,
the filtered variant's evaluation savings, hybrid dominance on the smooth
subset, and byte-level reproducibility of the experiment harness. Tolerances
were fixed from measured margins before the tests were frozen.
"""

import numpy as np
import pytest

from sbsopt import (
    BoltzmannTarget,
    CboParams,
    CmaesParams,
    EvalCounter,
    ExperimentConfig,
    FilterConfig,
    FunctionSpec,
    HybridConfig,
    LangevinParams,
    MethodSpec,
    SbsConfig,
    WoaParams,
    cbo_run,
    cmaes_run,
    ecr,
    fd_gradient,
    ksd,
    langevin_run,
    lookup,
    make_benchmark,
    make_objective,
    pf_filter,
    project_to_box,
    run_experiment,
    sbs_run,
    score,
    split_streams,
    uniform_sample,
    woa_run,
    write_results,
)
from sbsopt.svgd import AdamState, _forces, _iterate_with_parts, adam_step

from grid_oracle import density_on_grid, expectation_on_grid


def distance(entry_name, best_f, d=2):
    return abs(best_f - lookup(entry_name).f_star_for(d))


def sphere_grad(x):
    return 2.0 * x


def rosenbrock_grad(x):
    g = np.zeros_like(x)
    g[:-1] += -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) + 2.0 * (x[:-1] - 1.0)
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return g


def rastrigin_grad(x):
    return 2.0 * x + 20.0 * np.pi * np.sin(2.0 * np.pi * x)


class TestBoltzmannLimit:
    """The target concentrates on the minimum as kappa grows."""

    def test_grid_expectation_matches_closed_form(self):
        obj = make_objective("line", [0.0], [1.0], lambda x: float(x[0]))
        axis = np.linspace(0.0, 1.0, 10_001)
        expectations = []
        for kappa in (1.0, 10.0, 100.0):
            target = BoltzmannTarget(objective=obj, kappa=kappa)
            dens = density_on_grid(target, axis)
            got = expectation_on_grid(dens, lambda p: float(p[0]))
            closed = 1.0 / kappa - np.exp(-kappa) / (1.0 - np.exp(-kappa))
            assert got == pytest.approx(closed, abs=1e-4)
            expectations.append(got)
        # strictly decreasing toward f* = 0
        assert expectations[0] > expectations[1] > expectations[2] > 0.0


class TestDegenerateSvgdOracle:
    """One particle reduces to plain Adam descent, bitwise."""

    def test_single_particle_is_adam_descent(self):
        obj = make_benchmark("sphere", 2)
        kappa, lr, seed, iterations = 1e3, 0.03, 11, 1000

        # independent oracle: hand-rolled preconditioned gradient descent
        rng = split_streams(seed, 1)[0]
        x = uniform_sample(obj.domain, 1, rng)
        adam = AdamState.fresh(1, 2)
        counter = EvalCounter()
        for _ in range(iterations):
            direction = -kappa * fd_gradient(obj, x[0], counter)
            x = project_to_box(obj.domain, x + adam_step(adam, direction[None, :], lr))

        result = sbs_run(
            obj, SbsConfig(n_particles=1, kappa=kappa, step_size=lr,
                           max_iterations=iterations),
            10**8, seed,
        )
        assert result.best_x.tobytes() == x[0].tobytes()
        assert result.iterations_done == iterations


class TestForceDecomposition:
    """Attraction + repulsion = phi* exactly."""

    def test_decomposition_identity_100_configs(self):
        rng = np.random.default_rng(0)
        obj = make_benchmark("rastrigin", 2)
        target = BoltzmannTarget(obj, kappa=float(1e3))
        for _ in range(100):
            n = int(rng.integers(1, 12))
            pts = rng.uniform(-5, 5, size=(n, 2))
            sigma = float(rng.uniform(0.05, 2.0))
            att, rep, *_ = _forces(pts, target, sigma, EvalCounter())
            # the iteration steps along exactly attraction + repulsion
            moved = _iterate_with_parts(pts, target, sigma, 0.03,
                                        AdamState.fresh(n, 2), EvalCounter())
            step = adam_step(AdamState.fresh(n, 2), att + rep, 0.03)
            want = project_to_box(obj.domain, pts + step)
            assert moved.tobytes() == want.tobytes()

    def test_pair_repulsion_antisymmetric_100_configs(self):
        rng = np.random.default_rng(1)
        obj = make_objective("const", [-10.0, -10.0], [10.0, 10.0], lambda x: 1.0)
        target = BoltzmannTarget(obj, kappa=1.0)
        for _ in range(100):
            pts = rng.uniform(-9, 9, size=(2, 2))
            sigma = float(rng.uniform(0.1, 3.0))
            _, rep, *_ = _forces(pts, target, sigma, EvalCounter())
            np.testing.assert_allclose(rep[0], -rep[1], rtol=0, atol=1e-14)


class TestFdGradientAccuracy:
    """Finite differences track analytic gradients."""

    @pytest.mark.parametrize("name,grad", [
        ("sphere", sphere_grad),
        ("rosenbrock", rosenbrock_grad),
        ("rastrigin", rastrigin_grad),
    ])
    def test_100_random_points(self, name, grad):
        obj = make_benchmark(name, 3)
        rng = np.random.default_rng(0)
        lo, hi = obj.domain.lower, obj.domain.upper
        for _ in range(100):
            x = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
            fd = fd_gradient(obj, x, EvalCounter())
            exact = grad(x)
            rel = np.linalg.norm(fd - exact) / np.linalg.norm(exact)
            assert rel < 1e-4


class TestKsdSanity:
    """Nonnegativity, the N=1 closed form, and decay under SVGD."""

    def test_nonnegative_on_1000_random_sets(self):
        obj = make_benchmark("sphere", 2)
        target = BoltzmannTarget(obj, kappa=10.0)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            pts = rng.uniform(-5.12, 5.12, size=(n, 2))
            sigma = float(rng.uniform(0.2, 3.0))
            assert ksd(pts, target, sigma, EvalCounter()) >= 0.0

    def test_single_particle_closed_form(self):
        obj = make_benchmark("sphere", 2)
        target = BoltzmannTarget(obj, kappa=10.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-5, 5, size=(1, 2))
            sigma = float(rng.uniform(0.2, 3.0))
            s = score(target, x[0], EvalCounter())
            closed = float(s @ s) + 2.0 / sigma**2
            got = ksd(x, target, sigma, EvalCounter())
            assert abs(got - closed) < 1e-10 * max(1.0, abs(closed))

    def test_ksd_decays_over_a_sphere_run(self):
        # moderate temperature and an order-one bandwidth make the
        # discrepancy meaningful; it must drop by at least 10x in 500 steps
        obj = make_benchmark("sphere", 2)
        result = sbs_run(
            obj, SbsConfig(n_particles=50, kappa=1.0, step_size=0.03, sigma=1.0,
                           max_iterations=500),
            10**9, 3,
            collect_diagnostics=True, track_ksd=True,
        )
        first = result.diagnostics[0].ksd
        last = result.diagnostics[-1].ksd
        assert first > 0
        assert last < 0.1 * first


@pytest.mark.slow
class TestDeskScaleQuality:
    """Median distance to the optimum at a 200k budget."""

    TOLERANCES = {
        "sphere": 1e-6,
        "himmelblau": 1e-4,
        "ackley": 1e-2,
        "levy": 1e-3,
    }

    @pytest.mark.parametrize("name", sorted(TOLERANCES))
    def test_median_distance(self, name):
        obj = make_benchmark(name, 2)
        distances = []
        for seed in range(10):
            r = sbs_run(obj, SbsConfig(n_particles=100, kappa=1e3), 200_000, seed)
            assert r.evals_used <= 200_000
            distances.append(distance(name, r.best_f))
        assert float(np.median(distances)) < self.TOLERANCES[name]


@pytest.mark.slow
class TestFilteredBudgetReduction:
    """Filtering halves the spend without losing accuracy."""

    def test_evals_and_distance(self):
        obj = make_benchmark("ackley", 2)
        ratios, d_plain, d_filtered = [], [], []
        for seed in range(10):
            plain = sbs_run(obj, SbsConfig(n_particles=100, max_iterations=400),
                            200_000, seed)
            filtered = sbs_run(obj, SbsConfig(n_particles=100, max_iterations=400,
                                              filter=FilterConfig()), 200_000, seed)
            assert plain.iterations_done == filtered.iterations_done == 400
            ratios.append(filtered.evals_used / plain.evals_used)
            d_plain.append(distance("ackley", plain.best_f))
            d_filtered.append(distance("ackley", filtered.best_f))
        assert max(ratios) <= 0.5
        assert float(np.median(d_filtered)) <= 10.0 * float(np.median(d_plain))


@pytest.mark.slow
class TestHybridDominance:
    """Hybrid initialization beats plain runs on smooth functions."""

    SMOOTH = ["branin", "goldsteinprice", "himmelblau", "rosenbrock", "camel", "sphere"]

    def test_median_distance_on_smooth_subset(self):
        wins = 0
        cfg = HybridConfig(cmaes_budget=1000, woa_iterations=1000)
        for name in self.SMOOTH:
            obj = make_benchmark(name, 2)
            d_hybrid, d_plain = [], []
            for seed in range(10):
                h = sbs_run(obj, SbsConfig(n_particles=50, hybrid=cfg), 100_000, seed)
                p = sbs_run(obj, SbsConfig(n_particles=100), 100_000, seed)
                assert h.evals_used <= 100_000
                d_hybrid.append(distance(name, h.best_f))
                d_plain.append(distance(name, p.best_f))
            if float(np.median(d_hybrid)) <= float(np.median(d_plain)):
                wins += 1
        assert wins >= 4


@pytest.mark.slow
class TestBaselineSanity:
    """Reference optimizers hit their expected quality."""

    def test_cmaes_sphere(self):
        obj = make_benchmark("sphere", 2)
        finals = [cmaes_run(obj, CmaesParams(), 10_000, seed=s)[0].best_f
                  for s in range(10)]
        assert float(np.median(finals)) < 1e-10

    def test_woa_ackley(self):
        obj = make_benchmark("ackley", 2)
        finals = [woa_run(obj, WoaParams(30, 500), 30 * 501, seed=s)[0].best_f
                  for s in range(10)]
        assert float(np.median([distance("ackley", f) for f in finals])) < 1e-3

    def test_cbo_sphere(self):
        obj = make_benchmark("sphere", 2)
        finals = [
            cbo_run(obj, CboParams(100, 2000, alpha=30.0, lam_drift=1.0,
                                   sigma_noise=0.7, dt=0.1), 100 * 2001, seed=s).best_f
            for s in range(10)
        ]
        assert float(np.median([distance("sphere", f) for f in finals])) < 1e-2

    def test_langevin_sphere(self):
        obj = make_benchmark("sphere", 2)
        finals = [
            langevin_run(obj, LangevinParams(10, 1e3, 1e-5), 200_000, seed=s).best_f
            for s in range(10)
        ]
        assert float(np.median([distance("sphere", f) for f in finals])) < 1e-2


class TestMetricSuite:
    """ECR edge cases, rank sums, and reproducible files."""

    def test_ecr_clip(self):
        got = ecr({"A": {"f": 1e-6}, "B": {"f": 10.0}})
        assert got["B"] == 100.0

    def test_ecr_floor(self):
        got = ecr({"A": {"f": 1e-14}, "B": {"f": 1e-13}})
        assert got == {"A": 1.0, "B": 1.0}
        got = ecr({"A": {"f": 1e-14}, "B": {"f": 5.0}})
        assert got["B"] == 100.0

    def test_ecr_single_method(self):
        assert ecr({"only": {"f1": 0.3, "f2": 42.0}})["only"] == 1.0

    def test_rank_sum_is_k_k_plus_1_over_2(self):
        from sbsopt import average_rank

        for k in (2, 3, 5, 8):
            dists = {f"m{i}": {"f": float(i)} for i in range(k)}
            avg, _ = average_rank(dists)
            assert sum(avg.values()) == pytest.approx(k * (k + 1) / 2)
            # ties preserve the sum as well
            tied = {f"m{i}": {"f": 1.0} for i in range(k)}
            avg_t, _ = average_rank(tied)
            assert sum(avg_t.values()) == pytest.approx(k * (k + 1) / 2)

    def test_results_csv_byte_identical_on_rerun(self, tmp_path):
        def cfg(out):
            return ExperimentConfig(
                functions=[FunctionSpec("Sphere", 2)],
                methods=[MethodSpec("sbs", {"n_particles": 5}),
                         MethodSpec("cma-es")],
                budget=400,
                repetitions=2,
                output_dir=str(out),
            )

        c1 = cfg(tmp_path / "first")
        write_results(run_experiment(c1), c1)
        c2 = cfg(tmp_path / "second")
        write_results(run_experiment(c2), c2)
        first = (tmp_path / "first" / "results.csv").read_bytes()
        second = (tmp_path / "second" / "results.csv").read_bytes()
        assert first == second


class TestFilterInvariants:
    """Survivor floor, best retention, exact disable."""

    def test_survivors_respect_min_particles(self):
        obj = make_benchmark("ackley", 2)
        r = sbs_run(obj, SbsConfig(n_particles=60, filter=FilterConfig()), 100_000, 0,
                    collect_diagnostics=True)
        floor = max(5, 60 // 20)
        assert all(rec.live >= floor for rec in r.diagnostics)
        assert r.diagnostics[-1].live < 60  # the filter actually engaged

    def test_best_particle_always_survives(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            pos = rng.normal(size=(n, 2))
            prev = rng.normal(size=(n, 2))
            f = rng.normal(size=n)
            cfg = FilterConfig(
                q_value_percentile=float(rng.uniform(1, 100)),
                p_move_percentile=float(rng.uniform(0, 99)),
                start_iteration=0,
                min_particles=int(rng.integers(1, n + 1)),
            )
            keep = pf_filter(pos, prev, f, cfg)
            assert int(np.argmin(f)) in keep

    def test_disabled_filter_is_bitwise_plain_sbs(self):
        # a filter that never starts leaves the run exactly as plain sbs
        obj = make_benchmark("ackley", 2)
        plain = sbs_run(obj, SbsConfig(n_particles=25), 10_000, 4)
        disabled = sbs_run(obj, SbsConfig(n_particles=25,
                                          filter=FilterConfig(start_iteration=10**9)),
                           10_000, 4)
        assert plain.best_x.tobytes() == disabled.best_x.tobytes()
        assert plain.best_f == disabled.best_f
        assert plain.evals_used == disabled.evals_used
        assert plain.iterations_done == disabled.iterations_done
