"""Hybrid runs: CMA-ES/WOA initialization feeding the particle flow."""

import numpy as np
import pytest

from sbsopt import (
    BudgetTooSmall,
    CmaesParams,
    ConfigError,
    EvalCounter,
    FilterConfig,
    HybridConfig,
    SbsConfig,
    WoaParams,
    cmaes_run,
    derive_seed,
    make_benchmark,
    make_objective,
    project_to_box,
    run_method,
    sbs_run,
    woa_run,
)
from sbsopt.optimizers import default_popsize, sample_gaussian, split_streams
from sbsopt.optimizers.hybrid import _hybrid_init_full


def hybrid(n_particles, cfg, **kwargs):
    return SbsConfig(n_particles=n_particles, hybrid=cfg, **kwargs)


class TestHybridConfig:
    def test_defaults(self):
        cfg = HybridConfig()
        assert cfg.cmaes_budget == 1000
        assert cfg.woa_iterations == 1000
        assert SbsConfig(hybrid=cfg).n_particles == 50

    def test_validation(self):
        with pytest.raises(ConfigError):
            HybridConfig(cmaes_budget=0)
        with pytest.raises(ConfigError):
            HybridConfig(woa_iterations=-1)
        with pytest.raises(ConfigError):
            HybridConfig(cmaes_budget="many")


class TestHybridInit:
    def test_woa_winner_hands_over_its_population(self):
        # a CMA phase starved to 12 evaluations loses to a long WOA phase;
        # the initial particles must then be the WOA population verbatim
        obj = make_benchmark("rastrigin", 2)
        seed = 4
        woa_result, woa_pop = woa_run(obj, WoaParams(10, 300), 10 * 301,
                                      derive_seed(seed, "hybrid-woa"))
        cma_result, _ = cmaes_run(obj, CmaesParams(), 12, derive_seed(seed, "hybrid-cma"))
        assert not (cma_result.best_f < woa_result.best_f)  # WOA wins this setup
        pts = _hybrid_init_full(obj, hybrid(10, HybridConfig(12, 300)), 12 + 10 * 301,
                                seed, EvalCounter())
        np.testing.assert_array_equal(pts, woa_pop[:10])

    def test_cma_winner_samples_its_gaussian(self):
        # generous CMA budget against a 5-iteration WOA: CMA wins, and the
        # particles are draws from its final search distribution
        obj = make_benchmark("rosenbrock", 2)
        seed = 7
        cma_result, gauss = cmaes_run(obj, CmaesParams(), 1000,
                                      derive_seed(seed, "hybrid-cma"))
        woa_result, _ = woa_run(obj, WoaParams(200, 5), 200 * 6,
                                derive_seed(seed, "hybrid-woa"))
        assert cma_result.best_f < woa_result.best_f
        counter = EvalCounter()
        pts = _hybrid_init_full(obj, hybrid(200, HybridConfig(1000, 5)), 1000 + 200 * 6,
                                seed, counter)
        rng = split_streams(derive_seed(seed, "hybrid-sample"), 1)[0]
        want = project_to_box(obj.domain, sample_gaussian(gauss, 200, rng))
        assert pts.tobytes() == want.tobytes()
        # CMA-ES's incumbent joins the counter that WOA scored on
        assert counter.best_x.tobytes() == cma_result.best_x.tobytes()
        assert counter.best_f == cma_result.best_f
        assert pts.shape == (200, 2)
        for x in pts:
            assert obj.domain.contains(x)
        # whitened displacement from the Gaussian mean stays within 6 sigma
        cov = gauss.cov * gauss.sigma**2
        delta = pts - gauss.mean
        maha = np.sqrt(np.einsum("nd,dc,nc->n", delta, np.linalg.inv(cov), delta))
        assert maha.max() < 6.0

    def test_counts_both_phases(self):
        obj = make_benchmark("sphere", 2)
        counter = EvalCounter()
        _hybrid_init_full(obj, hybrid(5, HybridConfig(60, 20)), budget=10**6, seed=0,
                          counter=counter)
        assert counter.evals_used == 60 + max(2, 5) * (20 + 1)

    def test_single_particle_request_is_valid(self):
        # WOA needs two agents, so a 1-particle init still runs with 2
        obj = make_benchmark("sphere", 2)
        counter = EvalCounter()
        pts = _hybrid_init_full(obj, hybrid(1, HybridConfig(60, 10)), budget=10**6,
                                seed=1, counter=counter)
        assert pts.shape == (1, 2)
        assert counter.evals_used == 60 + 2 * 11

    def test_checks_come_before_any_evaluation(self):
        obj = make_benchmark("rastrigin", 10)
        lam = default_popsize(10)
        for n, cfg, budget, error in (
            (10, HybridConfig(lam - 1, 5), 10**6, ConfigError),
            (10, HybridConfig(lam, 5), lam + 10 * 6 - 1, BudgetTooSmall),
            (1, HybridConfig(lam, 5), lam + 2 * 6 - 1, BudgetTooSmall),  # 2 WOA agents
        ):
            counter = EvalCounter()
            with pytest.raises(error):
                _hybrid_init_full(obj, hybrid(n, cfg), budget, 0, counter)
            assert counter.evals_used == 0


class TestHybridRun:
    def test_respects_budget(self):
        obj = make_benchmark("himmelblau", 2)
        cfg = HybridConfig(cmaes_budget=200, woa_iterations=30)
        for budget in (2000, 5000, 20_000):
            r = sbs_run(obj, hybrid(10, cfg), budget, 0)
            assert r.evals_used <= budget

    def test_budget_below_init_cost_raises(self):
        obj = make_benchmark("sphere", 2)
        cfg = HybridConfig(cmaes_budget=200, woa_iterations=30)
        init_cost = 200 + max(2, 10) * (30 + 1)
        with pytest.raises(BudgetTooSmall):
            sbs_run(obj, hybrid(10, cfg), init_cost - 1, 0)

    def test_cmaes_budget_below_one_generation_is_a_config_error(self):
        obj = make_benchmark("rastrigin", 10)
        lam = default_popsize(10)
        cfg = HybridConfig(cmaes_budget=lam - 1, woa_iterations=5)
        with pytest.raises(ConfigError) as err:
            sbs_run(obj, hybrid(10, cfg), 100_000, 0)
        assert err.value.field == "cmaes_budget"
        r = sbs_run(obj, hybrid(10, HybridConfig(cmaes_budget=lam, woa_iterations=5)),
                    2000, 0)
        assert r.evals_used <= 2000

    def test_exact_init_budget_returns_the_incumbent(self):
        # no room for even one continuation iteration: the init-phase
        # incumbent is the answer and zero iterations are reported
        obj = make_benchmark("rastrigin", 2)
        seed = 4
        cfg = HybridConfig(cmaes_budget=12, woa_iterations=300)
        init_cost = 12 + max(2, 10) * (300 + 1)
        r = sbs_run(obj, hybrid(10, cfg), init_cost, seed)
        assert r.iterations_done == 0
        assert r.evals_used == init_cost
        woa_result, _ = woa_run(obj, WoaParams(10, 300), 10 * 301,
                                derive_seed(seed, "hybrid-woa"))
        assert r.best_f == woa_result.best_f

    def test_init_spending_the_budget_still_reports_instruments(self):
        # diagnostics cover the zero iterations run; the trajectory holds the
        # initial particles, scored off-budget
        obj = make_benchmark("rastrigin", 2)
        cfg = HybridConfig(cmaes_budget=12, woa_iterations=300)
        init_cost = 12 + max(2, 10) * (300 + 1)
        r = sbs_run(obj, hybrid(10, cfg), init_cost, 4, collect_diagnostics=True,
                    log_every=5, benchmark="Rastrigin")
        assert r.diagnostics == []
        assert r.evals_used == init_cost
        (snap,) = r.trajectory.snapshots
        assert snap.iteration == 0 and snap.ids == list(range(10))
        np.testing.assert_array_equal(snap.f_values, obj.evaluator(snap.positions))

    def test_cmaes_stop_leaves_the_rest_of_its_slice_to_the_continuation(self):
        # CMA-ES's values go flat on Ackley-2d about halfway through a
        # 2000-evaluation slice; the continuation spends what it left
        obj = make_benchmark("ackley", 2)
        seed, n, d, budget = 0, 10, 2, 6000
        cfg = HybridConfig(cmaes_budget=2000, woa_iterations=20)
        cma_result, _ = cmaes_run(obj, CmaesParams(), 2000, derive_seed(seed, "hybrid-cma"))
        assert cma_result.evals_used < 2000 - default_popsize(d)
        init_spent = cma_result.evals_used + n * (20 + 1)
        counter = EvalCounter()
        _hybrid_init_full(obj, hybrid(n, cfg), budget, seed, counter)
        assert counter.evals_used == init_spent

        r = sbs_run(obj, hybrid(n, cfg), budget, seed)
        # each iteration pays 2 d n probes, and the answer n final values
        assert r.iterations_done == (budget - init_spent - n) // (2 * d * n)
        assert r.evals_used == init_spent + 2 * d * n * r.iterations_done + n <= budget
        assert r.evals_used - init_spent > budget - (2000 + n * (20 + 1))

    def test_continuation_never_loses_to_the_incumbent(self):
        obj = make_benchmark("sphere", 2)
        cfg = HybridConfig(cmaes_budget=150, woa_iterations=20)
        cma_result, _ = cmaes_run(obj, CmaesParams(), 150, derive_seed(3, "hybrid-cma"))
        woa_result, _ = woa_run(obj, WoaParams(10, 20), 10 * 21,
                                derive_seed(3, "hybrid-woa"))
        incumbent = min(cma_result.best_f, woa_result.best_f)
        r = sbs_run(obj, hybrid(10, cfg), 20_000, 3)
        assert r.best_f <= incumbent

    def test_continuation_that_only_ties_answers_the_incumbent(self):
        # on a constant objective every final particle ties the init
        # incumbent, which stays the answer under the strict-< rule
        obj = make_objective("flat", [-1.0, -1.0], [1.0, 1.0], lambda x: 2.5)
        cfg = hybrid(6, HybridConfig(cmaes_budget=60, woa_iterations=10))
        counter = EvalCounter()
        _hybrid_init_full(obj, cfg, 3000, 2, counter)
        incumbent_x, incumbent_f = counter.best_x, counter.best_f
        r = sbs_run(obj, cfg, 3000, 2, log_every=1)
        assert r.iterations_done > 0
        assert r.best_f == incumbent_f == 2.5
        assert r.best_x.tobytes() == incumbent_x.tobytes()
        # the first final particle is another point
        assert r.trajectory.snapshots[-1].positions[0].tobytes() != incumbent_x.tobytes()

    def test_deterministic_rerun(self):
        obj = make_benchmark("camel", 2)
        cfg = HybridConfig(cmaes_budget=150, woa_iterations=25)
        a = sbs_run(obj, hybrid(8, cfg), 10_000, 5)
        b = sbs_run(obj, hybrid(8, cfg), 10_000, 5)
        assert a.best_x.tobytes() == b.best_x.tobytes()
        assert a.evals_used == b.evals_used

    def test_pf_variant_without_filter_matches_plain(self):
        # a filter that never starts leaves the continuation exactly as plain
        obj = make_benchmark("levy", 2)
        cfg = HybridConfig(cmaes_budget=150, woa_iterations=25)
        plain = sbs_run(obj, hybrid(8, cfg), 8000, 6)
        pf = sbs_run(obj, hybrid(8, cfg, filter=FilterConfig(start_iteration=10**9)),
                     8000, 6)
        assert plain.best_x.tobytes() == pf.best_x.tobytes()
        assert plain.evals_used == pf.evals_used

    def test_filter_is_honoured_with_a_warm_start(self):
        obj = make_benchmark("levy", 2)
        cfg = HybridConfig(cmaes_budget=150, woa_iterations=25)
        plain = sbs_run(obj, hybrid(8, cfg), 8000, 6, collect_diagnostics=True)
        filtered = sbs_run(obj, hybrid(8, cfg, filter=FilterConfig(start_iteration=1)),
                           8000, 6, collect_diagnostics=True)
        assert plain.diagnostics[-1].live == 8
        assert filtered.diagnostics[-1].live < 8
        assert filtered.best_x.tobytes() != plain.best_x.tobytes()

    def test_registry_aliases_pick_the_parts(self):
        obj = make_benchmark("levy", 2)
        cfg = HybridConfig(cmaes_budget=150, woa_iterations=25)
        params = {"n_particles": 8, "cmaes_budget": 150, "woa_iterations": 25}
        for name, filter_cfg in (("sbs-hybrid", None), ("sbs-pf-hybrid", FilterConfig())):
            via_name = run_method(name, obj, 8000, 6, params)
            direct = sbs_run(obj, hybrid(8, cfg, filter=filter_cfg), 8000, 6)
            assert via_name.best_x.tobytes() == direct.best_x.tobytes(), name
            assert via_name.evals_used == direct.evals_used, name

    def test_pf_variant_filters_the_continuation(self):
        obj = make_benchmark("ackley", 2)
        cfg = HybridConfig(cmaes_budget=150, woa_iterations=25)
        r = sbs_run(obj, hybrid(30, cfg, filter=FilterConfig()), 40_000, 7,
                    collect_diagnostics=True)
        live = [rec.live for rec in r.diagnostics]
        assert live and live[-1] < 30
        assert r.evals_used <= 40_000

    def test_single_particle_hybrid(self):
        obj = make_benchmark("sphere", 2)
        cfg = HybridConfig(cmaes_budget=100, woa_iterations=10)
        r = sbs_run(obj, hybrid(1, cfg), 5000, 8)
        assert obj.domain.contains(r.best_x)
        assert r.evals_used <= 5000
