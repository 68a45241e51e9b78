"""Particle runs: budget accounting, filtering, and determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbsopt import (
    BudgetExceeded,
    BudgetTooSmall,
    ConfigError,
    FilterConfig,
    SbsConfig,
    make_benchmark,
    make_objective,
    pf_filter,
    sbs_run,
)
from sbsopt.objective import EvalCounter
from sbsopt.optimizers import sbs as sbs_module


class TestFilterConfig:
    def test_defaults(self):
        cfg = FilterConfig()
        assert cfg.q_value_percentile == 80.0
        assert cfg.p_move_percentile == 25.0
        assert cfg.start_iteration == 10
        assert cfg.min_particles is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            FilterConfig(q_value_percentile=0.0)
        with pytest.raises(ConfigError):
            FilterConfig(q_value_percentile=101.0)
        with pytest.raises(ConfigError):
            FilterConfig(p_move_percentile=100.0)
        with pytest.raises(ConfigError):
            FilterConfig(p_move_percentile=-1.0)
        with pytest.raises(ConfigError):
            FilterConfig(start_iteration=-1)
        with pytest.raises(ConfigError):
            FilterConfig(min_particles=0)


class TestPfFilter:
    def test_hand_case_removes_stalled_high_value_particle(self):
        # particle 3 has the worst value (above the 75th percentile 4.75)
        # and the smallest move (below the 25th percentile) -> removed
        f = np.array([1.0, 2.0, 3.0, 10.0])
        prev = np.zeros((4, 2))
        pos = prev.copy()
        pos[:3] += 1.0 / np.sqrt(2.0)
        pos[3, 0] = 0.001
        cfg = FilterConfig(q_value_percentile=75.0, p_move_percentile=25.0,
                           start_iteration=0, min_particles=1)
        keep = pf_filter(pos, prev, f, cfg)
        np.testing.assert_array_equal(keep, [0, 1, 2])

    def test_identical_population_survives(self):
        # with all values and moves equal, nothing is strictly above/below
        pos = np.ones((5, 2))
        prev = np.zeros((5, 2))
        f = np.full(5, 3.0)
        cfg = FilterConfig(q_value_percentile=50.0, p_move_percentile=50.0,
                           start_iteration=0, min_particles=1)
        keep = pf_filter(pos, prev, f, cfg)
        np.testing.assert_array_equal(keep, np.arange(5))

    def test_lenient_thresholds_keep_everyone(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=(20, 3))
        prev = rng.normal(size=(20, 3))
        f = rng.uniform(size=20)
        cfg = FilterConfig(q_value_percentile=99.9, p_move_percentile=0.01,
                           start_iteration=0, min_particles=1)
        keep = pf_filter(pos, prev, f, cfg)
        assert keep.size == 20

    def test_min_particles_floor(self):
        # thresholds so aggressive that nearly everything qualifies for
        # removal: the best min_particles values must survive
        f = np.array([10.0, 9.0, 8.0, 7.0, 2.0, 1.0])
        prev = np.zeros((6, 1))
        pos = np.array([[1e-9], [2e-9], [3e-9], [4e-9], [1.0], [1.1]])
        cfg = FilterConfig(q_value_percentile=1.0, p_move_percentile=99.0,
                           start_iteration=0, min_particles=3)
        keep = pf_filter(pos, prev, f, cfg)
        assert keep.size == 3
        np.testing.assert_array_equal(keep, [3, 4, 5])  # three lowest f-values

    def test_best_particle_always_survives(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 30))
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
            assert keep.size >= min(cfg.min_particles, n)
            assert np.all(np.diff(keep) > 0)  # sorted, unique

    # the engine does not run the filter at or below its floor, on this fact
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        floor=st.integers(1, 12),
        d=st.integers(1, 3),
        q=st.one_of(st.just(100.0), st.floats(0.0, 100.0, exclude_min=True)),
        p=st.one_of(st.just(0.0), st.floats(0.0, 100.0, exclude_max=True)),
    )
    def test_keeps_everyone_at_or_below_the_floor(self, data, floor, d, q, p):
        n = data.draw(st.integers(1, floor))
        # few distinct values, so that ties are common
        value = st.one_of(st.sampled_from([0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]),
                          st.floats(allow_nan=True, allow_infinity=True))
        f = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        coord = st.one_of(st.sampled_from([0.0, 0.5, -2.0]), st.floats(-1e6, 1e6))
        prev = np.array(data.draw(st.lists(coord, min_size=n * d, max_size=n * d)))
        pos = np.array(data.draw(st.lists(coord, min_size=n * d, max_size=n * d)))
        cfg = FilterConfig(q_value_percentile=q, p_move_percentile=p,
                           start_iteration=0, min_particles=floor)
        keep = pf_filter(pos.reshape(n, d), prev.reshape(n, d), f, cfg)
        np.testing.assert_array_equal(keep, np.arange(n))

    def test_requires_resolved_min_particles(self):
        cfg = FilterConfig()  # min_particles=None is only legal pre-resolution
        with pytest.raises(ConfigError):
            pf_filter(np.ones((3, 1)), np.zeros((3, 1)), np.arange(3.0), cfg)


class TestFilterPercentile:
    """pf_filter's thresholds are numpy's default (linear) percentiles."""

    @pytest.mark.parametrize("n", [*range(1, 61), 1000])
    def test_equals_numpy_bitwise(self, n):
        # with a floor of 1 the filter removes exactly the particles above
        # numpy's q-th value percentile and below its p-th move percentile
        rng = np.random.default_rng(n)
        for exponent in range(-8, 4):
            values = 10.0**exponent * rng.uniform(0.1, 1.0, n) * rng.choice([-1.0, 1.0], n)
            tied = rng.choice(values[: max(1, n // 3)], n)  # every value repeated
            moves = np.abs(rng.permutation(values))[:, None]  # sqrt(m * m) == m
            for f in (values, np.abs(values), tied):
                for q, p in ((10.0, 90.0), (25.0, 80.0), (50.0, 50.0), (80.0, 25.0),
                             (90.0, 10.0), (100.0, 0.0)):
                    cfg = FilterConfig(q_value_percentile=q, p_move_percentile=p,
                                       start_iteration=0, min_particles=1)
                    removed = ((f > np.percentile(f, q))
                               & (moves[:, 0] < np.percentile(moves[:, 0], p)))
                    keep = pf_filter(moves, np.zeros_like(moves), f, cfg)
                    np.testing.assert_array_equal(keep, np.flatnonzero(~removed),
                                                  err_msg=f"{n} {exponent} {q}")

    @pytest.mark.filterwarnings("error")
    def test_nan_gives_nan(self):
        # a NaN f-value makes the value threshold NaN, so no particle is removed
        f = np.array([1.0, np.nan, 2.0, 10.0])
        pos = np.array([[1.0], [1.0], [1.0], [1e-3]])
        cfg = FilterConfig(q_value_percentile=50.0, p_move_percentile=50.0,
                           start_iteration=0, min_particles=1)
        np.testing.assert_array_equal(pf_filter(pos, np.zeros_like(pos), f, cfg),
                                      np.arange(4))

    @pytest.mark.filterwarnings("error")
    def test_infinite_values_raise_no_warning(self):
        # interpolating next to an infinite value gives NaN or inf, silently
        pos = np.array([[1.0], [2.0], [3.0], [1e-3], [1e-3]])
        cfg = FilterConfig(q_value_percentile=80.0, p_move_percentile=50.0,
                           start_iteration=0, min_particles=1)
        for f in ([0.0, 1.0, -np.inf, np.inf, np.inf], [np.inf] * 5,
                  [-np.inf, 1.0, 2.0, 3.0, np.inf]):
            keep = pf_filter(pos, np.zeros_like(pos), np.array(f), cfg)
            np.testing.assert_array_equal(keep, np.arange(5))


class TestBudgetAudit:
    def test_engine_raises_typed_error(self):
        class OverCounting(EvalCounter):
            def tick(self, n=1):
                super().tick(n + 1)

        # d=2, N=5: three iterations reach 63 counted, the final argmin 69 > 68
        with pytest.raises(BudgetExceeded):
            sbs_module._run_engine(make_benchmark("sphere", 2), SbsConfig(n_particles=5),
                                   68, 0, OverCounting(), None)


class TestSbsRun:
    def test_respects_budget(self):
        obj = make_benchmark("ackley", 2)
        for budget in (500, 1000, 5000):
            r = sbs_run(obj, SbsConfig(n_particles=10), budget, 0)
            assert r.evals_used <= budget

    def test_exact_accounting_small_case(self):
        # d=2, N=10: iteration costs 40, final selection reserves 10.
        # budget 1000 -> 24 iterations (24*40 + 10 <= 1000), 970 evals total.
        obj = make_benchmark("sphere", 2)
        r = sbs_run(obj, SbsConfig(n_particles=10), 1000, 3)
        assert r.iterations_done == 24
        assert r.evals_used == 24 * 40 + 10

    def test_budget_too_small(self):
        obj = make_benchmark("sphere", 2)
        with pytest.raises(BudgetTooSmall):
            sbs_run(obj, SbsConfig(n_particles=10), 39, 0)

    def test_deterministic_rerun(self):
        obj = make_benchmark("himmelblau", 2)
        a = sbs_run(obj, SbsConfig(n_particles=20), 4000, 9)
        b = sbs_run(obj, SbsConfig(n_particles=20), 4000, 9)
        assert a.best_x.tobytes() == b.best_x.tobytes()
        assert a.best_f == b.best_f
        assert a.evals_used == b.evals_used

    def test_seeds_differ(self):
        obj = make_benchmark("himmelblau", 2)
        a = sbs_run(obj, SbsConfig(n_particles=20), 4000, 0)
        b = sbs_run(obj, SbsConfig(n_particles=20), 4000, 1)
        assert a.best_x.tobytes() != b.best_x.tobytes()

    def test_logging_does_not_change_the_run(self):
        # diagnostics and trajectory evaluations are off-budget instrumentation
        obj = make_benchmark("levy", 2)
        plain = sbs_run(obj, SbsConfig(n_particles=15), 3000, 2)
        logged = sbs_run(obj, SbsConfig(n_particles=15), 3000, 2,
                         collect_diagnostics=True, track_ksd=True, log_every=7)
        assert plain.best_x.tobytes() == logged.best_x.tobytes()
        assert plain.evals_used == logged.evals_used
        assert plain.iterations_done == logged.iterations_done

    def test_diagnostics_stream(self):
        obj = make_benchmark("sphere", 2)
        r = sbs_run(obj, SbsConfig(n_particles=10), 2000, 4,
                    collect_diagnostics=True, track_ksd=True)
        assert len(r.diagnostics) == r.iterations_done
        best = [rec.best_so_far for rec in r.diagnostics]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        assert all(rec.best_so_far <= rec.min_f for rec in r.diagnostics)
        assert all(rec.live == 10 for rec in r.diagnostics)
        assert all(rec.ksd is not None and rec.ksd >= -1e-9 for rec in r.diagnostics)
        # the returned answer is the argmin over the final ensemble; the
        # instrumented stream may have seen better intermediate states
        assert r.best_f == r.diagnostics[-1].min_f
        assert best[-1] <= r.best_f + 1e-12

    def test_constant_objective(self):
        obj = make_objective("flat", [-1.0, -1.0], [1.0, 1.0], lambda x: 2.5)
        r = sbs_run(obj, SbsConfig(n_particles=5), 200, 0)
        assert r.best_f == 2.5

    def test_single_particle_run(self):
        obj = make_benchmark("sphere", 2)
        r = sbs_run(obj, SbsConfig(n_particles=1), 500, 0)
        assert r.best_x.shape == (2,)
        assert obj.domain.contains(r.best_x)

    def test_explicit_init_positions(self):
        obj = make_benchmark("sphere", 2)
        init = np.array([[1.0, 1.0], [-1.0, 2.0], [0.5, -0.5]])
        r = sbs_module._run_engine(obj, SbsConfig(n_particles=99), 1000, 0, EvalCounter(),
                                  (init, init[0], np.inf), collect_diagnostics=True)
        # n_particles is taken from the init array, not the argument
        assert r.diagnostics[0].live == 3

    def test_max_iterations_caps_the_run(self):
        obj = make_benchmark("sphere", 2)
        r = sbs_run(obj, SbsConfig(n_particles=10, max_iterations=7), 10_000, 0)
        assert r.iterations_done == 7

    def test_negative_max_iterations_rejected(self):
        with pytest.raises(ConfigError) as err:
            SbsConfig(max_iterations=-4)
        assert err.value.field == "max_iterations"
        assert SbsConfig(max_iterations=0).max_iterations == 0

    def test_best_x_was_evaluated_to_best_f(self):
        obj = make_benchmark("rastrigin", 2)
        r = sbs_run(obj, SbsConfig(n_particles=10), 2000, 5)
        assert float(obj.evaluator(r.best_x)) == r.best_f


class TestInstrumentation:
    @staticmethod
    def counted_objective():
        calls = [0]

        def f(x):
            calls[0] += 1
            return float(x @ x)

        return make_objective("counted", [-1.0, -1.0], [1.0, 1.0], f), calls

    # d=2, N=5, budget 1000: 49 iterations of 20 evaluations, then 5 for the
    # answer. Off budget: one pass per recorded or logged iteration, plus
    # snapshot 0 when logging.
    @pytest.mark.parametrize("diagnostics, log_every, offbudget", [
        (False, 0, 0),
        (True, 0, 5 * 49),
        (False, 10, 5 * 6),  # snapshots 0, 10, 20, 30, 40 and the final 49
        (True, 10, 5 * 50),
        (True, 1, 5 * 50),
    ])
    def test_one_offbudget_pass_per_iteration(self, diagnostics, log_every, offbudget):
        obj, calls = self.counted_objective()
        r = sbs_run(obj, SbsConfig(n_particles=5), 1000, 3,
                    collect_diagnostics=diagnostics, track_ksd=diagnostics,
                    log_every=log_every)
        assert r.iterations_done == 49 and r.evals_used == 985
        assert calls[0] - r.evals_used == offbudget

    def test_ksd_is_skipped_without_diagnostics(self, monkeypatch):
        def fail(*args):
            raise AssertionError("KSD computed for no record")

        monkeypatch.setattr(sbs_module, "ksd_from_parts", fail)
        obj = make_benchmark("sphere", 2)
        r = sbs_run(obj, SbsConfig(n_particles=10), 2000, 4, track_ksd=True)
        assert r.diagnostics is None
        with pytest.raises(AssertionError):
            sbs_run(obj, SbsConfig(n_particles=10), 2000, 4, track_ksd=True,
                    collect_diagnostics=True)


class TestSbsPfRun:
    def test_disabled_filter_is_plain_sbs_bitwise(self):
        # a filter that never starts leaves the run exactly as plain sbs
        obj = make_benchmark("ackley", 2)
        plain = sbs_run(obj, SbsConfig(n_particles=20), 5000, 6)
        nofilter = sbs_run(obj, SbsConfig(n_particles=20,
                                          filter=FilterConfig(start_iteration=10**9)),
                           5000, 6)
        assert plain.best_x.tobytes() == nofilter.best_x.tobytes()
        assert plain.best_f == nofilter.best_f
        assert plain.evals_used == nofilter.evals_used
        assert plain.iterations_done == nofilter.iterations_done

    def test_no_removal_filter_matches_plain_positions(self):
        # q=100 removes only values strictly above the maximum: nobody.
        # The filtered run spends extra evaluations but the particle motion
        # is untouched, so with a shared iteration cap the answers coincide.
        obj = make_benchmark("himmelblau", 2)
        cfg = FilterConfig(q_value_percentile=100.0, p_move_percentile=50.0,
                           start_iteration=0, min_particles=1)
        plain = sbs_run(obj, SbsConfig(n_particles=12, max_iterations=30), 50_000, 7)
        filtered = sbs_run(obj, SbsConfig(n_particles=12, max_iterations=30, filter=cfg),
                           50_000, 7)
        assert plain.best_x.tobytes() == filtered.best_x.tobytes()
        assert filtered.evals_used > plain.evals_used  # filter evals are real

    def test_filtering_reduces_evaluations(self):
        obj = make_benchmark("ackley", 2)
        plain = sbs_run(obj, SbsConfig(n_particles=50, max_iterations=200), 100_000, 8)
        filtered = sbs_run(obj, SbsConfig(n_particles=50, max_iterations=200,
                                          filter=FilterConfig()), 100_000, 8)
        assert plain.iterations_done == filtered.iterations_done == 200
        assert filtered.evals_used < plain.evals_used

    def test_live_counts_never_increase_and_respect_floor(self):
        obj = make_benchmark("ackley", 2)
        r = sbs_run(obj, SbsConfig(n_particles=40, filter=FilterConfig()), 60_000, 9,
                    collect_diagnostics=True)
        live = [rec.live for rec in r.diagnostics]
        assert all(l2 <= l1 for l1, l2 in zip(live, live[1:]))
        assert live[-1] >= 5  # resolved floor: max(5, 40 // 20)
        assert live[0] == 40

    def test_deterministic_rerun(self):
        obj = make_benchmark("ackley", 2)
        cfg = SbsConfig(n_particles=30, filter=FilterConfig())
        a = sbs_run(obj, cfg, 20_000, 10)
        b = sbs_run(obj, cfg, 20_000, 10)
        assert a.best_x.tobytes() == b.best_x.tobytes()
        assert a.evals_used == b.evals_used

    def test_respects_budget(self):
        obj = make_benchmark("rastrigin", 2)
        for budget in (1000, 3000, 9000):
            r = sbs_run(obj, SbsConfig(n_particles=25, filter=FilterConfig()), budget, 0)
            assert r.evals_used <= budget

    def test_filter_is_not_run_at_its_floor(self, monkeypatch):
        # Ackley-2d, 40 particles: the resolved floor is max(5, 40 // 20) = 5,
        # reached after about 75 of the 131 iterations
        obj, d, budget, seed = make_benchmark("ackley", 2), 2, 10_000, 9
        calls = []

        def recording(positions, prev_positions, f_values, cfg):
            calls.append((len(positions), cfg.min_particles))
            return pf_filter(positions, prev_positions, f_values, cfg)

        monkeypatch.setattr(sbs_module, "pf_filter", recording)
        fcfg = FilterConfig()
        r = sbs_run(obj, SbsConfig(n_particles=40, filter=fcfg), budget, seed,
                    collect_diagnostics=True)
        monkeypatch.undo()
        live = [rec.live for rec in r.diagnostics]
        assert live.count(5) > 10 and calls
        assert all(floor == 5 and n > 5 for n, floor in calls)
        # the floor's iterations still make and charge their N evaluations
        entering = [40] + live[:-1]
        filtering = [n for i, n in enumerate(entering, 1) if i >= fcfg.start_iteration]
        final = 0 if r.iterations_done >= fcfg.start_iteration else live[-1]
        assert r.evals_used == 2 * d * sum(entering) + sum(filtering) + final
        explicit = sbs_run(obj, SbsConfig(n_particles=40,
                                          filter=FilterConfig(min_particles=5)),
                           budget, seed)
        assert (explicit.best_f, explicit.evals_used) == (r.best_f, r.evals_used)

    def test_min_particles_explicit_floor(self):
        obj = make_benchmark("ackley", 2)
        cfg = FilterConfig(min_particles=12)
        r = sbs_run(obj, SbsConfig(n_particles=30, filter=cfg), 40_000, 11,
                    collect_diagnostics=True)
        assert all(rec.live >= 12 for rec in r.diagnostics)
