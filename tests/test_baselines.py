"""Baseline optimizers: CMA-ES, WOA, CBO, Langevin."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbsopt import (
    BoxDomain,
    BudgetTooSmall,
    CboParams,
    CmaesParams,
    ConfigError,
    EvalCounter,
    LangevinParams,
    NonFiniteValue,
    SbsConfig,
    WoaParams,
    cbo_run,
    cmaes_run,
    langevin_run,
    make_benchmark,
    make_objective,
    run_method,
    sbs_run,
    split_streams,
    uniform_sample,
    woa_run,
)
from sbsopt.cli import main
from sbsopt.optimizers import available_methods, consensus_point, default_popsize
from sbsopt.optimizers import cmaes as cmaes_module
from sbsopt.optimizers.cmaes import _sample_offspring
from sbsopt.objective import evaluate, project_to_box, uniform_sample
from sbsopt.optimizers import woa as woa_module
from sbsopt.optimizers.base import population_iterations, split_streams
from sbsopt.optimizers.woa import CHUNK, _move, _plan


class TestCmaes:
    def test_respects_budget(self):
        obj = make_benchmark("rastrigin", 2)
        for budget in (100, 1000, 5000):
            result, _ = cmaes_run(obj, CmaesParams(), budget, seed=0)
            assert result.evals_used <= budget

    def test_one_generation_budget(self):
        obj = make_benchmark("sphere", 2)
        lam = default_popsize(2)
        result, _ = cmaes_run(obj, CmaesParams(), lam, seed=0)
        assert result.evals_used == lam

    def test_degenerate_start_scores_nothing_and_answers_its_mean(self):
        # sigma0 below the 1e-250 floor stops the run before its first generation
        obj = make_benchmark("sphere", 2)
        result, gauss = cmaes_run(obj, CmaesParams(sigma0=1e-300), 1000, seed=0)
        assert (result.evals_used, result.iterations_done, result.best_f) == (0, 0, math.inf)
        mean = uniform_sample(obj.domain, 1, split_streams(0, 2)[0])[0]
        assert result.best_x.tobytes() == gauss.mean.tobytes() == mean.tobytes()

    def test_budget_too_small(self):
        obj = make_benchmark("sphere", 2)
        with pytest.raises(BudgetTooSmall):
            cmaes_run(obj, CmaesParams(), default_popsize(2) - 1, seed=0)

    def test_popsize_validation(self):
        with pytest.raises(ConfigError) as err:
            CmaesParams(popsize=1)
        assert err.value.field == "popsize"

    def test_default_popsize_formula(self):
        assert default_popsize(2) == 4 + int(3 * np.log(2))
        assert default_popsize(10) == 4 + int(3 * np.log(10))

    def test_sphere_quality(self):
        obj = make_benchmark("sphere", 2)
        finals = [cmaes_run(obj, CmaesParams(), 2000, seed=s)[0].best_f for s in range(5)]
        assert np.median(finals) < 1e-8

    def test_rosenbrock_quality(self):
        obj = make_benchmark("rosenbrock", 2)
        finals = [cmaes_run(obj, CmaesParams(), 6000, seed=s)[0].best_f for s in range(5)]
        assert np.median(finals) < 1e-6

    def test_returned_gaussian_is_usable(self):
        obj = make_benchmark("sphere", 2)
        result, gauss = cmaes_run(obj, CmaesParams(), 3000, seed=1)
        assert gauss.sigma > 0
        np.testing.assert_allclose(gauss.cov, gauss.cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(gauss.cov).min() > 0
        # after convergence the search distribution sits on the optimum
        assert np.linalg.norm(gauss.mean) < 1e-3

    def test_deterministic(self):
        obj = make_benchmark("ackley", 2)
        a, _ = cmaes_run(obj, CmaesParams(), 1500, seed=7)
        b, _ = cmaes_run(obj, CmaesParams(), 1500, seed=7)
        assert a.best_x.tobytes() == b.best_x.tobytes()
        assert a.evals_used == b.evals_used

    def test_best_stays_in_domain(self):
        obj = make_benchmark("eggholder", 2)
        result, _ = cmaes_run(obj, CmaesParams(), 2000, seed=3)
        assert obj.domain.contains(result.best_x)


# median best_f of woa at 20k (30 agents) over seeds 0-23, when each agent
# drew its doubles and partner index one at a time
WOA_MEDIANS = {
    ("rosenbrock", 5): 0.04191572846920797,
    ("ackley", 2): 4.440892098500626e-16,
    ("levy", 2): 6.081851658433197e-06,
    ("rastrigin", 10): 0.0,
}


class TestWoa:
    def test_zero_iterations_returns_best_initial(self):
        obj = make_benchmark("sphere", 2)
        result, positions = woa_run(obj, WoaParams(8, 0), 8, seed=0)
        assert result.evals_used == 8
        assert result.iterations_done == 0
        assert positions.shape == (8, 2)

    def test_needs_two_agents(self):
        with pytest.raises(ConfigError) as err:
            WoaParams(n_agents=1, iterations=10)
        assert err.value.field == "n_agents"

    def test_negative_iterations_rejected(self):
        with pytest.raises(ConfigError) as err:
            WoaParams(n_agents=5, iterations=-1)
        assert err.value.field == "iterations"

    def test_respects_budget(self):
        obj = make_benchmark("rastrigin", 2)
        result, _ = woa_run(obj, WoaParams(10, 1000), 500, seed=0)
        assert result.evals_used <= 500

    def test_budget_too_small(self):
        obj = make_benchmark("sphere", 2)
        with pytest.raises(BudgetTooSmall):
            woa_run(obj, WoaParams(10, 5), 9, seed=0)

    def test_sphere_quality(self):
        obj = make_benchmark("sphere", 2)
        finals = [woa_run(obj, WoaParams(20, 200), 20 * 201, seed=s)[0].best_f
                  for s in range(5)]
        assert np.median(finals) < 1e-6

    @pytest.mark.parametrize("function, dim", list(WOA_MEDIANS))
    def test_quality_over_seeds_holds_after_the_block_draws(self, function, dim):
        # the median over 24 seeds may be at most 10x the median of the
        # agent-by-agent stream that the block draws replaced
        obj = make_benchmark(function, dim)
        finals = [woa_run(obj, WoaParams(), 20_000, seed=s)[0].best_f for s in range(24)]
        assert np.median(finals) <= 10.0 * WOA_MEDIANS[function, dim]

    def test_deterministic(self):
        obj = make_benchmark("holdertable", 2)
        a, pa = woa_run(obj, WoaParams(12, 50), 12 * 51, seed=4)
        b, pb = woa_run(obj, WoaParams(12, 50), 12 * 51, seed=4)
        assert a.best_x.tobytes() == b.best_x.tobytes()
        np.testing.assert_array_equal(pa, pb)

    def test_population_stays_in_domain(self):
        obj = make_benchmark("camel", 2)
        _, positions = woa_run(obj, WoaParams(10, 100), 10 * 101, seed=5)
        for x in positions:
            assert obj.domain.contains(x)

    def test_incumbent_improves_monotonically(self):
        obj = make_benchmark("ackley", 2)
        result, _ = woa_run(obj, WoaParams(10, 100), 10 * 101, seed=6,
                            collect_diagnostics=True)
        best = [rec.best_so_far for rec in result.diagnostics]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


POPULATION = {"cma-es": default_popsize(3), "woa": WoaParams().n_agents,
              "cbo": CboParams().n_particles, "langevin": LangevinParams().n_chains}


WARM = {"n_particles": 10, "cmaes_budget": 200, "woa_iterations": 20}
SBS_PARAMS = {"sbs": {"n_particles": 10}, "sbs-pf": {"n_particles": 10},
              "sbs-hybrid": WARM, "sbs-pf-hybrid": WARM}


@pytest.mark.parametrize("method", [*POPULATION, *SBS_PARAMS])
@pytest.mark.parametrize("function, budget", [("rastrigin", 20_000), ("rosenbrock", 3_000)])
def test_baseline_records_follow_the_run(method, function, budget):
    """One record per iteration, numbered 1..n, with a best_so_far that
    never rises and ends at the answer. A baseline's records cover its
    whole population."""
    r = run_method(method, make_benchmark(function, 3), budget, 2, SBS_PARAMS.get(method),
                   collect_diagnostics=True)
    records = r.diagnostics
    assert r.iterations_done > 0
    assert len(records) == r.iterations_done
    assert [rec.iteration for rec in records] == list(range(1, r.iterations_done + 1))
    best = [rec.best_so_far for rec in records]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert best[-1] == r.best_f
    if method in POPULATION:
        assert {rec.live for rec in records} == {POPULATION[method]}


def oracle_offspring(mean, sigma, basis, scales, lam, domain, rng):
    """The one-offspring-at-a-time loop that _sample_offspring replaced.

    Returns the offspring, the number of tries drawn and the number of
    offspring clamped after 100 misses.
    """
    d = mean.shape[0]
    offspring = np.empty((lam, d))
    tries = clamped = 0
    for k in range(lam):
        x = None
        for _ in range(100):
            z = rng.standard_normal(d)
            tries += 1
            candidate = mean + sigma * (basis @ (scales * z))
            if domain.contains(candidate):
                x = candidate
                break
        if x is None:
            x = np.clip(candidate, domain.lower, domain.upper)
            clamped += 1
        offspring[k] = x
    return offspring, tries, clamped


def reference_move(positions, best_x, a, rng):
    """One WOA iteration agent by agent from the same two draws, as the move
    was first written; also counts explorers."""
    n_agents = positions.shape[0]
    draws = rng.random((n_agents, 4)).tolist()
    partners = rng.integers(n_agents, size=n_agents) if a >= 1.0 else None
    moved = np.empty_like(positions)
    explorers = 0
    for i, (r1, r2, p, u) in enumerate(draws):
        amp = 2.0 * a * r1 - a
        spiral_l = -1.0 + 2.0 * u
        if p < 0.5:
            target = best_x
            if abs(amp) >= 1.0:
                explorers += 1
                target = positions[partners[i]]
            moved[i] = target - amp * np.abs(2.0 * r2 * target - positions[i])
        else:
            gap = np.abs(best_x - positions[i])
            moved[i] = (
                gap * math.exp(spiral_l) * math.cos(2.0 * math.pi * spiral_l) + best_x
            )
    return moved, explorers


def reference_woa(obj, params, budget, seed, counter):
    """woa_run as a loop of one reference_move per iteration, checking the
    budget before each, with counter's incumbent as the move target. Returns
    (best_x, best_f, iterations done, final population, move generator)."""
    n_agents = params.n_agents
    iterations = population_iterations(budget - counter.evals_used, n_agents, params.iterations)
    rng_init, rng_move = split_streams(seed, 2)
    positions = uniform_sample(obj.domain, n_agents, rng_init)
    evaluate(obj, positions, counter)
    done = 0
    for t in range(1, iterations + 1):
        if counter.evals_used + n_agents > budget:
            break
        moved, _ = reference_move(positions, counter.best_x, 2.0 - 2.0 * t / iterations,
                                  rng_move)
        positions = project_to_box(obj.domain, moved)
        evaluate(obj, positions, counter)
        done += 1
    return counter.best_x, counter.best_f, done, positions, rng_move


def planned_woa(monkeypatch, obj, params, budget, seed):
    """woa_run with its move generator and the length of every plan kept."""
    streams, plans = [], []

    def keep_streams(*args):
        streams.extend(split_streams(*args))
        return streams

    def keep_plans(a, *args):
        plans.append(len(a))
        return _plan(a, *args)

    monkeypatch.setattr(woa_module, "split_streams", keep_streams)
    monkeypatch.setattr(woa_module, "_plan", keep_plans)
    result, positions = woa_run(obj, params, budget, seed)
    return result, positions, streams[1], plans


def assert_same_run(monkeypatch, obj, params, budget, seed, spent=0):
    """woa_run on budget - spent equals reference_woa from a counter already
    holding spent evaluations: the answer, its cost, the population and the
    final state of the move generator. Returns the plan lengths."""
    loop_counter = EvalCounter(spent)
    result, positions, rng, plans = planned_woa(monkeypatch, obj, params, budget - spent,
                                                seed)
    best_x, best_f, done, loop_positions, loop_rng = reference_woa(
        obj, params, budget, seed, loop_counter)
    assert result.best_x.tobytes() == best_x.tobytes()
    assert result.best_f == best_f
    assert result.evals_used + spent == loop_counter.evals_used
    assert result.iterations_done == done == sum(plans)
    assert positions.tobytes() == loop_positions.tobytes()
    assert rng.bit_generator.state == loop_rng.bit_generator.state
    return plans


def twin_generators(seed):
    """Two generators in one state, with PCG64's buffered uint32 filled."""
    pair = [np.random.default_rng(seed), np.random.default_rng(seed)]
    for rng in pair:
        rng.integers(2**31, dtype=np.int32)
    assert pair[0].bit_generator.state["has_uint32"] == 1
    return pair


# mean offset of the first coordinate, in standard deviations of that
# coordinate, against a box whose first side is [-50, 1]: every try inside,
# half of them, about 1 in 100 (some offspring clamped), or none at all
SAMPLING = {"inside": -20.0, "resampling": 1.0, "mixed": 3.33, "clamped": 13.0}


class TestCmaesBlockSampling:
    @pytest.mark.parametrize("scenario", list(SAMPLING))
    @pytest.mark.parametrize("d", range(1, 11))
    def test_matches_the_one_at_a_time_loop(self, d, scenario):
        setup = np.random.default_rng(d)
        a = setup.standard_normal((d, d))
        eigvals, basis = np.linalg.eigh(a @ a.T + 0.1 * np.eye(d))
        scales = np.sqrt(eigvals)
        # sigma makes the first coordinate of a step a unit normal
        sigma = 1.0 / math.sqrt(float(basis[0] ** 2 @ eigvals))
        mean = setup.uniform(-1.0, 1.0, d)
        mean[0] = 1.0 + SAMPLING[scenario]
        lower = np.full(d, -1e6)
        upper = np.full(d, 1e6)
        lower[0], upper[0] = -50.0, 1.0
        domain = BoxDomain(lower, upper)
        lam = default_popsize(d) + d
        generations = 12 if scenario == "mixed" else 3

        block_rng, loop_rng = twin_generators(100 + d)
        tries = clamped = 0
        for _ in range(generations):
            got = _sample_offspring(mean, sigma, basis, scales, lam, domain, block_rng)
            want, n_tries, n_clamped = oracle_offspring(
                mean, sigma, basis, scales, lam, domain, loop_rng
            )
            assert got.tobytes() == want.tobytes()
            tries += n_tries
            clamped += n_clamped
        assert block_rng.bit_generator.state == loop_rng.bit_generator.state

        total = lam * generations
        if scenario == "inside":
            assert tries == total
        elif scenario == "resampling":
            assert tries > total and clamped == 0
        elif scenario == "mixed":
            assert 0 < clamped < total
        else:
            assert clamped == total and tries == 100 * total

    def test_pinned_sigma0_row_hits_the_clamp(self, monkeypatch):
        # the golden row cma-es, Ackley-2d, sigma0=100: run once with the
        # loop oracle in place of the block sampler, counting clamps
        obj = make_benchmark("ackley", 2)
        clamped = []

        def loop_sampler(*args):
            offspring, _, n_clamped = oracle_offspring(*args)
            clamped.append(n_clamped)
            return offspring

        block, _ = cmaes_run(obj, CmaesParams(sigma0=100.0), 8000, 3)
        monkeypatch.setattr(cmaes_module, "_sample_offspring", loop_sampler)
        loop, _ = cmaes_run(obj, CmaesParams(sigma0=100.0), 8000, 3)
        assert sum(clamped) > 0
        assert (block.evals_used, block.iterations_done) == (1122, 187)
        assert (loop.evals_used, loop.iterations_done) == (1122, 187)
        assert block.best_x.tobytes() == loop.best_x.tobytes()
        assert block.best_f == loop.best_f


class TestWoaBlockMove:
    @pytest.mark.parametrize("a", [2.0, 1.7, 1.0, 0.999, 0.5, 0.0])
    @pytest.mark.parametrize("n_agents", [2, 3, 30])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_matches_the_agent_by_agent_loop(self, d, n_agents, a):
        setup = np.random.default_rng(1000 * d + n_agents)
        positions = setup.uniform(-5.0, 5.0, (n_agents, d))
        best_x = positions[int(setup.integers(n_agents))].copy()
        block_rng, loop_rng = twin_generators(d + n_agents)
        explorers = 0
        for move in _plan(np.full(8, a), n_agents, block_rng):
            got = _move(positions, best_x, move)
            want, n_explorers = reference_move(positions, best_x, a, loop_rng)
            assert got.tobytes() == want.tobytes()
            explorers += n_explorers
            positions = np.clip(got, -5.0, 5.0)
        assert block_rng.bit_generator.state == loop_rng.bit_generator.state
        if a < 1.0:
            assert explorers == 0
        elif a > 1.0:
            assert explorers > 0

    @pytest.mark.parametrize("schedule", [
        [1.5, 1.0, 0.999, 0.5],  # a = 1 exactly, then below it
        [2.0, 1.2, 0.8, 1.1, 0.0],  # partner draws on both sides of a calm row
        [np.nextafter(1.0, 2.0), 1.0, np.nextafter(1.0, 0.0)],
    ])
    @pytest.mark.parametrize("n_agents", [2, 30])
    def test_a_crossing_one_inside_a_plan(self, n_agents, schedule):
        setup = np.random.default_rng(n_agents)
        positions = setup.uniform(-5.0, 5.0, (n_agents, 3))
        best_x = positions[0].copy()
        block_rng, loop_rng = twin_generators(7 * n_agents)
        for a, move in zip(schedule, _plan(np.array(schedule), n_agents, block_rng)):
            got = _move(positions, best_x, move)
            want, _ = reference_move(positions, best_x, a, loop_rng)
            assert got.tobytes() == want.tobytes()
            positions = np.clip(got, -5.0, 5.0)
        assert block_rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("iterations", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5, 333])
    def test_run_lengths_off_the_chunk(self, monkeypatch, iterations):
        obj = make_benchmark("ackley", 2)
        plans = assert_same_run(monkeypatch, obj, WoaParams(6, iterations),
                                6 * (iterations + 1), seed=iterations)
        assert plans[:-1] == [CHUNK] * (len(plans) - 1)
        assert 1 <= plans[-1] <= CHUNK

    @pytest.mark.parametrize("iterations", [100, 101, 2 * CHUNK, 2 * CHUNK + 1, 200])
    def test_a_crossing_one_inside_a_run(self, monkeypatch, iterations):
        # a = 2 - 2t / iterations reaches 1 at t = iterations / 2 (exactly
        # when it is even): inside the first chunk, on its last move, at its
        # end, or inside the second chunk
        obj = make_benchmark("rastrigin", 3)
        assert_same_run(monkeypatch, obj, WoaParams(9, iterations), 9 * (iterations + 1),
                        seed=3)

    @pytest.mark.parametrize("spent", [0, 1, 1234, 51_000 - 50 * 40 - 7])
    def test_a_warm_start_counter_already_spent(self, monkeypatch, spent):
        # the hybrid's WOA: 50 agents, a fixed schedule, a shared counter
        obj = make_benchmark("rosenbrock", 5)
        plans = assert_same_run(monkeypatch, obj, WoaParams(50, 1000), 51_000, seed=11,
                                spent=spent)
        assert sum(plans) == min(1000, (51_000 - spent) // 50 - 1)

    def test_plans_only_the_moves_the_budget_pays_for(self, monkeypatch):
        # a schedule of 10^12 iterations at budget 2,000: the initial 30
        # evaluations, then the 65 moves that 1,970 pay for
        obj = make_benchmark("ackley", 2)
        plans = assert_same_run(monkeypatch, obj, WoaParams(iterations=10**12), 2_000, seed=0)
        assert plans == [CHUNK, 1]


@pytest.mark.parametrize("n_agents, iterations, budget", [
    (30, None, 30 * 200),  # the default schedule, 199 moves
    (30, 500, 30 * 101 + 17),  # a longer schedule stopped mid-chunk by the budget
    (50, 1000, 50 * 1001),  # the hybrid's warm start
    (50, 1000, 50 * 150 + 49),
])
@pytest.mark.parametrize("function, d", [("sphere", 1), ("ackley", 5), ("rastrigin", 10)])
def test_woa_run_is_the_reference_loop(monkeypatch, function, d, n_agents, iterations, budget):
    assert_same_run(monkeypatch, make_benchmark(function, d),
                    WoaParams(n_agents, iterations), budget, seed=d + n_agents)


def flat_window(d, lam):
    """Hansen's EqualFunValues window, in generations."""
    return 10 + math.ceil(30 * d / lam)


def first_flat_generation(blocks, window):
    """Index of the first generation that ends a flat window, or None.

    The oracle of the stop: the generation and the window - 1 before it hold
    no NaN, their lowest values are one number, and every value of the
    generation is that number.
    """
    for g in range(window - 1, len(blocks)):
        recent = blocks[g - window + 1:g + 1]
        if any(np.isnan(b).any() for b in recent):
            continue
        low = recent[-1].min()
        if all(b.min() == low for b in recent) and (recent[-1] == low).all():
            return g
    return None


def first_stalled_generation(blocks, patience):
    """Index of the first generation that ends `patience` generations in a
    row without a new lowest value (NaN never is one), or None."""
    best, stalled = math.inf, 0
    for g, block in enumerate(blocks):
        low = np.fmin.reduce(block)
        best, stalled = (low, 0) if low < best else (best, stalled + 1)
        if stalled >= patience:
            return g
    return None


def first_stop(blocks, d, lam):
    """The generation at which either of CMA-ES's value-based stops fires."""
    window = flat_window(d, lam)
    stops = [first_flat_generation(blocks, window),
             first_stalled_generation(blocks, 15 * window)]
    return min((g for g in stops if g is not None), default=None)


@pytest.fixture
def generations(monkeypatch):
    """The value blocks cmaes_run scores, one per generation, in order."""
    blocks = []
    score = cmaes_module.evaluate

    def recording(obj, points, counter):
        f = score(obj, points, counter)
        blocks.append(f.copy())
        return f

    monkeypatch.setattr(cmaes_module, "evaluate", recording)
    return blocks


class TestCmaesFlatStop:
    @pytest.mark.parametrize("d", [2, 10])
    def test_constant_objective_stops_after_one_window(self, d, generations):
        obj = make_objective("flat", -np.ones(d), np.ones(d), lambda x: 1.0)
        lam = default_popsize(d)
        result, _ = cmaes_run(obj, CmaesParams(), 100_000, seed=0)
        assert result.iterations_done == len(generations) == flat_window(d, lam)
        assert result.evals_used == lam * flat_window(d, lam)
        assert result.best_f == 1.0

    def test_a_generation_holding_nan_never_counts(self, generations):
        # constant 1 on the left half of the box, NaN on the right: the mean
        # drifts left, and generations near the edge hold NaN
        obj = make_objective("half-nan", [-1.0, -1.0], [1.0, 1.0],
                             lambda x: math.nan if x[0] > 0.0 else 1.0)
        window = flat_window(2, default_popsize(2))
        result, _ = cmaes_run(obj, CmaesParams(), 20_000, seed=0)
        holding_nan = [g for g, b in enumerate(generations) if np.isnan(b).any()]
        # a NaN generation fell after the first window, and the stop came a
        # whole NaN-free window after the last one
        assert window < holding_nan[-1] + 1 < result.iterations_done
        assert result.iterations_done == holding_nan[-1] + 1 + window
        assert first_flat_generation(generations, window) == result.iterations_done - 1
        assert result.best_f == 1.0

    @pytest.mark.parametrize("function, dim, params", [
        ("sphere", 2, {}), ("ackley", 2, {}), ("levy", 2, {}), ("rosenbrock", 5, {}),
        ("rastrigin", 10, {"popsize": 12, "sigma0": 0.5}), ("rastrigin", 10, {}),
    ])
    def test_stops_at_the_first_flat_or_stalled_window(self, function, dim, params,
                                                      generations):
        budget = 40_000
        result, _ = cmaes_run(make_benchmark(function, dim), CmaesParams(**params),
                              budget, seed=1)
        lam = params.get("popsize", default_popsize(dim))
        assert result.evals_used == lam * result.iterations_done < budget
        assert result.iterations_done == len(generations)
        assert first_stop(generations, dim, lam) == result.iterations_done - 1

    def test_a_wobbling_run_stops_once_its_best_has_stalled(self, generations):
        # seed 1's values settle onto a few adjacent doubles by generation
        # ~310 and never go flat; its last new best comes at generation 355,
        # and the stall stop ends the run 15 windows (600 generations) later
        d, lam = 10, default_popsize(10)
        window = flat_window(d, lam)
        result, _ = cmaes_run(make_benchmark("rastrigin", d), CmaesParams(), 60_000, seed=1)
        assert first_flat_generation(generations, window) is None
        assert first_stalled_generation(generations, 15 * window) == len(generations) - 1
        assert result.evals_used < 15_000
        assert result.best_f == 11.939498609481333

    @pytest.mark.parametrize("function, dim", [("rastrigin", 10), ("rosenbrock", 5)])
    def test_every_seed_stops_well_inside_a_large_budget(self, function, dim):
        # what a run costs no longer depends on whether its values go flat
        used = [run_method("cma-es", make_benchmark(function, dim), 60_000, seed).evals_used
                for seed in range(6)]
        assert max(used) < 15_000

    def test_ackley_stops_long_before_a_large_budget(self):
        r = run_method("cma-es", make_benchmark("ackley", 2), 200_000, 0)
        assert r.evals_used < 5000
        assert r.best_f == 4.440892098500626e-16

    def test_experiment_summary_shows_evaluations_below_the_budget(self, tmp_path):
        config = {"functions": [{"name": "Ackley", "dim": 2}], "methods": [{"name": "cma-es"}],
                  "budget": 50_000, "repetitions": 2, "output_dir": str(tmp_path / "out")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        (cell,) = summary["cells"].values()
        assert cell["mean_evals"] < 5000


class TestCbo:
    def test_consensus_single_point(self):
        pt = np.array([[3.0, -2.0]])
        got = consensus_point(pt, np.array([7.0]), alpha=30.0)
        np.testing.assert_array_equal(got, [3.0, -2.0])

    def test_consensus_huge_alpha_picks_the_best(self):
        pts = np.arange(10.0).reshape(5, 2)
        f = np.array([5.0, 1.0, 9.0, 2.0, 8.0])
        got = consensus_point(pts, f, alpha=1e8)
        np.testing.assert_allclose(got, pts[1], atol=1e-9)

    def test_consensus_zero_alpha_is_the_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(7, 3))
        f = rng.uniform(size=7)
        got = consensus_point(pts, f, alpha=0.0)
        np.testing.assert_allclose(got, pts.mean(axis=0), rtol=1e-12)

    def test_consensus_overflow_safe(self):
        pts = np.array([[0.0], [1.0]])
        f = np.array([0.0, 1e6])
        got = consensus_point(pts, f, alpha=100.0)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, [0.0], atol=1e-12)

    def test_sphere_quality(self):
        obj = make_benchmark("sphere", 2)
        finals = [cbo_run(obj, CboParams(50, 500), 50 * 501, seed=s).best_f
                  for s in range(5)]
        assert np.median(finals) < 1e-3

    def test_respects_budget(self):
        obj = make_benchmark("rastrigin", 2)
        r = cbo_run(obj, CboParams(20, 1000), 800, seed=0)
        assert r.evals_used <= 800

    def test_deterministic(self):
        obj = make_benchmark("levy", 2)
        a = cbo_run(obj, CboParams(15, 50), 15 * 51, seed=2)
        b = cbo_run(obj, CboParams(15, 50), 15 * 51, seed=2)
        assert a.best_x.tobytes() == b.best_x.tobytes()

    def test_best_stays_in_domain(self):
        obj = make_benchmark("dropwave", 2)
        r = cbo_run(obj, CboParams(20, 100), 20 * 101, seed=1)
        assert obj.domain.contains(r.best_x)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CboParams(n_particles=1, iterations=10)
        with pytest.raises(ConfigError):
            CboParams(n_particles=10, iterations=-2)


class TestLangevin:
    def test_zero_eta_stays_at_initial_states(self):
        # no drift and no noise: the best is the best initial sample
        obj = make_benchmark("sphere", 2)
        r = langevin_run(obj, LangevinParams(4, 1e3, 0.0), 500, seed=0)
        r2 = langevin_run(obj, LangevinParams(4, 1e3, 0.0), 10_000, seed=0)
        assert r.best_f == r2.best_f  # more budget cannot help without motion

    def test_constant_objective(self):
        obj = make_objective("flat", [-1.0, -1.0], [1.0, 1.0], lambda x: 4.0)
        r = langevin_run(obj, LangevinParams(3, 10.0, 1e-4), 300, seed=0)
        assert r.best_f == 4.0

    def test_respects_budget(self):
        obj = make_benchmark("rastrigin", 2)
        for budget in (50, 500, 5000):
            r = langevin_run(obj, LangevinParams(5, 1e3, 1e-5), budget, seed=0)
            assert r.evals_used <= budget

    def test_budget_too_small(self):
        obj = make_benchmark("sphere", 2)
        with pytest.raises(BudgetTooSmall):
            langevin_run(obj, LangevinParams(1, 1.0, 1e-5), 3, seed=0)

    def test_sphere_quality(self):
        obj = make_benchmark("sphere", 2)
        finals = [
            langevin_run(obj, LangevinParams(5, 1e3, 1e-5), 30_000, seed=s).best_f
            for s in range(5)
        ]
        assert np.median(finals) < 1e-4

    def test_deterministic(self):
        obj = make_benchmark("ackley", 2)
        a = langevin_run(obj, LangevinParams(4, 1e3, 1e-5), 2000, seed=6)
        b = langevin_run(obj, LangevinParams(4, 1e3, 1e-5), 2000, seed=6)
        assert a.best_x.tobytes() == b.best_x.tobytes()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LangevinParams(n_chains=0, kappa=1.0, eta=1e-5)
        with pytest.raises(ConfigError):
            LangevinParams(n_chains=2, kappa=1.0, eta=-1e-5)


def half_nan_objective():
    """NaN for x_0 > 0, ||x||^2 elsewhere on [-1, 1]^2."""
    return make_objective("half-nan", [-1.0, -1.0], [1.0, 1.0],
                          lambda x: math.nan if x[0] > 0 else float(x @ x))


class TestNonFiniteValues:
    """Population methods and the sbs final answer never take NaN; gradient
    methods raise NonFiniteValue at a non-finite probe."""

    @pytest.mark.parametrize("method", ["cma-es", "woa", "cbo"])
    def test_population_method_never_answers_nan(self, method):
        r = run_method(method, half_nan_objective(), 3000, 0)
        assert r.evals_used <= 3000
        assert np.isfinite(r.best_f) and r.best_f < 1e-2
        assert r.best_x[0] <= 0.0 and r.best_f == float(r.best_x @ r.best_x)

    def test_sbs_final_answer_skips_nan(self):
        # one step carries particles past x_0 = 4.95, where f is NaN, after
        # their last finite probes; the answer is the best finite point scored
        obj = make_objective("halfnan", [-5.0, -5.0], [5.0, 5.0],
                             lambda p: math.nan if p[0] > 4.95 else -p[0])
        cfg = SbsConfig(n_particles=200, max_iterations=1, step_size=0.1)
        r = sbs_run(obj, cfg, 10_000, seed=5, collect_diagnostics=True)
        assert r.iterations_done == 1
        assert np.isfinite(r.best_f) and r.best_x[0] <= 4.95
        assert r.best_f == -r.best_x[0] and r.best_f < -4.8
        # the record skips NaN too, and covers the answer: here a probe that
        # beat every final particle
        last = r.diagnostics[-1]
        assert np.isfinite(last.min_f) and last.best_so_far == r.best_f < last.min_f

    def test_sbs_answer_when_every_final_value_is_nan(self):
        # one iteration's 2dN = 20 probes are finite, every later value is
        # NaN: the answer is the best of those probes, the first one on a tie
        probes = []

        def late_nan(x):
            if len(probes) == 20:
                return math.nan
            probes.append((float(x @ x), x.copy()))
            return probes[-1][0]

        obj = make_objective("late-nan", [-1.0, -1.0], [1.0, 1.0], late_nan)
        r = sbs_run(obj, SbsConfig(n_particles=5, max_iterations=1), 1000, seed=0)
        assert r.iterations_done == 1 and r.evals_used == 25
        best_f, best_x = min(probes, key=lambda probe: probe[0])
        assert r.best_f == best_f and r.best_x.tobytes() == best_x.tobytes()

    @pytest.mark.parametrize("method", ["cma-es", "woa"])
    def test_all_nan_answers_the_first_point_scored(self, method):
        scored = []

        def nan(x):
            scored.append(x.copy())
            return math.nan

        obj = make_objective("nan", [-1.0, -1.0], [1.0, 1.0], nan)
        r = run_method(method, obj, 300, 0)
        assert r.best_f == math.inf
        assert r.best_x.tobytes() == scored[0].tobytes()

    def test_langevin_raises_at_a_nan_probe(self):
        with pytest.raises(NonFiniteValue):
            run_method("langevin", half_nan_objective(), 3000, 0)

    def test_consensus_gives_nan_zero_weight(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        got = consensus_point(pts, np.array([math.nan, 1.0, 1.0]), alpha=1.0)
        np.testing.assert_array_equal(got, [1.5])

    def test_consensus_of_all_nan_raises(self):
        with pytest.raises(NonFiniteValue):
            consensus_point(np.zeros((2, 2)), np.array([math.nan, math.nan]), alpha=1.0)


class TestRunMethod:
    def test_available_methods(self):
        assert available_methods() == [
            "sbs", "sbs-pf", "sbs-hybrid", "sbs-pf-hybrid",
            "cma-es", "woa", "cbo", "langevin",
        ]

    def test_unknown_method_rejected(self):
        obj = make_benchmark("sphere", 2)
        with pytest.raises(ConfigError):
            run_method("gradient-descent", obj, 1000, 0)

    def test_unknown_param_rejected(self):
        obj = make_benchmark("sphere", 2)
        with pytest.raises(ConfigError) as err:
            run_method("sbs", obj, 1000, 0, {"n_particles": 5, "momentum": 0.9})
        assert err.value.field == "momentum"

    def test_every_method_runs_within_budget(self):
        obj = make_benchmark("sphere", 2)
        small = {"sbs": {"n_particles": 5}, "sbs-pf": {"n_particles": 5},
                 "sbs-hybrid": {"n_particles": 5, "cmaes_budget": 60,
                                "woa_iterations": 20},
                 "sbs-pf-hybrid": {"n_particles": 5, "cmaes_budget": 60,
                                   "woa_iterations": 20}}
        for name in available_methods():
            r = run_method(name, obj, 2000, seed=0, params=small.get(name))
            assert r.evals_used <= 2000, name
            assert np.isfinite(r.best_f), name
            assert obj.domain.contains(r.best_x), name

    def test_sigma_param_sets_fixed_bandwidth(self):
        obj = make_benchmark("sphere", 2)
        fixed = run_method("sbs", obj, 1500, 0, {"n_particles": 5, "sigma": 1.0})
        default = run_method("sbs", obj, 1500, 0, {"n_particles": 5})
        assert fixed.best_x.tobytes() != default.best_x.tobytes()

    def test_population_iterations_fit_budget(self):
        obj = make_benchmark("sphere", 2)
        r = run_method("woa", obj, 1000, 0, {"n_agents": 30})
        # 30 initial evaluations + 32 iterations of 30
        assert r.evals_used == 30 * (1000 // 30)
        r = run_method("cbo", obj, 1000, 0, {"n_particles": 100})
        assert r.evals_used == 1000

    def test_dispatch_matches_direct_call(self):
        obj = make_benchmark("rastrigin", 2)
        via_name = run_method("cma-es", obj, 1200, seed=5)
        direct, _ = cmaes_run(obj, CmaesParams(), 1200, seed=5)
        assert via_name.best_x.tobytes() == direct.best_x.tobytes()


# The parameter keys each method accepted before the method registry was
# built from config dataclasses; the registry must accept exactly these.
FILTER_KEYS = {"q_value_percentile", "p_move_percentile", "start_iteration",
               "min_particles"}
FLOW_KEYS = {"n_particles", "kappa", "step_size", "sigma", "fd_step", "max_iterations"}
HYBRID_KEYS = {"cmaes_budget", "woa_iterations"}
METHOD_KEYS = {
    "sbs": FLOW_KEYS,
    "sbs-pf": FLOW_KEYS | FILTER_KEYS,
    "sbs-hybrid": FLOW_KEYS | HYBRID_KEYS,
    "sbs-pf-hybrid": FLOW_KEYS | HYBRID_KEYS | FILTER_KEYS,
    "cma-es": {"popsize", "sigma0"},
    "woa": {"n_agents", "iterations"},
    "cbo": {"n_particles", "iterations", "alpha", "lam_drift", "sigma_noise", "dt"},
    "langevin": {"n_chains", "kappa", "eta"},
}

# a valid, cheap value for every key above
SAMPLE_VALUES = {
    "n_particles": 5, "kappa": 100.0, "step_size": 0.05, "sigma": 0.5,
    "fd_step": 1e-5, "max_iterations": 3, "q_value_percentile": 70.0,
    "p_move_percentile": 30.0, "start_iteration": 1, "min_particles": 2,
    "cmaes_budget": 60, "woa_iterations": 5, "popsize": 6, "sigma0": 1.0,
    "n_agents": 6, "iterations": 4, "alpha": 10.0, "lam_drift": 0.5,
    "sigma_noise": 0.5, "dt": 0.05, "n_chains": 3, "eta": 1e-4,
}


NAN = float("nan")
INF = float("inf")

# (method, key, value): each value is rejected when its method's parameter
# object is built, before any evaluation
BAD_VALUES = [
    ("sbs", "n_particles", 0),
    ("sbs", "n_particles", "many"),
    ("sbs", "kappa", -1),
    ("sbs", "kappa", INF),
    ("sbs", "step_size", 0),
    ("sbs", "sigma", -1),
    ("sbs", "fd_step", 0.0),
    ("sbs", "max_iterations", "x"),
    ("sbs-pf", "q_value_percentile", 0.0),
    ("sbs-pf", "p_move_percentile", 100.0),
    ("sbs-pf", "start_iteration", "soon"),
    ("sbs-pf", "min_particles", 0),
    ("sbs-hybrid", "cmaes_budget", 0),
    ("sbs-hybrid", "woa_iterations", None),
    ("cma-es", "popsize", "x"),
    ("cma-es", "sigma0", 0.0),
    ("woa", "n_agents", 0),
    ("woa", "iterations", "x"),
    ("cbo", "n_particles", 0),
    ("cbo", "alpha", "x"),
    ("cbo", "dt", -0.1),
    ("langevin", "n_chains", "x"),
    ("langevin", "eta", "x"),
    ("cma-es", "popsize", 1),
    ("woa", "n_agents", 1),
    ("woa", "iterations", -1),
    ("cbo", "n_particles", 1),
    ("cbo", "iterations", -1),
    ("cbo", "alpha", NAN),
    ("cbo", "alpha", INF),
    ("cbo", "lam_drift", NAN),
    ("cbo", "lam_drift", -INF),
    ("cbo", "sigma_noise", NAN),
    ("cbo", "sigma_noise", INF),
    ("cbo", "dt", NAN),
    ("cbo", "dt", INF),
    ("langevin", "n_chains", 0),
    ("langevin", "kappa", NAN),
    ("langevin", "kappa", -5),
    ("langevin", "kappa", 0),
    ("langevin", "kappa", INF),
    ("langevin", "eta", NAN),
    ("langevin", "eta", INF),
    ("langevin", "eta", -1e-5),
    ("sbs", "n_particles", 10.7),
    ("sbs", "n_particles", True),
    ("sbs-pf", "start_iteration", 2.5),
    ("sbs-hybrid", "cmaes_budget", 100.5),
    ("cma-es", "popsize", 6.5),
    ("woa", "iterations", 3.5),
    ("cbo", "iterations", True),
    ("langevin", "n_chains", 2.5),
    ("langevin", "kappa", True),
]


class TestConfigSurface:
    def test_pinned_methods_are_the_registry(self):
        assert set(METHOD_KEYS) == set(available_methods())

    @pytest.mark.parametrize("method", list(METHOD_KEYS))
    def test_accepts_every_pinned_key(self, method):
        obj = make_benchmark("sphere", 2)
        params = {key: SAMPLE_VALUES[key] for key in METHOD_KEYS[method]}
        r = run_method(method, obj, 2000, 0, params)
        assert r.evals_used <= 2000

    @pytest.mark.parametrize("method", list(METHOD_KEYS))
    def test_rejects_every_other_key(self, method):
        obj = make_benchmark("sphere", 2)
        others = set(SAMPLE_VALUES) - METHOD_KEYS[method] | {"momentum"}
        for key in sorted(others):
            with pytest.raises(ConfigError) as err:
                run_method(method, obj, 2000, 0, {key: SAMPLE_VALUES.get(key, 0.9)})
            assert err.value.field == key

    @pytest.mark.parametrize("method, key, value", BAD_VALUES)
    def test_bad_value_is_a_config_error(self, method, key, value):
        obj = make_benchmark("sphere", 2)
        with pytest.raises(ConfigError) as err:
            run_method(method, obj, 1000, 0, {key: value})
        assert err.value.field == key

    @pytest.mark.parametrize("method, key, value", BAD_VALUES)
    def test_bad_value_exits_2(self, method, key, value, capsys):
        code = main(["single", "--method", method, "--function", "sphere",
                     "--budget", "1000", "--param", f"{key}={json.dumps(value)}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err


# the parameter that sizes each method's population
SIZE_KEY = {
    "sbs": "n_particles", "sbs-pf": "n_particles", "sbs-hybrid": "n_particles",
    "sbs-pf-hybrid": "n_particles", "cma-es": "popsize", "woa": "n_agents",
    "cbo": "n_particles", "langevin": "n_chains",
}


class TestBudgetInvariant:
    @pytest.mark.parametrize("method", list(SIZE_KEY))
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(budget=st.integers(1, 4000), d=st.integers(1, 4), n=st.integers(2, 25),
           seed=st.integers(0, 2**32 - 1))
    def test_never_spends_past_the_budget(self, method, budget, d, n, seed):
        params = {SIZE_KEY[method]: n}
        if "-pf" in method:
            params["start_iteration"] = 1
        if "hybrid" in method:
            params.update(cmaes_budget=30, woa_iterations=3)
        obj = make_benchmark("rastrigin", d)
        lowest = [math.inf]

        def watched(x):
            f = obj.evaluator(x)
            lowest[0] = min(lowest[0], float(np.min(f)))
            return f

        watched.vectorized = obj.evaluator.vectorized
        try:
            r = run_method(method, dataclasses.replace(obj, evaluator=watched), budget,
                           seed, params)
        except BudgetTooSmall:
            return
        assert r.evals_used <= budget
        # the answer is the best point the run paid for, probes included
        assert r.best_f == lowest[0]
        assert float(obj.evaluator(r.best_x)) == r.best_f

    @pytest.mark.parametrize("method", ["sbs", "sbs-pf"])
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(budget=st.integers(1, 4000), d=st.integers(1, 4), n=st.integers(2, 25),
           start=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_sbs_leaves_less_than_one_iteration_unspent(self, method, budget, d, n, start,
                                                        seed):
        # an iteration starts while (2d + 1) N evaluations remain, N the live
        # count: its probes plus the filter's evaluations or the final argmin
        params = {"n_particles": n}
        if method == "sbs-pf":
            params["start_iteration"] = start
        try:
            r = run_method(method, make_benchmark("rastrigin", d), budget, seed, params,
                           collect_diagnostics=True)
        except BudgetTooSmall:
            return
        live = r.diagnostics[-1].live if r.diagnostics else n
        assert budget - r.evals_used < (2 * d + 1) * live

    @pytest.mark.parametrize("method", list(SIZE_KEY))
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(d=st.integers(1, 4), n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_too_small_exactly_below_the_minimum_cost(self, method, d, n, seed):
        # the documented cost of the first unit of work each method must afford
        params = {SIZE_KEY[method]: n}
        if "hybrid" in method:
            params.update(cmaes_budget=30, woa_iterations=3)
            cost = 30 + n * (3 + 1)
        elif method == "langevin":
            cost = 2 * d
        elif method.startswith("sbs"):
            cost = (2 * d + 1) * n
        else:
            cost = n
        obj = make_benchmark("rastrigin", d)
        with pytest.raises(BudgetTooSmall):
            run_method(method, obj, cost - 1, seed, params)
        r = run_method(method, obj, cost, seed, params)
        assert r.evals_used <= cost
