"""SVGD update direction, force decomposition, and the Adam preconditioner."""

import numpy as np
import pytest

from sbsopt import (
    BoltzmannTarget,
    DEFAULT_STEP_SIZE,
    EvalCounter,
    SbsConfig,
    ShapeMismatch,
    make_benchmark,
    make_objective,
    project_to_box,
    score,
)
from sbsopt.optimizers.sbs import _run_engine
from sbsopt.svgd import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, _forces,
                         _iterate_with_parts, adam_step)


def forces(positions, target, sigma):
    """(attraction, repulsion); their sum is the SVGD direction phi*."""
    _, attraction, repulsion, _ = _forces(positions, target, sigma, EvalCounter())
    return attraction, repulsion


def constant_objective(value=5.0):
    return make_objective("const", [-10.0, -10.0], [10.0, 10.0], lambda x: value)


def constant_objective_1d(value=5.0):
    return make_objective("const1", [-10.0], [10.0], lambda x: value)


class TestParticleArrays:
    """The engine carries the particles as one (N, d) array."""

    def test_single_particle_is_valid(self):
        obj = make_benchmark("sphere", 2)
        target = BoltzmannTarget(obj, kappa=1.0)
        moved, _ = _iterate_with_parts(np.array([[1.0, 2.0]]), target, 1.0, 0.03,
                                       AdamState.fresh(1, 2), EvalCounter())
        assert moved.shape == (1, 2)

    def test_coerces_1d_to_single_row(self):
        # a 1-d starting ensemble is one particle
        obj = make_benchmark("sphere", 3)
        r = _run_engine(obj, SbsConfig(max_iterations=2), 1000, EvalCounter(diagnostics=[]),
                        np.zeros(3), log_every=1)
        assert r.trajectory.snapshots[0].positions.shape == (1, 3)
        assert [rec.live for rec in r.diagnostics] == [1, 1]


class TestPhiStar:
    def test_two_particle_repulsion_closed_form(self):
        # constant f: scores vanish, phi* is pure repulsion.
        # At x = 0 and x = 1 with sigma = 1: phi* = -/+ exp(-1/2) / 2.
        obj = constant_objective_1d()
        target = BoltzmannTarget(obj, kappa=1.0)
        pts = np.array([[0.0], [1.0]])
        phi = sum(forces(pts, target, 1.0))
        expect = np.exp(-0.5) / 2.0
        np.testing.assert_allclose(phi, [[-expect], [expect]], rtol=0, atol=1e-15)

    def test_single_particle_equals_score_bitwise(self):
        # with one particle the kernel terms collapse: phi* == score exactly
        obj = make_benchmark("rastrigin", 2)
        target = BoltzmannTarget(obj, kappa=100.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-5, 5, size=(1, 2))
            phi = sum(forces(x, target, 0.5))
            s = score(target, x[0], EvalCounter())
            assert phi[0].tobytes() == s.tobytes()

    def test_permutation_equivariance(self):
        obj = make_benchmark("himmelblau", 2)
        target = BoltzmannTarget(obj, kappa=10.0)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-4, 4, size=(8, 2))
        perm = rng.permutation(8)
        phi = sum(forces(pts, target, 0.8))
        phi_perm = sum(forces(pts[perm], target, 0.8))
        np.testing.assert_allclose(phi_perm, phi[perm], rtol=1e-12, atol=1e-12)

    def test_matches_direct_summation(self):
        # independent O(N^2 d) loop over the defining sum
        obj = make_benchmark("sphere", 2)
        target = BoltzmannTarget(obj, kappa=3.0)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-3, 3, size=(6, 2))
        sigma = 0.7
        scores = np.stack([score(target, p, EvalCounter()) for p in pts])
        n = pts.shape[0]
        want = np.zeros_like(pts)
        for i in range(n):
            for j in range(n):
                delta = pts[i] - pts[j]
                kij = np.exp(-float(delta @ delta) / (2 * sigma**2))
                want[i] += scores[j] * kij + kij * delta / sigma**2
        want /= n
        got = sum(forces(pts, target, sigma))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


class TestForceDecomposition:
    def test_sum_is_exactly_phi_star(self):
        rng = np.random.default_rng(3)
        obj = make_benchmark("ackley", 2)
        target = BoltzmannTarget(obj, kappa=7.0)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            pts = rng.uniform(-5, 5, size=(n, 2))
            sigma = float(rng.uniform(0.1, 2.0))
            att, rep = forces(pts, target, sigma)
            # the iteration steps along exactly attraction + repulsion
            moved, _ = _iterate_with_parts(pts, target, sigma, 0.03,
                                           AdamState.fresh(n, 2), EvalCounter())
            step = adam_step(AdamState.fresh(n, 2), att + rep, 0.03)
            want = project_to_box(obj.domain, pts + step)
            assert moved.tobytes() == want.tobytes()

    def test_repulsion_antisymmetric_for_pair(self):
        obj = constant_objective()
        target = BoltzmannTarget(obj, kappa=1.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            pts = rng.uniform(-8, 8, size=(2, 2))
            att, rep = forces(pts, target, 1.0)
            np.testing.assert_allclose(rep[0], -rep[1], rtol=0, atol=1e-15)
            np.testing.assert_allclose(att, 0.0, atol=1e-12)

    def test_attraction_points_downhill_for_far_apart_particles(self):
        # single particle on the sphere: attraction = score = -2 kappa x
        obj = make_benchmark("sphere", 2)
        target = BoltzmannTarget(obj, kappa=1.0)
        pts = np.array([[2.0, 0.0]])
        att, rep = forces(pts, target, 1.0)
        assert att[0, 0] < 0  # pulls toward the origin
        np.testing.assert_allclose(rep, 0.0, atol=1e-15)


class TestAdam:
    def test_first_step_closed_form(self):
        # after one update: m_hat = g, v_hat = g^2, step = lr g / (|g| + eps)
        state = AdamState.fresh(1, 3)
        g = np.array([[2.0, -0.5, 1e-9]])
        got = adam_step(state, g, 0.05)
        want = 0.05 * g / (np.sqrt(g * g) + 1e-8)
        np.testing.assert_array_equal(got, want)

    def test_matches_reference_recurrence(self):
        # independent implementation of the moment recurrences
        rng = np.random.default_rng(5)
        state = AdamState.fresh(4, 2)
        m = np.zeros((4, 2))
        v = np.zeros((4, 2))
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 11):
            g = rng.normal(size=(4, 2))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            want = lr * m_hat / (np.sqrt(v_hat) + eps)
            got = adam_step(state, g, lr)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-16)

    def test_step_magnitude_bounded_by_lr(self):
        # normalized updates: |step| stays within a small multiple of lr
        state = AdamState.fresh(1, 1)
        rng = np.random.default_rng(6)
        for _ in range(100):
            g = rng.normal(scale=100.0, size=(1, 1))
            step = adam_step(state, g, 0.03)
            assert abs(step[0, 0]) < 0.03 * 3.0

    def test_keep_subsets_moments(self):
        state = AdamState.fresh(5, 2)
        adam_step(state, np.arange(10, dtype=float).reshape(5, 2), 0.1)
        m_before = state.m.copy()
        v_before = state.v.copy()
        t_before = state.t
        state.keep(np.array([0, 3, 4]))
        np.testing.assert_array_equal(state.m, m_before[[0, 3, 4]])
        np.testing.assert_array_equal(state.v, v_before[[0, 3, 4]])
        assert state.t == t_before

    def test_shape_mismatch_raises(self):
        state = AdamState.fresh(3, 2)
        with pytest.raises(ShapeMismatch):
            adam_step(state, np.zeros((2, 2)), 0.1)

    def test_in_place_step_is_a_fresh_array_with_the_expression_bits(self):
        # the displacement is computed in place; it must still be its own
        # array, and carry the bits of lr * m_hat / (sqrt(v_hat) + eps)
        rng = np.random.default_rng(11)
        state = AdamState.fresh(6, 3)
        for t in range(1, 41):
            g = rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-8, 8, size=(6, 3))
            g[t % 6] = 0.0  # a row with no direction: 0 / (0 + eps)
            lr = float(rng.choice([1e-3, 0.03, 0.5]))
            step = adam_step(state, g, lr)
            assert state.t == t
            m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
            v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
            want = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            assert step.tobytes() == want.tobytes(), t
            assert not np.shares_memory(step, state.m)
            assert not np.shares_memory(step, state.v)
            m, v = state.m.copy(), state.v.copy()
            step[...] = np.nan
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


class TestSvgdIterate:
    def test_costs_2dn_evaluations(self):
        obj = make_benchmark("sphere", 2)
        target = BoltzmannTarget(obj, kappa=1.0)
        pts = np.zeros((5, 2))
        counter = EvalCounter()
        adam = AdamState.fresh(5, 2)
        _iterate_with_parts(pts, target, 1.0, 0.03, adam, counter)
        assert counter.evals_used == 2 * 2 * 5

    def test_result_stays_in_domain(self):
        obj = make_benchmark("camel", 2)
        target = BoltzmannTarget(obj, kappa=1e3)
        rng = np.random.default_rng(7)
        pts = rng.uniform(obj.domain.lower, obj.domain.upper, size=(20, 2))
        adam = AdamState.fresh(20, 2)
        for _ in range(10):
            pts, _ = _iterate_with_parts(pts, target, 0.5, 0.5, adam, EvalCounter())
            for x in pts:
                assert obj.domain.contains(x)

    def test_single_particle_descends_quadratic(self):
        obj = make_benchmark("sphere", 2)
        target = BoltzmannTarget(obj, kappa=1e3)
        pts = np.array([[3.0, -4.0]])
        adam = AdamState.fresh(1, 2)
        for _ in range(600):
            pts, _ = _iterate_with_parts(pts, target, 1.0, DEFAULT_STEP_SIZE,
                                         adam, EvalCounter())
        assert float(pts[0] @ pts[0]) < 1e-4

    def test_default_step_size_value(self):
        assert DEFAULT_STEP_SIZE == 0.03
