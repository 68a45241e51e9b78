"""Tests for the objective layer: domains, evaluation accounting, FD gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbsopt import (
    BoxDomain,
    EvalCounter,
    NonFiniteValue,
    OutOfDomain,
    evaluate,
    fd_gradient,
    lookup,
    make_benchmark,
    make_objective,
    project_to_box,
    uniform_sample,
)


def fd_gradient_loop(obj, x, counter, h=None):
    """The single-point central-difference loop, kept as the oracle of the
    block form: one coordinate at a time, + probe then - probe."""
    x = np.asarray(x, dtype=float)
    lo, hi = obj.domain.lower, obj.domain.upper
    grad = np.empty(x.size)
    for i in range(x.size):
        step = h if h is not None else 1e-6 * max(1.0, abs(x[i]))
        x_plus, x_minus = x.copy(), x.copy()
        x_plus[i] = min(x[i] + step, hi[i])
        x_minus[i] = max(x[i] - step, lo[i])
        f_plus = evaluate(obj, x_plus, counter)
        f_minus = evaluate(obj, x_minus, counter)
        grad[i] = (f_plus - f_minus) / (x_plus[i] - x_minus[i])
    return grad


def quad_objective(d=3, half_width=10.0):
    return make_objective(
        "quad", [-half_width] * d, [half_width] * d, lambda x: float(x @ x)
    )


class TestBoxDomain:
    def test_basic_properties(self):
        dom = BoxDomain(np.array([-1.0, 0.0]), np.array([2.0, 5.0]))
        assert dom.d == 2
        np.testing.assert_array_equal(dom.widths, [3.0, 5.0])

    def test_contains_is_closed(self):
        dom = BoxDomain(np.array([-1.0]), np.array([1.0]))
        assert dom.contains(np.array([-1.0]))
        assert dom.contains(np.array([1.0]))
        assert dom.contains(np.array([0.3]))
        assert not dom.contains(np.array([1.0 + 1e-12]))
        assert not dom.contains(np.array([0.0, 0.0]))  # wrong shape
        assert dom.contains(np.array([[-1.0], [0.3], [1.0]]))  # a block of points
        assert not dom.contains(np.array([[0.3], [1.0 + 1e-12]]))
        assert not dom.contains(np.zeros((2, 1, 1)))

    def test_contains_is_false_on_non_finite_coordinates(self):
        dom = BoxDomain(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        assert dom.contains(np.array([[-1.0, 0.0], [1.0, 2.0], [-0.0, -0.0]]))
        for bad in (np.nan, np.inf, -np.inf):
            for k in range(2):
                x = np.array([0.5, 1.0])
                x[k] = bad
                assert not dom.contains(x)
                assert not dom.contains(np.stack([np.zeros(2), x]))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            BoxDomain(np.array([1.0]), np.array([1.0]))  # empty interior
        with pytest.raises(ValueError):
            BoxDomain(np.array([2.0]), np.array([1.0]))  # inverted
        with pytest.raises(ValueError):
            BoxDomain(np.array([0.0, 0.0]), np.array([1.0]))  # length mismatch
        with pytest.raises(ValueError):
            BoxDomain(np.array([0.0]), np.array([np.inf]))  # non-finite


class TestEvaluate:
    def test_counts_one_per_call(self):
        obj = quad_objective()
        counter = EvalCounter()
        for i in range(7):
            evaluate(obj, np.zeros(3), counter)
        assert counter.evals_used == 7

    def test_tick_batch(self):
        counter = EvalCounter()
        counter.tick(5)
        counter.tick()
        assert counter.evals_used == 6

    def test_record_keeps_the_first_strictly_lowest(self):
        counter = EvalCounter()
        pts = np.arange(8.0).reshape(4, 2)
        counter.record(pts[:0], np.array([]))  # an empty block changes nothing
        assert counter.best_x is None and counter.best_f == np.inf
        counter.record(pts[:2], np.array([np.nan, np.inf]))  # nothing below inf
        assert counter.best_x.tobytes() == pts[0].tobytes() and counter.best_f == np.inf
        counter.record(pts, np.array([np.nan, 2.0, 1.0, 1.0]))  # NaN never wins
        assert counter.best_x.tobytes() == pts[2].tobytes() and counter.best_f == 1.0
        counter.record(pts[3:], np.array([1.0]))  # a tie is not an improvement
        assert counter.best_x.tobytes() == pts[2].tobytes()
        assert counter.evals_used == 0  # record never ticks

    def test_out_of_domain_raises_and_does_not_count(self):
        obj = quad_objective(half_width=1.0)
        counter = EvalCounter()
        with pytest.raises(OutOfDomain):
            evaluate(obj, np.array([2.0, 0.0, 0.0]), counter)
        assert counter.evals_used == 0


class TestBlockEvaluate:
    def test_block_ticks_one_per_row(self):
        obj = make_benchmark("rastrigin", 4)
        counter = EvalCounter()
        block = uniform_sample(obj.domain, 9, np.random.default_rng(0))
        values = evaluate(obj, block, counter)
        assert values.shape == (9,)
        assert counter.evals_used == 9
        assert evaluate(obj, block[:0], counter).shape == (0,)
        assert counter.evals_used == 9

    def test_out_of_box_row_raises_before_counting(self):
        obj = make_benchmark("sphere", 3)
        block = np.zeros((5, 3))
        block[3, 1] = 5.2
        counter = EvalCounter()
        with pytest.raises(OutOfDomain, match=r"5\.2"):
            evaluate(obj, block, counter)
        assert counter.evals_used == 0

    def test_a_nan_row_raises_before_counting(self):
        obj = make_benchmark("sphere", 3)
        block = np.zeros((5, 3))
        block[2, 0] = np.nan
        counter = EvalCounter()
        with pytest.raises(OutOfDomain, match="nan"):
            evaluate(obj, block, counter)
        with pytest.raises(OutOfDomain, match="nan"):
            evaluate(obj, block[2], counter)
        assert counter.evals_used == 0

    def test_wrong_width_raises(self):
        obj = make_benchmark("sphere", 3)
        with pytest.raises(OutOfDomain):
            evaluate(obj, np.zeros((2, 4)), EvalCounter())
        with pytest.raises(OutOfDomain):
            evaluate(obj, np.zeros((2, 2, 3)), EvalCounter())

    def test_registry_block_matches_single_points(self):
        obj = make_benchmark("ackley", 2)
        block = uniform_sample(obj.domain, 50, np.random.default_rng(1))
        values = evaluate(obj, block, EvalCounter())
        single = [evaluate(obj, x, EvalCounter()) for x in block]
        assert all(isinstance(v, float) for v in single)
        assert values.tobytes() == np.array(single).tobytes()

    def test_plain_callable_takes_the_row_loop(self):
        calls = []

        def spy(x):
            calls.append(x.copy())
            return float(x @ x)

        obj = make_objective("spy", [-1.0, -1.0], [1.0, 1.0], spy)
        assert not getattr(obj.evaluator, "vectorized", False)
        block = uniform_sample(obj.domain, 6, np.random.default_rng(2))
        counter = EvalCounter()
        values = evaluate(obj, block, counter)
        assert counter.evals_used == 6
        assert [c.shape for c in calls] == [(2,)] * 6
        np.testing.assert_array_equal(np.array(calls), block)
        np.testing.assert_array_equal(values, [float(x @ x) for x in block])


class TestBlockFdGradient:
    # d = 1 is the edge of the strided probe slices: the stride 2d + 1 = 3
    # spans a row of only 2 probe slots
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        d=st.sampled_from([1, 2, 3, 5, 10]),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        on_edge=st.booleans(),
        h=st.sampled_from([None, 1e-3, 0.5]),
    )
    def test_block_equals_point_loop(self, data, d, n, seed, on_edge, h):
        names = ["ackley", "rastrigin", "rosenbrock", "levy", "michalewicz"]
        names = [name for name in names if lookup(name).supports(d)]
        obj = make_benchmark(data.draw(st.sampled_from(names)), d)
        rng = np.random.default_rng(seed)
        points = uniform_sample(obj.domain, n, rng)
        if on_edge:
            # put some coordinates on the bounds, so probes get clamped
            mask = rng.random(points.shape) < 0.4
            edge = np.where(rng.random(points.shape) < 0.5, obj.domain.lower, obj.domain.upper)
            points = np.where(mask, edge, points)
        block_counter, loop_counter = EvalCounter(), EvalCounter()
        block = fd_gradient(obj, points, block_counter, h=h)
        loop = np.array([fd_gradient_loop(obj, x, loop_counter, h=h) for x in points])
        assert block.tobytes() == loop.tobytes()
        assert block_counter.evals_used == loop_counter.evals_used == 2 * d * n
        one = np.array([fd_gradient(obj, x, EvalCounter(), h=h) for x in points])
        assert one.tobytes() == loop.tobytes()

    def test_probe_order_matches_the_point_loop(self):
        def recorder(calls):
            def f(x):
                calls.append(x.copy())
                return float(np.sin(x).sum())
            return f

        # d = 1 is the edge of the strided probe slices (see above)
        for d in (1, 2, 3, 10):
            block_calls, loop_calls = [], []
            # interior points and points on the bounds, where probes are clamped
            points = np.resize([0.2, -0.7, 1.0, 0.5, 0.0, -1.0, 0.3], (3, d))
            box = [-1.0] * d, [1.0] * d
            block_obj = make_objective("rec", *box, recorder(block_calls))
            loop_obj = make_objective("rec", *box, recorder(loop_calls))
            block = fd_gradient(block_obj, points, EvalCounter())
            loop = np.array([fd_gradient_loop(loop_obj, x, EvalCounter()) for x in points])
            assert len(block_calls) == len(loop_calls) == 2 * d * 3
            np.testing.assert_array_equal(np.array(block_calls), np.array(loop_calls))
            assert block.tobytes() == loop.tobytes()

    def test_non_finite_probe_in_a_block_counts_every_probe(self):
        obj = make_objective("hole", [-1.0], [1.0], lambda x: 1.0 / x[0] if x[0] < 0.5 else np.inf)
        counter = EvalCounter()
        with pytest.raises(NonFiniteValue, match=r"0\.9"):
            fd_gradient(obj, np.array([[-0.5], [0.9], [0.1]]), counter)
        assert counter.evals_used == 6


class TestProjection:
    def test_clamps_componentwise(self):
        dom = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        got = project_to_box(dom, np.array([3.0, -0.5]))
        np.testing.assert_array_equal(got, [1.0, -0.5])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        dom = BoxDomain(np.array([-2.0, 0.0, 1.0]), np.array([2.0, 1.0, 4.0]))
        for _ in range(50):
            x = rng.normal(scale=10.0, size=3)
            once = project_to_box(dom, x)
            twice = project_to_box(dom, once)
            np.testing.assert_array_equal(once, twice)
            assert dom.contains(once)


    def test_keeps_np_clip_bits_at_signed_zero_bounds_and_on_nan(self):
        # signed zeros on and at the bounds (Michalewicz's box starts at 0)
        dom = BoxDomain(np.array([0.0, -1.0, -2.0]), np.array([1.0, -0.0, 0.0]))
        x = np.array([[-0.0, -0.0, 0.0], [0.0, 0.0, -0.0], [np.nan, -3.0, 5.0],
                      [-1e-300, np.nan, -np.inf], [2.0, np.inf, 0.5]])
        got = project_to_box(dom, x)
        want = np.clip(x, dom.lower, dom.upper)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[2, 0]) and np.isnan(got[3, 1]) and got[3, 2] == -2.0
        assert project_to_box(dom, x[0]).tobytes() == want[0].tobytes()


class TestFdGradient:
    def test_quadratic_accuracy(self):
        obj = quad_objective()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=3)
            g = fd_gradient(obj, x, EvalCounter())
            rel = np.linalg.norm(g - 2 * x) / max(1.0, np.linalg.norm(2 * x))
            assert rel < 1e-5

    def test_costs_2d_evaluations(self):
        obj = quad_objective(d=5)
        counter = EvalCounter()
        fd_gradient(obj, np.ones(5), counter)
        assert counter.evals_used == 10

    def test_boundary_probes_stay_inside(self):
        # evaluator asserts feasibility, so a clamping bug would raise
        def checked(x):
            assert np.all(x >= -1.0) and np.all(x <= 1.0)
            return float(x @ x)

        obj = make_objective("edge", [-1.0, -1.0], [1.0, 1.0], checked)
        g = fd_gradient(obj, np.array([1.0, -1.0]), EvalCounter())
        # one-sided estimates at the boundary still approximate 2x
        np.testing.assert_allclose(g, [2.0, -2.0], atol=1e-4)

    def test_explicit_step_is_used(self):
        calls = []

        def spy(x):
            calls.append(x.copy())
            return float(x[0])

        obj = make_objective("spy", [-1.0], [1.0], spy)
        fd_gradient(obj, np.array([0.0]), EvalCounter(), h=1e-3)
        assert calls[0][0] == pytest.approx(1e-3)
        assert calls[1][0] == pytest.approx(-1e-3)

    def test_non_finite_probe_raises(self):
        obj = make_objective("nan", [-1.0], [1.0], lambda x: float("nan"))
        with pytest.raises(NonFiniteValue):
            fd_gradient(obj, np.array([0.0]), EvalCounter())


class TestUniformSample:
    def test_shape_and_bounds(self):
        dom = BoxDomain(np.array([-3.0, 2.0]), np.array([-1.0, 8.0]))
        pts = uniform_sample(dom, 200, np.random.default_rng(0))
        assert pts.shape == (200, 2)
        assert np.all(pts[:, 0] >= -3.0) and np.all(pts[:, 0] <= -1.0)
        assert np.all(pts[:, 1] >= 2.0) and np.all(pts[:, 1] <= 8.0)

    def test_seeded_reproducibility(self):
        dom = BoxDomain(np.array([0.0]), np.array([1.0]))
        a = uniform_sample(dom, 10, np.random.default_rng(42))
        b = uniform_sample(dom, 10, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
