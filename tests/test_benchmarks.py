"""Benchmark registry tests.

Each function is checked against an independently coded meshgrid oracle on
a dense grid, against its earlier one-point form, and against the published
minimizers. The registry evaluators are written over the last axis of a
block, so a transcription error in any copy would show up as a mismatch.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbsopt import (
    UnsupportedDimension,
    distance_to_minimum,
    lookup,
    make_benchmark,
    registry,
)

EXPECTED_NAMES = [
    "Ackley", "Branin", "DropWave", "EggHolder", "GoldsteinPrice",
    "Himmelblau", "HolderTable", "Michalewicz", "Rastrigin", "Rosenbrock",
    "Camel", "Levy", "Sphere",
]


# Vectorized oracles over meshgrid arrays X, Y (2-d case).

def branin_grid(X, Y):
    b = 5.1 / (4 * np.pi**2)
    return (Y - b * X**2 + (5 / np.pi) * X - 6.0) ** 2 \
        + 10.0 * (1 - 1 / (8 * np.pi)) * np.cos(X) + 10.0


def ackley_grid(X, Y):
    s = (X**2 + Y**2) / 2.0
    c = (np.cos(2 * np.pi * X) + np.cos(2 * np.pi * Y)) / 2.0
    return -20.0 * np.exp(-0.2 * np.sqrt(s)) - np.exp(c) + 20.0 + np.e


def rastrigin_grid(X, Y):
    return 20.0 + X**2 - 10 * np.cos(2 * np.pi * X) + Y**2 - 10 * np.cos(2 * np.pi * Y)


def rosenbrock_grid(X, Y):
    return 100.0 * (Y - X**2) ** 2 + (X - 1.0) ** 2


def sphere_grid(X, Y):
    return X**2 + Y**2


def dropwave_grid(X, Y):
    q = X**2 + Y**2
    return -(1.0 + np.cos(12.0 * np.sqrt(q))) / (0.5 * q + 2.0)


def eggholder_grid(X, Y):
    a = Y + 47.0
    return -a * np.sin(np.sqrt(np.abs(X / 2.0 + a))) \
        - X * np.sin(np.sqrt(np.abs(X - a)))


def goldstein_price_grid(X, Y):
    p1 = 1.0 + (X + Y + 1.0) ** 2 * (
        19.0 - 14.0 * X + 3.0 * X**2 - 14.0 * Y + 6.0 * X * Y + 3.0 * Y**2
    )
    p2 = 30.0 + (2.0 * X - 3.0 * Y) ** 2 * (
        18.0 - 32.0 * X + 12.0 * X**2 + 48.0 * Y - 36.0 * X * Y + 27.0 * Y**2
    )
    return p1 * p2


def himmelblau_grid(X, Y):
    return (X**2 + Y - 11.0) ** 2 + (X + Y**2 - 7.0) ** 2


def holder_table_grid(X, Y):
    r = np.sqrt(X**2 + Y**2)
    return -np.abs(np.sin(X) * np.cos(Y) * np.exp(np.abs(1.0 - r / np.pi)))


def camel_grid(X, Y):
    return (4.0 - 2.1 * X**2 + X**4 / 3.0) * X**2 + X * Y \
        + (-4.0 + 4.0 * Y**2) * Y**2


def michalewicz_grid(X, Y):
    return -(np.sin(X) * np.sin(1 * X**2 / np.pi) ** 20
             + np.sin(Y) * np.sin(2 * Y**2 / np.pi) ** 20)


def levy_grid(X, Y):
    w1 = 1.0 + (X - 1.0) / 4.0
    w2 = 1.0 + (Y - 1.0) / 4.0
    return (
        np.sin(np.pi * w1) ** 2
        + (w1 - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * w1 + 1.0) ** 2)
        + (w2 - 1.0) ** 2 * (1.0 + np.sin(2 * np.pi * w2) ** 2)
    )


GRID_ORACLES = {
    "Ackley": ackley_grid,
    "Branin": branin_grid,
    "DropWave": dropwave_grid,
    "EggHolder": eggholder_grid,
    "GoldsteinPrice": goldstein_price_grid,
    "Himmelblau": himmelblau_grid,
    "HolderTable": holder_table_grid,
    "Michalewicz": michalewicz_grid,
    "Rastrigin": rastrigin_grid,
    "Rosenbrock": rosenbrock_grid,
    "Camel": camel_grid,
    "Levy": levy_grid,
    "Sphere": sphere_grid,
}


# One-point forms of each function, as the registry had them before it was
# written over blocks. numpy scalars and math.* make them round differently
# from the block forms in a few places, so only some must agree bit for bit.

def sphere_point(x):
    return float(np.dot(x, x))


def ackley_point(x):
    d = x.size
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.dot(x, x) / d))
        - np.exp(np.mean(np.cos(2.0 * math.pi * x)))
        + 20.0
        + math.e
    )


def rastrigin_point(x):
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * math.pi * x)))


def rosenbrock_point(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2))


def levy_point(x):
    w = 1.0 + (x - 1.0) / 4.0
    head = math.sin(math.pi * w[0]) ** 2
    mid = np.sum((w[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(math.pi * w[:-1] + 1.0) ** 2))
    tail = (w[-1] - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * w[-1]) ** 2)
    return float(head + mid + tail)


def michalewicz_point(x):
    i = np.arange(1, x.size + 1)
    return float(-np.sum(np.sin(x) * np.sin(i * x * x / math.pi) ** 20))


def branin_point(x):
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return float(
        (x[1] - b * x[0] ** 2 + c * x[0] - 6.0) ** 2
        + 10.0 * (1.0 - t) * math.cos(x[0])
        + 10.0
    )


def dropwave_point(x):
    q = float(np.dot(x, x))
    return -(1.0 + math.cos(12.0 * math.sqrt(q))) / (0.5 * q + 2.0)


def eggholder_point(x):
    a = x[1] + 47.0
    return float(
        -a * math.sin(math.sqrt(abs(x[0] / 2.0 + a)))
        - x[0] * math.sin(math.sqrt(abs(x[0] - a)))
    )


def goldstein_price_point(x):
    x1, x2 = float(x[0]), float(x[1])
    part1 = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1**2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2**2
    )
    part2 = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1**2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2**2
    )
    return part1 * part2


def himmelblau_point(x):
    return float((x[0] ** 2 + x[1] - 11.0) ** 2 + (x[0] + x[1] ** 2 - 7.0) ** 2)


def holder_table_point(x):
    r = math.sqrt(float(np.dot(x, x)))
    return -abs(
        math.sin(float(x[0])) * math.cos(float(x[1])) * math.exp(abs(1.0 - r / math.pi))
    )


def camel_point(x):
    x1, x2 = float(x[0]), float(x[1])
    return (
        (4.0 - 2.1 * x1**2 + x1**4 / 3.0) * x1**2
        + x1 * x2
        + (-4.0 + 4.0 * x2**2) * x2**2
    )


POINT_ORACLES = {
    "Ackley": ackley_point,
    "Branin": branin_point,
    "DropWave": dropwave_point,
    "EggHolder": eggholder_point,
    "GoldsteinPrice": goldstein_price_point,
    "Himmelblau": himmelblau_point,
    "HolderTable": holder_table_point,
    "Michalewicz": michalewicz_point,
    "Rastrigin": rastrigin_point,
    "Rosenbrock": rosenbrock_point,
    "Camel": camel_point,
    "Levy": levy_point,
    "Sphere": sphere_point,
}

# The forms that must not move at all: the particle flow's seeded results
# on these functions depend on every bit.
BITWISE_POINT_FORMS = ("Ackley", "Rastrigin", "Rosenbrock", "Sphere")
# Elsewhere math.* gave way to np.*, and numpy-scalar powers (libm pow) to
# array powers: the two forms differ by at most this many ulps of the
# largest |f| on the sample (3 measured, on Goldstein-Price, at 300k points).
POINT_FORM_ULPS = 4


def _dims(entry):
    if entry.dims_supported is not None:
        return sorted(entry.dims_supported)
    return [d for d in (1, 2, 5, 10) if entry.supports(d)]


class TestRegistryShape:
    def test_names_and_order(self):
        assert list(registry()) == EXPECTED_NAMES
        assert len(registry()) == 13

    def test_lookup_is_case_insensitive(self):
        assert lookup("ackley").name == "Ackley"
        assert lookup("GOLDSTEINPRICE").name == "GoldsteinPrice"
        assert lookup("  holdertable ").name == "HolderTable"

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            lookup("nonexistent")

    def test_dims_labels(self):
        assert lookup("branin").dims_label() == "2"
        assert lookup("michalewicz").dims_label() == "2,5,10"
        assert lookup("sphere").dims_label() == "any d>=1"
        assert lookup("rosenbrock").dims_label() == "any d>=2"

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            make_benchmark("branin", 3)
        with pytest.raises(UnsupportedDimension):
            make_benchmark("michalewicz", 4)
        with pytest.raises(UnsupportedDimension):
            make_benchmark("rosenbrock", 1)


class TestAgainstGridOracles:
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_2d_grid_match(self, name):
        entry = lookup(name)
        dom = entry.domain_for(2)
        xs = np.linspace(dom.lower[0], dom.upper[0], 201)
        ys = np.linspace(dom.lower[1], dom.upper[1], 201)
        X, Y = np.meshgrid(xs, ys)
        want = GRID_ORACLES[name](X, Y)
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 201, size=500)
        cols = rng.integers(0, 201, size=500)
        got = np.array([
            entry.evaluator(np.array([xs[c], ys[r]]))
            for r, c in zip(rows, cols)
        ])
        np.testing.assert_allclose(got, want[rows, cols], rtol=1e-12, atol=1e-9)

    def test_branin_dense_grid_minimum(self):
        # the grid minimum over a fine mesh must approach the published f*
        entry = lookup("branin")
        xs = np.linspace(-5.0, 10.0, 1500)
        ys = np.linspace(0.0, 15.0, 1500)
        X, Y = np.meshgrid(xs, ys)
        assert abs(branin_grid(X, Y).min() - entry.f_star_for(2)) < 1e-4


class TestBlockEvaluation:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(name=st.sampled_from(EXPECTED_NAMES), m=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_block_equals_one_row_calls(self, name, m, seed):
        entry = lookup(name)
        rng = np.random.default_rng(seed)
        for d in _dims(entry):
            dom = entry.domain_for(d)
            block = rng.uniform(dom.lower, dom.upper, size=(m, d))
            got = entry.evaluator(block)
            rows = [entry.evaluator(x) for x in block]
            assert got.shape == (m,) and got.dtype == np.float64
            assert all(type(v) is float for v in rows)
            assert got.tobytes() == np.array(rows).tobytes(), (name, d)

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_marked_vectorized(self, name):
        assert lookup(name).evaluator.vectorized is True

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_matches_one_point_form(self, name):
        entry = lookup(name)
        rng = np.random.default_rng(17)
        for d in _dims(entry):
            dom = entry.domain_for(d)
            block = rng.uniform(dom.lower, dom.upper, size=(20_000, d))
            got = entry.evaluator(block)
            want = np.array([POINT_ORACLES[name](x) for x in block])
            if name in BITWISE_POINT_FORMS:
                assert got.tobytes() == want.tobytes(), (name, d)
            else:
                bound = POINT_FORM_ULPS * np.spacing(np.abs(want).max())
                assert np.abs(got - want).max() <= bound, (name, d)


class TestReferenceMinima:
    # make_benchmark enforces 1e-9; the worst gap over every entry and
    # dimension is 4.4e-16
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_minimizers_evaluate_to_f_star(self, name):
        entry = lookup(name)
        for x_star in entry.minimizers_for(2):
            got = entry.evaluator(np.asarray(x_star, dtype=float))
            assert abs(got - entry.f_star_for(2)) <= 1e-9

    @pytest.mark.parametrize("name", ["Ackley", "Rastrigin", "Levy", "Sphere", "Rosenbrock"])
    @pytest.mark.parametrize("d", [2, 5, 10, 50])
    def test_generic_dims_minimizers(self, name, d):
        entry = lookup(name)
        assert entry.supports(d)
        for x_star in entry.minimizers_for(d):
            assert x_star.size == d
            got = entry.evaluator(x_star)
            assert abs(got - entry.f_star_for(d)) <= 1e-9

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_f_star_is_a_lower_bound_on_samples(self, name):
        entry = lookup(name)
        dom = entry.domain_for(2)
        rng = np.random.default_rng(5)
        pts = rng.uniform(dom.lower, dom.upper, size=(100_000, 2))
        vals = entry.evaluator(pts)
        assert np.all(np.isfinite(vals))
        assert vals.min() >= entry.f_star_for(2) - 1e-9

    def test_minimizers_lie_inside_domains(self):
        for name in EXPECTED_NAMES:
            entry = lookup(name)
            dom = entry.domain_for(2)
            for x_star in entry.minimizers_for(2):
                assert dom.contains(x_star)


class TestMakeBenchmark:
    def test_objective_fields(self):
        obj = make_benchmark("sphere", 4)
        assert obj.name == "Sphere-4d"
        assert obj.d == 4
        assert lookup("sphere").f_star_for(obj.d) == 0.0
        np.testing.assert_array_equal(obj.domain.lower, [-5.12] * 4)

    def test_reference_validation(self, monkeypatch):
        # make_benchmark is where a reference minimum is checked
        entry = lookup("himmelblau")
        for field, bad, match in [
            ("f_star_by_dim", {2: 1e-6}, "differs from f_star"),
            ("minimizers_by_dim", {2: ((5.5, 0.0),)}, "outside domain"),
        ]:
            corrupted = dataclasses.replace(entry, **{field: bad})
            monkeypatch.setitem(registry(), "Himmelblau", corrupted)
            with pytest.raises(ValueError, match=match):
                make_benchmark("himmelblau", 2)
        monkeypatch.undo()
        assert make_benchmark("himmelblau", 2).name == "Himmelblau-2d"

    def test_distance_to_minimum(self):
        entry = lookup("branin")
        assert distance_to_minimum(entry, entry.f_star_for(2) + 0.25, 2) == pytest.approx(0.25)
        assert distance_to_minimum(lookup("sphere"), 1e-9, 5) == pytest.approx(1e-9)

    def test_michalewicz_reference_values(self):
        entry = lookup("michalewicz")
        assert entry.f_star_for(2) == pytest.approx(-1.8013034100985534, abs=1e-12)
        # the published 7-digit values, refined by per-coordinate polishing
        assert entry.f_star_for(5) == pytest.approx(-4.687658, abs=1e-6)
        assert entry.f_star_for(10) == pytest.approx(-9.66015, abs=1e-5)
        for d in (2, 5, 10):
            (x_star,) = entry.minimizers_for(d)
            assert entry.evaluator(x_star) == entry.f_star_for(d)

    def test_michalewicz_reference_is_a_per_coordinate_minimum(self):
        # separable: no float next to a minimizer coordinate lowers f
        entry = lookup("michalewicz")
        for d in (5, 10):
            (x_star,) = entry.minimizers_for(d)
            for i in range(d):
                for direction in (-np.inf, np.inf):
                    x = x_star.copy()
                    for _ in range(50):
                        x[i] = np.nextafter(x[i], direction)
                        assert entry.evaluator(x) >= entry.f_star_for(d)
