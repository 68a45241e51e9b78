"""Boltzmann target, grid densities, and the KSD estimator."""

import numpy as np
import pytest

from sbsopt import (
    BoltzmannTarget,
    EvalCounter,
    ksd,
    make_benchmark,
    make_objective,
    score,
)
from sbsopt.boltzmann import ksd_from_parts, pairwise_kernel

from grid_oracle import density_on_grid, expectation_on_grid


def line_objective():
    return make_objective("line", [0.0], [1.0], lambda x: float(x[0]))


class TestScore:
    def test_matches_analytic_gradient(self):
        # for f(x) = |x|^2 the score is -kappa * 2x
        obj = make_benchmark("sphere", 3)
        target = BoltzmannTarget(objective=obj, kappa=50.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-4, 4, size=3)
            s = score(target, x, EvalCounter())
            np.testing.assert_allclose(s, -100.0 * x, rtol=1e-6, atol=1e-6)

    def test_costs_2d_evaluations(self):
        obj = make_benchmark("sphere", 4)
        target = BoltzmannTarget(objective=obj, kappa=1.0)
        counter = EvalCounter()
        score(target, np.zeros(4), counter)
        assert counter.evals_used == 8

    def test_kappa_scales_linearly(self):
        obj = make_benchmark("rastrigin", 2)
        x = np.array([1.3, -0.4])
        s1 = score(BoltzmannTarget(obj, kappa=1.0), x, EvalCounter())
        s7 = score(BoltzmannTarget(obj, kappa=7.0), x, EvalCounter())
        np.testing.assert_allclose(s7, 7.0 * s1, rtol=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.inf, np.nan])
    def test_kappa_must_be_positive_and_finite(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            BoltzmannTarget(line_objective(), kappa=kappa)


class TestGridDensity:
    def test_normalizes_to_one(self):
        target = BoltzmannTarget(line_objective(), kappa=5.0)
        dens = density_on_grid(target, np.linspace(0, 1, 301))
        total = float(np.sum(dens.values * dens.weights))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pointwise_ratio_is_boltzmann(self):
        # m(x)/m(y) = exp(-kappa (f(x) - f(y))), independent of the normalizer
        obj = line_objective()
        kappa = 3.0
        target = BoltzmannTarget(obj, kappa=kappa)
        axis = np.linspace(0, 1, 101)
        dens = density_on_grid(target, axis)
        i, j = 20, 70
        got = dens.values[i] / dens.values[j]
        want = np.exp(-kappa * (axis[i] - axis[j]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_2d_density_symmetry(self):
        obj = make_benchmark("sphere", 2)
        target = BoltzmannTarget(obj, kappa=2.0)
        axis = np.linspace(-2, 2, 81)
        dens = density_on_grid(target, axis, axis)
        mean = expectation_on_grid(dens, lambda p: float(p[0]))
        assert abs(mean) < 1e-12

    def test_closed_form_expectation_on_line(self):
        obj = line_objective()
        for kappa in (1.0, 10.0, 100.0):
            target = BoltzmannTarget(obj, kappa=kappa)
            dens = density_on_grid(target, np.linspace(0, 1, 10_001))
            got = expectation_on_grid(dens, lambda p: float(p[0]))
            want = 1.0 / kappa - np.exp(-kappa) / (1.0 - np.exp(-kappa))
            assert got == pytest.approx(want, abs=1e-4)

    def test_mass_concentrates_on_global_minimizer(self):
        # multiwell profile: the global well is near x = -7 pi / 5
        evaluator = lambda x: float(np.cos(5.0 * x[0]) + x[0] / 5.0 + 1.0)
        obj = make_objective("wells", [-5.0], [5.0], evaluator)
        axis = np.linspace(-5, 5, 10_001)
        x_star = axis[np.argmin([evaluator(np.array([v])) for v in axis])]
        masses = []
        for kappa in (1.0, 10.0, 100.0):
            dens = density_on_grid(BoltzmannTarget(obj, kappa=kappa), axis)
            near = np.abs(dens.grid_points[:, 0] - x_star) < 0.5
            masses.append(float(np.sum((dens.values * dens.weights)[near])))
        assert masses[0] < masses[1] < masses[2]
        assert masses[2] > 0.99

    def test_extreme_kappa_does_not_underflow(self):
        obj = make_benchmark("sphere", 1)
        dens = density_on_grid(BoltzmannTarget(obj, kappa=1e8), np.linspace(-5.12, 5.12, 2001))
        assert np.isfinite(dens.values).all()
        assert float(np.sum(dens.values * dens.weights)) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_grids_raise(self):
        target = BoltzmannTarget(line_objective(), kappa=1.0)
        with pytest.raises(ValueError):
            density_on_grid(target)
        with pytest.raises(ValueError):
            density_on_grid(target, np.array([0.5]))
        with pytest.raises(ValueError):
            density_on_grid(target, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            density_on_grid(
                target, np.linspace(0, 1, 5), np.linspace(0, 1, 5), np.linspace(0, 1, 5)
            )


def stein_ksd_loop(positions, scores, sigma):
    """Naive double-loop KSD oracle: sum of Stein-kernel terms over all pairs."""
    n, d = positions.shape
    total = 0.0
    for i in range(n):
        for j in range(n):
            delta = positions[i] - positions[j]
            r2 = float(delta @ delta)
            kij = np.exp(-r2 / (2 * sigma**2))
            grad_j = kij * delta / sigma**2        # d k / d x_j
            grad_i = -grad_j                        # d k / d x_i
            trace = kij * (d / sigma**2 - r2 / sigma**4)
            total += (
                float(scores[i] @ scores[j]) * kij
                + float(scores[i] @ grad_j)
                + float(scores[j] @ grad_i)
                + trace
            )
    return total / n**2


def stein_ksd_long_double(positions, scores, sigma):
    """Dense KSD V-statistic oracle in long double, whose range holds
    sigma^4 down to sigma = 1e-100 on x86."""
    x = positions.astype(np.longdouble)
    s = scores.astype(np.longdouble)
    sig2 = np.longdouble(sigma) ** 2
    n, d = x.shape
    diff = x[:, None, :] - x[None, :, :]
    sqdist = np.einsum("ijk,ijk->ij", diff, diff)
    kmat = np.exp(-sqdist / (2 * sig2))
    terms = kmat * (s @ s.T + 2 * np.einsum("id,ijd->ij", s, diff) / sig2
                    + d / sig2 - sqdist / sig2**2)
    return terms.sum() / n**2


class TestKsd:
    def test_single_particle_closed_form(self):
        obj = make_benchmark("sphere", 2)
        target = BoltzmannTarget(obj, kappa=10.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-5, 5, size=(1, 2))
            sigma = float(rng.uniform(0.2, 3.0))
            s = score(target, x[0], EvalCounter())
            want = float(s @ s) + 2.0 / sigma**2
            got = ksd(x, target, sigma, EvalCounter())
            assert got == pytest.approx(want, rel=1e-12, abs=1e-10)

    def test_matches_double_loop_oracle(self):
        obj = make_benchmark("rastrigin", 2)
        target = BoltzmannTarget(obj, kappa=2.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            pts = rng.uniform(-5, 5, size=(n, 2))
            sigma = float(rng.uniform(0.3, 2.0))
            scores = np.stack([score(target, p, EvalCounter()) for p in pts])
            want = stein_ksd_loop(pts, scores, sigma)
            got = ksd(pts, target, sigma, EvalCounter())
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_nonnegative_on_random_sets(self):
        obj = make_benchmark("sphere", 2)
        target = BoltzmannTarget(obj, kappa=5.0)
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            pts = rng.uniform(-5, 5, size=(n, 2))
            sigma = float(rng.uniform(0.2, 2.5))
            assert ksd(pts, target, sigma, EvalCounter()) >= -1e-9

    def test_ksd_from_parts_agrees_with_ksd(self):
        # the parts of the dense SVGD direction, and the trace sum
        obj = make_benchmark("sphere", 3)
        target = BoltzmannTarget(obj, kappa=1.0)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-4, 4, size=(6, 3))
        sigma = 0.9
        scores = np.stack([score(target, p, EvalCounter()) for p in pts])
        kmat, diff, sqdist = pairwise_kernel(sigma, pts)
        n, d = pts.shape
        attraction = kmat @ scores / n
        repulsion = np.einsum("ij,ijd->id", kmat, diff) / sigma**2 / n
        trace = np.sum(kmat * (d - sqdist / sigma**2)) / sigma**2
        a = ksd_from_parts(scores, attraction, repulsion, trace)
        assert a == pytest.approx(stein_ksd_loop(pts, scores, sigma), rel=1e-12)
        assert a == pytest.approx(ksd(pts, target, sigma, EvalCounter()), rel=1e-12)

    @pytest.mark.skipif(np.longdouble(1e-100) ** 4 == 0,
                        reason="long double cannot hold sigma^4")
    @pytest.mark.parametrize("sigma", [1e-60, 1e-100])
    def test_finite_where_sigma_to_the_fourth_underflows(self, sigma):
        # five points, two of them 10 sigma apart: at 1e-100 sigma^4 rounds
        # to 0.0, and r^2 / sigma^4 to inf or NaN, which a zero kernel value
        # must not carry into the sum
        target = BoltzmannTarget(make_benchmark("ackley", 2), kappa=10.0)
        pts = np.random.default_rng(6).uniform(-4, 4, size=(5, 2))
        pts[0], pts[1] = 0.0, [10 * sigma, 0.0]
        stein = ksd(pts, target, sigma, EvalCounter())
        scores = score(target, pts, EvalCounter())
        assert np.isfinite(stein) and stein > 0.0
        assert stein == pytest.approx(float(stein_ksd_long_double(pts, scores, sigma)),
                                      rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_sigma(self, sigma):
        # the check TrajectorySnapshot makes on a sigma read from a log
        target = BoltzmannTarget(make_benchmark("sphere", 2), kappa=1.0)
        counter = EvalCounter()
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            ksd(np.zeros((3, 2)), target, sigma, counter)
        assert counter.evals_used == 0

    def test_counts_2d_per_particle(self):
        obj = make_benchmark("sphere", 2)
        target = BoltzmannTarget(obj, kappa=1.0)
        counter = EvalCounter()
        ksd(np.zeros((5, 2)), target, 1.0, counter)
        assert counter.evals_used == 5 * 4
