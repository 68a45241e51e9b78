"""RBF kernel and bandwidth rule tests."""

import numpy as np
import pytest

from sbsopt import (
    BoltzmannTarget,
    ConfigError,
    EvalCounter,
    HybridConfig,
    SbsConfig,
    TrajectorySnapshot,
    make_objective,
)
from sbsopt.boltzmann import pairwise_kernel
from sbsopt.optimizers.sbs import HYBRID_SIGMA
from sbsopt.svgd import _forces


def k(sigma, x, y):
    """k(x, y), read off the Gram matrix of the pair."""
    kmat, _, _ = pairwise_kernel(sigma, np.stack([x, y]))
    return float(kmat[0, 1])


def grad_second_arg(sigma, x, y):
    """grad_y k(x, y): on a flat objective the scores vanish, and the SVGD
    repulsion on x from the pair {x, y} is half of it."""
    flat = make_objective("flat", [-10.0] * len(x), [10.0] * len(x), lambda p: 0.0)
    target = BoltzmannTarget(flat, kappa=1.0)
    _, repulsion, *_ = _forces(np.stack([x, y]), target, sigma, EvalCounter())
    return 2.0 * repulsion[0]


class TestRbfKernel:
    def test_self_similarity_is_one(self):
        sigma = 0.7
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=3)
            assert k(sigma, x, x) == 1.0

    def test_symmetry(self):
        sigma = 1.3
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.normal(size=(2, 4))
            assert k(sigma, x, y) == pytest.approx(k(sigma, y, x), rel=0, abs=0)

    def test_known_value(self):
        # k(x, y) = exp(-|x-y|^2 / (2 sigma^2))
        sigma = 2.0
        x = np.array([0.0])
        y = np.array([2.0])
        assert k(sigma, x, y) == pytest.approx(np.exp(-0.5), rel=1e-15)

    def test_gram_matrix_is_psd(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(50, 3))
        sigma = 0.9
        gram = np.array([[k(sigma, a, b) for b in pts] for a in pts])
        eigvals = np.linalg.eigvalsh(gram)
        assert eigvals.min() >= -1e-10

    def test_rejects_bad_sigma(self):
        # a kernel width read back from a trajectory log is checked on load
        snap = dict(iteration=0, ids=[0], positions=[[0.0]], f_values=[0.0])
        with pytest.raises(ValueError, match="sigma"):
            TrajectorySnapshot(sigma=0.0, **snap)
        with pytest.raises(ValueError, match="sigma"):
            TrajectorySnapshot(sigma=-1.0, **snap)


class TestKernelGradient:
    def test_matches_finite_differences(self):
        sigma = 0.8
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(30):
            x, y = rng.normal(size=(2, 3))
            got = grad_second_arg(sigma, x, y)
            fd = np.empty(3)
            for i in range(3):
                yp, ym = y.copy(), y.copy()
                yp[i] += h
                ym[i] -= h
                fd[i] = (k(sigma, x, yp) - k(sigma, x, ym)) / (2 * h)
            np.testing.assert_allclose(got, fd, atol=1e-7)

    def test_closed_form(self):
        # grad_y k = k(x, y) (x - y) / sigma^2
        sigma = 1.0
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 0.0])
        got = grad_second_arg(sigma, x, y)
        np.testing.assert_allclose(got, [np.exp(-0.5), 0.0], rtol=1e-14)

    def test_vanishes_at_coincident_points(self):
        sigma = 0.5
        x = np.array([2.0, -1.0])
        np.testing.assert_array_equal(grad_second_arg(sigma, x, x), [0.0, 0.0])


class TestBandwidthPolicies:
    """SbsConfig.bandwidth(n), the one rule for the kernel width."""

    def test_fixed(self):
        cfg = SbsConfig(sigma=0.25)
        assert cfg.bandwidth(10) == 0.25
        assert cfg.bandwidth(1) == 0.25

    def test_inverse_n_squared_tracks_live_count(self):
        cfg = SbsConfig()
        assert cfg.bandwidth(10) == pytest.approx(0.01)
        assert cfg.bandwidth(100) == pytest.approx(1e-4)
        assert cfg.bandwidth(1) == pytest.approx(1.0)

    def test_hybrid_small_constant(self):
        cfg = SbsConfig(hybrid=HybridConfig())
        assert HYBRID_SIGMA == 1e-10
        assert cfg.bandwidth(3) == HYBRID_SIGMA
        assert cfg.bandwidth(500) == HYBRID_SIGMA

    def test_set_sigma_overrides_warm_start(self):
        cfg = SbsConfig(sigma=0.3, hybrid=HybridConfig())
        assert cfg.bandwidth(3) == 0.3
        assert cfg.bandwidth(500) == 0.3

    def test_fixed_requires_positive_sigma(self):
        with pytest.raises(ConfigError):
            SbsConfig(sigma=0.0)


class TestPairwiseKernel:
    def test_consistent_with_scalar_kernel(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(12, 3))
        sigma = 0.6
        kmat, diff, sqdist = pairwise_kernel(sigma, pts)
        for i in range(12):
            for j in range(12):
                assert kmat[i, j] == pytest.approx(k(sigma, pts[i], pts[j]), rel=1e-12)
                np.testing.assert_allclose(diff[i, j], pts[i] - pts[j], rtol=0, atol=0)
                assert sqdist[i, j] == pytest.approx(
                    np.dot(pts[i] - pts[j], pts[i] - pts[j]), rel=1e-12
                )

    def test_diagonal(self):
        pts = np.random.default_rng(5).normal(size=(6, 2))
        kmat, diff, sqdist = pairwise_kernel(1.0, pts)
        np.testing.assert_array_equal(np.diag(kmat), np.ones(6))
        np.testing.assert_array_equal(np.diag(sqdist), np.zeros(6))

    def test_single_point(self):
        kmat, diff, sqdist = pairwise_kernel(0.1, np.array([[3.0, 4.0]]))
        assert kmat.shape == (1, 1) and kmat[0, 0] == 1.0
        assert np.all(diff == 0.0) and sqdist[0, 0] == 0.0
