"""RBF kernel and bandwidth policy tests."""

import numpy as np
import pytest

from sbsopt import (
    BandwidthPolicy,
    BoltzmannTarget,
    EvalCounter,
    RbfKernel,
    make_objective,
    resolve_bandwidth,
)
from sbsopt.kernel import HYBRID_SIGMA, pairwise_kernel
from sbsopt.svgd import _forces


def k(kern, x, y):
    """k(x, y), read off the Gram matrix of the pair."""
    kmat, _, _ = pairwise_kernel(kern.sigma, np.stack([x, y]))
    return float(kmat[0, 1])


def grad_second_arg(kern, x, y):
    """grad_y k(x, y): on a flat objective the scores vanish, and the SVGD
    repulsion on x from the pair {x, y} is half of it."""
    flat = make_objective("flat", [-10.0] * len(x), [10.0] * len(x), lambda p: 0.0)
    target = BoltzmannTarget(flat, kappa=1.0)
    _, repulsion, *_ = _forces(np.stack([x, y]), target, kern, EvalCounter())
    return 2.0 * repulsion[0]


class TestRbfKernel:
    def test_self_similarity_is_one(self):
        kern = RbfKernel(0.7)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=3)
            assert k(kern, x, x) == 1.0

    def test_symmetry(self):
        kern = RbfKernel(1.3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.normal(size=(2, 4))
            assert k(kern, x, y) == pytest.approx(k(kern, y, x), rel=0, abs=0)

    def test_known_value(self):
        # k(x, y) = exp(-|x-y|^2 / (2 sigma^2))
        kern = RbfKernel(2.0)
        x = np.array([0.0])
        y = np.array([2.0])
        assert k(kern, x, y) == pytest.approx(np.exp(-0.5), rel=1e-15)

    def test_gram_matrix_is_psd(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(50, 3))
        kern = RbfKernel(0.9)
        gram = np.array([[k(kern, a, b) for b in pts] for a in pts])
        eigvals = np.linalg.eigvalsh(gram)
        assert eigvals.min() >= -1e-10

    def test_rejects_bad_sigma(self):
        with pytest.raises(Exception):
            RbfKernel(0.0)
        with pytest.raises(Exception):
            RbfKernel(-1.0)


class TestKernelGradient:
    def test_matches_finite_differences(self):
        kern = RbfKernel(0.8)
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(30):
            x, y = rng.normal(size=(2, 3))
            got = grad_second_arg(kern, x, y)
            fd = np.empty(3)
            for i in range(3):
                yp, ym = y.copy(), y.copy()
                yp[i] += h
                ym[i] -= h
                fd[i] = (k(kern, x, yp) - k(kern, x, ym)) / (2 * h)
            np.testing.assert_allclose(got, fd, atol=1e-7)

    def test_closed_form(self):
        # grad_y k = k(x, y) (x - y) / sigma^2
        kern = RbfKernel(1.0)
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 0.0])
        got = grad_second_arg(kern, x, y)
        np.testing.assert_allclose(got, [np.exp(-0.5), 0.0], rtol=1e-14)

    def test_vanishes_at_coincident_points(self):
        kern = RbfKernel(0.5)
        x = np.array([2.0, -1.0])
        np.testing.assert_array_equal(grad_second_arg(kern, x, x), [0.0, 0.0])


class TestBandwidthPolicies:
    def test_fixed(self):
        policy = BandwidthPolicy.fixed(0.25)
        assert resolve_bandwidth(policy, 10) == 0.25
        assert resolve_bandwidth(policy, 1) == 0.25

    def test_inverse_n_squared_tracks_live_count(self):
        policy = BandwidthPolicy.inverse_n_squared()
        assert resolve_bandwidth(policy, 10) == pytest.approx(0.01)
        assert resolve_bandwidth(policy, 100) == pytest.approx(1e-4)
        assert resolve_bandwidth(policy, 1) == pytest.approx(1.0)

    def test_hybrid_small_constant(self):
        policy = BandwidthPolicy.hybrid_small()
        assert resolve_bandwidth(policy, 3) == HYBRID_SIGMA
        assert resolve_bandwidth(policy, 500) == HYBRID_SIGMA

    def test_fixed_requires_positive_sigma(self):
        with pytest.raises(Exception):
            BandwidthPolicy.fixed(0.0)


class TestPairwiseKernel:
    def test_consistent_with_scalar_kernel(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(12, 3))
        sigma = 0.6
        kmat, diff, sqdist = pairwise_kernel(sigma, pts)
        kern = RbfKernel(sigma)
        for i in range(12):
            for j in range(12):
                assert kmat[i, j] == pytest.approx(k(kern, pts[i], pts[j]), rel=1e-12)
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
