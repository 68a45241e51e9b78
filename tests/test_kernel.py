"""RBF kernel, tiled kernel blocks and bandwidth rule tests."""

import tracemalloc

import numpy as np
import pytest

from sbsopt import (
    BoltzmannTarget,
    ConfigError,
    EvalCounter,
    HybridConfig,
    SbsConfig,
    TrajectorySnapshot,
    ksd,
    make_benchmark,
    make_objective,
    sbs_run,
    score,
)
from sbsopt import svgd
from sbsopt.boltzmann import TILE, WINDOW, kernel_tiles, pairwise_kernel
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


def dense_parts(sigma, positions, scores):
    """The dense N x N kernel the tiles replace, as a test oracle: SVGD
    attraction and repulsion, and the KSD V-statistic."""
    n, d = positions.shape
    diff = positions[:, None, :] - positions[None, :, :]
    sqdist = np.einsum("ijk,ijk->ij", diff, diff)
    kmat = np.exp(-sqdist / (2.0 * sigma**2))
    attraction = kmat @ scores / n
    repulsion = np.einsum("ij,ijd->id", kmat, diff) / sigma**2 / n
    sig2 = sigma**2
    term_ss = np.einsum("id,jd,ij->", scores, scores, kmat)
    s_dot_diff = np.einsum("id,ijd->ij", scores, diff)
    term_cross = 2.0 * np.sum(s_dot_diff * kmat) / sig2
    term_trace = np.sum(kmat * (d / sig2 - sqdist / sig2**2))
    stein = float((term_ss + term_cross + term_trace) / n**2)
    return attraction, repulsion, stein, kmat


def clustered(rng, n, sigma, d=2):
    """n particles in five clusters a few sigma wide, a quarter of them
    coincident with another particle."""
    centres = rng.uniform(-3.0, 3.0, size=(5, d))
    pts = centres[rng.integers(0, 5, n)] + rng.normal(size=(n, d)) * 5.0 * sigma
    pts[rng.integers(0, n, n // 4)] = pts[rng.integers(0, n, n // 4)]
    return np.clip(pts, -4.5, 4.5)


def scattered(rng, n, sigma, d=2):
    """n particles uniform over the box, as a run starts, with a tenth of
    them clustered: at a small sigma most of them are lone."""
    pts = rng.uniform(-4.5, 4.5, size=(n, d))
    pts[: n // 10] = clustered(rng, n // 10, sigma, d)
    return pts


def spread(n, sigma):
    """n particles on coordinate 0, each one ulp more than WINDOW sigma from
    the next, so that every one of them is lone."""
    x0 = [1.0]
    for _ in range(n - 1):
        x0.append(np.nextafter(x0[-1] + WINDOW * sigma, np.inf))
    return np.stack([x0, np.zeros(n)], axis=1)


def outside_the_tiles(sigma, pts):
    """The dense kernel's entries in no block that kernel_tiles lists, nor
    on the diagonal of a lone particle."""
    n = pts.shape[0]
    tiles, pairs, lone = kernel_tiles(sigma, pts)
    covered = np.zeros((n, n), dtype=bool)
    for rows, cols in [(t, t) for t in tiles] + [(tiles[a], tiles[b]) for a, b in pairs]:
        covered[np.ix_(rows, cols)] = covered[np.ix_(cols, rows)] = True
    covered[lone, lone] = True
    return pairwise_kernel(sigma, pts)[0][~covered]


def tiled_and_dense(sigma, pts, objective=None):
    obj = objective or make_benchmark("ackley", pts.shape[1])
    target = BoltzmannTarget(obj, kappa=10.0)
    attraction, repulsion = _forces(pts, target, sigma, EvalCounter())
    scores = score(target, pts, EvalCounter())
    stein = ksd(pts, target, sigma, EvalCounter())
    return (attraction, repulsion, stein), dense_parts(sigma, pts, scores)


def max_normalised(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestTiledKernel:
    """The tiled exact-cutoff kernel against the dense N x N oracle."""

    @pytest.mark.parametrize("n", [1, 2, 37, TILE])
    @pytest.mark.parametrize("sigma", [HYBRID_SIGMA, None, 0.3])
    def test_bit_equal_up_to_one_tile(self, n, sigma):
        sigma = sigma or 1.0 / n**2
        pts = clustered(np.random.default_rng(n), n, sigma, d=3)
        (a, r, stein), (da, dr, dstein, _) = tiled_and_dense(sigma, pts)
        np.testing.assert_array_equal(a, da)
        np.testing.assert_array_equal(r, dr)
        assert stein == dstein

    @pytest.mark.parametrize("n", [TILE + 1, 600, 4 * TILE])
    @pytest.mark.parametrize("sigma", [HYBRID_SIGMA, None, 1e-3])
    def test_close_beyond_one_tile(self, n, sigma):
        sigma = sigma or 1.0 / n**2
        for points in (clustered, scattered):  # scattered: lone particles too
            pts = points(np.random.default_rng(n), n, sigma)
            (a, r, stein), (da, dr, dstein, kmat) = tiled_and_dense(sigma, pts)
            assert np.count_nonzero(kmat) > n  # particles interact across tiles
            assert max_normalised(a, da) <= 1e-14
            assert max_normalised(r, dr) <= 1e-14
            assert stein == pytest.approx(dstein, rel=1e-14)

    @pytest.mark.parametrize("n", [TILE + 1, 1000])
    def test_skipped_blocks_are_exactly_zero(self, n):
        sigma = 1e-3
        for points in (clustered, scattered):
            pts = points(np.random.default_rng(7), n, sigma)
            tiles, pairs, lone = kernel_tiles(sigma, pts)
            everyone = np.concatenate(tiles + [lone])
            np.testing.assert_array_equal(np.sort(everyone), np.arange(n))
            assert all(len(t) <= TILE and np.all(np.diff(t) > 0) for t in tiles)
            assert np.all(np.diff(lone) > 0)
            assert all(a < b for a, b in pairs)
            if n > 2 * TILE:  # some pairs of tiles are left out
                assert len(pairs) < len(tiles) * (len(tiles) - 1) // 2
            assert np.all(outside_the_tiles(sigma, pts) == 0.0)

    def test_one_tile_is_a_view(self):
        # even particles far apart stay in the one tile: no lone set
        tiles, pairs, lone = kernel_tiles(1e-3, spread(TILE, 1e-3))
        assert tiles == [slice(0, TILE)] and pairs == [] and lone.size == 0

    def test_a_neighbour_at_exactly_the_window_stays_tiled(self):
        # sigma and WINDOW sigma are exact in binary, as is 1 + WINDOW sigma
        sigma = 2.0**-20
        pts = spread(TILE + 1, sigma)
        pts[TILE, 0] = pts[TILE - 1, 0] + WINDOW * sigma
        assert pts[TILE, 0] - pts[TILE - 1, 0] == WINDOW * sigma
        tiles, pairs, lone = kernel_tiles(sigma, pts)
        assert [list(t) for t in tiles] == [[TILE - 1, TILE]] and pairs == []
        np.testing.assert_array_equal(lone, np.arange(TILE - 1))
        pts[TILE, 0] = np.nextafter(pts[TILE, 0], np.inf)  # one ulp beyond
        tiles, pairs, lone = kernel_tiles(sigma, pts)
        assert tiles == [] and pairs == []
        np.testing.assert_array_equal(lone, np.arange(TILE + 1))

    @pytest.mark.parametrize("sigma", [HYBRID_SIGMA, 1e-3])
    def test_coincident_particles_are_never_lone(self, sigma):
        pts = spread(TILE + 3, sigma)
        pts[[5, 9]] = pts[7]  # three at one point, the rest spread out
        pts[TILE + 2] = pts[TILE + 1]  # and two at the far end
        tiles, pairs, lone = kernel_tiles(sigma, pts)
        assert [list(t) for t in tiles] == [[5, 7, 9, TILE + 1, TILE + 2]]
        assert lone.size == TILE - 2 and not {5, 7, 9, TILE + 1, TILE + 2} & set(lone)
        assert np.all(outside_the_tiles(sigma, pts) == 0.0)

    def test_every_particle_lone_gets_its_own_score(self):
        # beyond one tile with no near pair: each kernel row is e_i
        n = TILE + 44
        sigma = 1.0 / n**2
        pts = spread(n, sigma)
        assert kernel_tiles(sigma, pts)[2].size == n
        target = BoltzmannTarget(make_benchmark("ackley", 2), kappa=10.0)
        attraction, repulsion = _forces(pts, target, sigma, EvalCounter())
        scores = score(target, pts, EvalCounter())
        np.testing.assert_array_equal(attraction, scores / n)
        assert np.all(repulsion == 0.0)
        assert ksd(pts, target, sigma, EvalCounter()) == pytest.approx(
            dense_parts(sigma, pts, scores)[2], rel=1e-14)

    def test_keeps_a_one_ulp_pair_across_a_tile_boundary(self):
        # at sigma = 1e-17 two particles one ulp apart at x_0 = 1 have
        # k = exp(-246) > 0; the 255 others sort first and are lone, so the
        # pair is the one tile
        sigma = 1e-17
        pts = np.zeros((TILE + 1, 2))
        pts[:TILE - 1, 0] = np.linspace(-4.0, -1.0, TILE - 1)
        pts[TILE - 1, 0] = 1.0
        pts[TILE, 0] = np.nextafter(1.0, 2.0)
        assert [list(t) for t in kernel_tiles(sigma, pts)[0]] == [[TILE - 1, TILE]]
        (a, r, stein), (da, dr, dstein, kmat) = tiled_and_dense(sigma, pts)
        assert 0.0 < kmat[TILE - 1, TILE] < 1e-100
        assert r[TILE, 0] > 0.0 and r[TILE - 1, 0] < 0.0
        assert max_normalised(r, dr) <= 1e-14 and max_normalised(a, da) <= 1e-14
        assert stein == pytest.approx(dstein, rel=1e-14)

    def test_keeps_every_pair_when_sigma_squared_is_subnormal(self):
        # sigma**2 rounds up to 2 subnormal units here, so k(41 sigma) is
        # 1.8e-292 although 41 sigma is past the window
        sigma = 2.81e-162
        pts = np.zeros((TILE + 1, 2))
        pts[:TILE - 1, 0] = np.linspace(-4.0, -1.0, TILE - 1)
        pts[TILE, 0] = 41 * sigma
        assert 41 > WINDOW and pairwise_kernel(sigma, pts[TILE - 1:])[0][0, 1] > 0.0
        tiles, pairs, lone = kernel_tiles(sigma, pts)
        assert pairs == [(0, 1)] and lone.size == 0  # no particle is lone
        with np.errstate(over="ignore"):  # far pairs: exp(-inf) = 0
            assert np.all(outside_the_tiles(sigma, pts) == 0.0)

    def test_run_ksd_matches_ksd_of_the_entering_state(self):
        obj = make_benchmark("ackley", 2)
        # no particle is lone at the first sigma; at the second over a
        # quarter are, beside three tiles and two pairs of them
        for n, sigma in ((TILE + 44, 0.05), (3 * TILE, 2e-4)):
            cfg = SbsConfig(n_particles=n, sigma=sigma, max_iterations=1)
            r = sbs_run(obj, cfg, 10**6, 2, collect_diagnostics=True, track_ksd=True,
                        log_every=1)
            entering = r.trajectory.snapshots[0].positions
            tiles, pairs, lone = kernel_tiles(sigma, entering)
            assert (lone.size > n // 4 and len(pairs) == 2) == (sigma < 0.05)
            want = ksd(entering, BoltzmannTarget(obj, kappa=cfg.kappa), sigma, EvalCounter())
            assert r.diagnostics[0].ksd == want

    def test_twenty_thousand_particles_in_bounded_memory(self):
        # the dense kernel would hold 20000^2 (d + 2) floats, about 12.8 GB
        tracemalloc.start()
        try:
            r = sbs_run(make_benchmark("ackley", 2),
                        SbsConfig(n_particles=20_000, max_iterations=2), 200_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.iterations_done == 2 and np.isfinite(r.best_f)
        assert peak < 100e6

    def test_twenty_thousand_scattered_particles_make_almost_no_blocks(self, monkeypatch):
        # at the default bandwidth nearly every particle is lone; full tiles
        # would compute about N TILE kernel entries
        n = 20_000
        entries = []

        def counted(sigma, positions, others=None):
            parts = pairwise_kernel(sigma, positions, others)
            entries.append(parts[0].size)
            return parts

        monkeypatch.setattr(svgd, "pairwise_kernel", counted)
        r = sbs_run(make_benchmark("ackley", 2), SbsConfig(n_particles=n, max_iterations=1),
                    100_000, 0)
        assert r.iterations_done == 1
        assert sum(entries) < n * TILE // 1000
