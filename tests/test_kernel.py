"""RBF kernel, tiled kernel blocks and bandwidth rule tests."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbsopt import (
    BoltzmannTarget,
    ConfigError,
    EvalCounter,
    HybridConfig,
    NonFiniteValue,
    SbsConfig,
    TrajectoryLog,
    TrajectorySnapshot,
    ksd,
    make_benchmark,
    make_objective,
    sbs_run,
    score,
)
from sbsopt import boltzmann, svgd
from sbsopt.boltzmann import (PROOF_MIN, SIGMA_MAX, SIGMA_MIN, TILE, WINDOW, kernel_tiles,
                              near_pairs, pairwise_kernel)
from sbsopt.optimizers import run_method
from sbsopt.optimizers.sbs import HYBRID_SIGMA
from sbsopt.svgd import AdamState, _forces, _iterate_with_parts


def k(sigma, x, y):
    """k(x, y), read off the Gram matrix of the pair."""
    kmat, _, _ = pairwise_kernel(sigma, np.stack([x, y]))
    return float(kmat[0, 1])


def grad_second_arg(sigma, x, y):
    """grad_y k(x, y): on a flat objective the scores vanish, and the SVGD
    repulsion on x from the pair {x, y} is half of it."""
    flat = make_objective("flat", [-10.0] * len(x), [10.0] * len(x), lambda p: 0.0)
    target = BoltzmannTarget(flat, kappa=1.0)
    _, _, repulsion, _ = _forces(np.stack([x, y]), target, sigma, EvalCounter())
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


OUTSIDE = [float(np.nextafter(SIGMA_MIN, 0.0)), float(np.nextafter(SIGMA_MAX, np.inf)),
           1e-170, 1e200]


class TestSigmaDomain:
    """A kernel width lies in [SIGMA_MIN, SIGMA_MAX], where sigma**2 is a
    normal double and (WINDOW sigma)**2 is finite. SbsConfig refuses any
    other with ConfigError, ksd() and a trajectory snapshot with ValueError."""

    def test_the_ends_are_the_widest_domain_of_normal_squares(self):
        assert SIGMA_MIN**2 == np.finfo(float).tiny
        assert np.nextafter(SIGMA_MIN, 0.0) ** 2 < np.finfo(float).tiny
        assert np.isfinite((WINDOW * SIGMA_MAX) ** 2)
        with np.errstate(over="ignore"):
            assert np.isinf((WINDOW * np.nextafter(SIGMA_MAX, np.inf)) ** 2)

    @pytest.mark.parametrize("sigma", OUTSIDE)
    def test_config_refuses_a_width_outside(self, sigma):
        with pytest.raises(ConfigError) as err:
            SbsConfig(sigma=sigma)
        assert err.value.field == "sigma"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [10, 100])  # below and above PROOF_MIN
    @pytest.mark.parametrize("sigma", [SIGMA_MIN, SIGMA_MAX])
    def test_runs_at_either_end(self, sigma, n):
        # at SIGMA_MIN the kernel is the identity, at SIGMA_MAX all ones;
        # one ulp further out is refused. At SIGMA_MIN -x / sigma**2
        # overflows to -inf, silently: exp(-inf) = 0.0 is exact
        beyond = np.nextafter(sigma, 0.0 if sigma == SIGMA_MIN else np.inf)
        with pytest.raises(ConfigError, match="sigma"):
            SbsConfig(n_particles=n, sigma=float(beyond))
        cfg = SbsConfig(n_particles=n, sigma=sigma, max_iterations=5)
        r = sbs_run(make_benchmark("ackley", 2), cfg, 10**4, 0)
        assert r.iterations_done == 5 and np.isfinite(r.best_f)

    @pytest.mark.parametrize("sigma", OUTSIDE)
    def test_ksd_and_snapshots_refuse_a_width_outside(self, sigma):
        target = BoltzmannTarget(make_benchmark("sphere", 2), kappa=1.0)
        counter = EvalCounter()
        with pytest.raises(ValueError, match="sigma"):
            ksd(np.zeros((3, 2)), target, sigma, counter)
        assert counter.count == 0
        with pytest.raises(ValueError, match="sigma"):
            TrajectorySnapshot(iteration=0, sigma=sigma, ids=[0], positions=[[0.0, 0.0]],
                               f_values=[0.0])

    def test_a_tiny_probe_step_is_not_a_width(self):
        log = TrajectoryLog(method="sbs", objective_name="ackley", dim=2, lower=[-5.0] * 2,
                            upper=[5.0] * 2, fd_step=1e-200)
        assert TrajectoryLog.from_dict(log.to_dict()).fd_step == 1e-200


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


def in_no_tile(sigma, pts):
    """The lone particles, in ascending order: those in no tile that
    kernel_tiles lists, whose kernel row must be e_i."""
    alone = np.ones(pts.shape[0], dtype=bool)
    for tile in kernel_tiles(sigma, pts)[0]:
        alone[tile] = False
    return np.flatnonzero(alone)


def outside_the_tiles(sigma, pts):
    """The dense kernel's entries in no block that kernel_tiles lists, nor
    on the diagonal, where a lone particle's k is 1."""
    n = pts.shape[0]
    tiles, pairs = kernel_tiles(sigma, pts)
    covered = np.eye(n, dtype=bool)
    for rows, cols in [(t, t) for t in tiles] + [(tiles[a], tiles[b]) for a, b in pairs]:
        covered[np.ix_(rows, cols)] = covered[np.ix_(cols, rows)] = True
    return pairwise_kernel(sigma, pts)[0][~covered]


def tiled_and_dense(sigma, pts, objective=None):
    obj = objective or make_benchmark("ackley", pts.shape[1])
    target = BoltzmannTarget(obj, kappa=10.0)
    _, attraction, repulsion, _ = _forces(pts, target, sigma, EvalCounter())
    scores = score(target, pts, EvalCounter())
    stein = ksd(pts, target, sigma, EvalCounter())
    return (attraction, repulsion, stein), dense_parts(sigma, pts, scores)


def max_normalised(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def lone_ksd(sigma, pts):
    """The KSD of particles whose kernel is the identity, on tiled_and_dense's
    target: (1/N) sum_i s_i.(s_i / N) + N d / sigma^2 / N^2, summed as for
    lone ones."""
    target = BoltzmannTarget(make_benchmark("ackley", pts.shape[1]), kappa=10.0)
    scores = score(target, pts, EvalCounter())
    n, d = pts.shape
    return float(np.einsum("id,id->", scores, scores / n) / n + n * d / sigma**2 / n**2)


class TestTiledKernel:
    """The tiled exact-cutoff kernel against the dense N x N oracle."""

    @pytest.mark.parametrize("n", [1, 2, 37, TILE])
    @pytest.mark.parametrize("sigma", [HYBRID_SIGMA, None, 0.3])
    def test_bit_equal_up_to_one_tile(self, n, sigma):
        sigma = sigma or 1.0 / n**2
        pts = clustered(np.random.default_rng(n), n, sigma, d=3)
        (a, r, stein), (da, dr, dstein, kmat) = tiled_and_dense(sigma, pts)
        np.testing.assert_array_equal(a, da)
        np.testing.assert_array_equal(r, dr)
        if np.count_nonzero(kmat) == n:  # the identity: n = 1, and n = 2 at 1e-10
            assert n == 1 or sigma == HYBRID_SIGMA
            assert stein == lone_ksd(sigma, pts)
        assert stein == pytest.approx(dstein, rel=1e-14)

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
            tiles, pairs = kernel_tiles(sigma, pts)
            tiled = np.concatenate(tiles)
            assert np.unique(tiled).size == tiled.size  # no particle in two tiles
            assert all(len(t) <= TILE and np.all(np.diff(t) > 0) for t in tiles)
            assert all(a < b for a, b in pairs)
            if n > 2 * TILE:  # some pairs of tiles are left out
                assert len(pairs) < len(tiles) * (len(tiles) - 1) // 2
            assert np.all(outside_the_tiles(sigma, pts) == 0.0)

    def test_one_tile_is_a_view(self):
        # even particles far apart stay in the one tile: none is lone
        tiles, pairs = kernel_tiles(1e-3, spread(TILE, 1e-3))
        assert tiles == [slice(0, TILE)] and pairs == []

    def test_a_neighbour_at_exactly_the_window_stays_tiled(self):
        # sigma and WINDOW sigma are exact in binary, as is 1 + WINDOW sigma
        sigma = 2.0**-20
        pts = spread(TILE + 1, sigma)
        pts[TILE, 0] = pts[TILE - 1, 0] + WINDOW * sigma
        assert pts[TILE, 0] - pts[TILE - 1, 0] == WINDOW * sigma
        tiles, pairs = kernel_tiles(sigma, pts)
        assert [list(t) for t in tiles] == [[TILE - 1, TILE]] and pairs == []
        np.testing.assert_array_equal(in_no_tile(sigma, pts), np.arange(TILE - 1))
        pts[TILE, 0] = np.nextafter(pts[TILE, 0], np.inf)  # one ulp beyond
        assert kernel_tiles(sigma, pts) == ([], [])
        np.testing.assert_array_equal(in_no_tile(sigma, pts), np.arange(TILE + 1))

    @pytest.mark.parametrize("sigma", [HYBRID_SIGMA, 1e-3])
    def test_coincident_particles_are_never_lone(self, sigma):
        pts = spread(TILE + 3, sigma)
        pts[[5, 9]] = pts[7]  # three at one point, the rest spread out
        pts[TILE + 2] = pts[TILE + 1]  # and two at the far end
        tiles, pairs = kernel_tiles(sigma, pts)
        assert [list(t) for t in tiles] == [[5, 7, 9, TILE + 1, TILE + 2]]
        lone = in_no_tile(sigma, pts)
        assert lone.size == TILE - 2 and not {5, 7, 9, TILE + 1, TILE + 2} & set(lone)
        assert np.all(outside_the_tiles(sigma, pts) == 0.0)

    def test_every_particle_lone_gets_its_own_score(self):
        # beyond one tile with no near pair: each kernel row is e_i, and the
        # direction keeps the rows it starts with, bytes and signs alike
        n = TILE + 44
        sigma = 1.0 / n**2
        pts = spread(n, sigma)
        assert kernel_tiles(sigma, pts) == ([], [])
        assert in_no_tile(sigma, pts).size == n
        target = BoltzmannTarget(make_benchmark("ackley", 2), kappa=10.0)
        _, attraction, repulsion, _ = _forces(pts, target, sigma, EvalCounter())
        scores = score(target, pts, EvalCounter())
        assert attraction.tobytes() == (scores / n).tobytes()
        assert repulsion.tobytes() == np.zeros((n, 2)).tobytes()  # +0.0
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

    def test_keeps_the_window_at_the_smallest_width(self):
        # below SIGMA_MIN sigma**2 would be subnormal and round coarsely
        # (at 2.81e-162, k(41 sigma) = 1.8e-292 past the window), so such a
        # width is refused; at SIGMA_MIN sigma**2 = 2^-1022 is exact, a pair
        # 38 sigma apart keeps a subnormal kernel value and is tiled, and one
        # 41 sigma apart has k = 0.0 and both particles are lone
        with pytest.raises(ConfigError, match="sigma"):
            SbsConfig(sigma=2.81e-162)
        sigma = SIGMA_MIN
        assert sigma**2 == np.finfo(float).tiny
        pts = np.zeros((TILE + 1, 2))
        pts[:TILE - 1, 0] = np.linspace(-4.0, -1.0, TILE - 1)
        for gap in (38, 41):
            pts[TILE, 0] = gap * sigma
            kval = pairwise_kernel(sigma, pts[TILE - 1:])[0][0, 1]
            tiles, pairs = kernel_tiles(sigma, pts)
            lone = in_no_tile(sigma, pts)
            if gap < WINDOW:
                assert 0.0 < kval < np.finfo(float).tiny
                assert [list(t) for t in tiles] == [[TILE - 1, TILE]] and pairs == []
                np.testing.assert_array_equal(lone, np.arange(TILE - 1))
            else:
                assert kval == 0.0 and tiles == [] and pairs == []
                np.testing.assert_array_equal(lone, np.arange(TILE + 1))
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
            pairs = kernel_tiles(sigma, entering)[1]
            lone = in_no_tile(sigma, entering)
            assert (lone.size > n // 4 and len(pairs) == 2) == (sigma < 0.05)
            target = BoltzmannTarget(obj, kappa=cfg.kappa)
            want = ksd(entering, target, sigma, EvalCounter())
            assert r.diagnostics[0].ksd == want
            oracle = dense_parts(sigma, entering, score(target, entering, EvalCounter()))[2]
            assert want == pytest.approx(oracle, rel=1e-12)

    def test_ksd_makes_the_blocks_of_the_direction(self, monkeypatch):
        # ksd() is assembled from the one walk in svgd._forces: one block per
        # pair of tiles, none for the lone set or a tile with no near pair,
        # and no kernel of its own
        obj = make_benchmark("ackley", 2)
        sigma = 2e-4
        cfg = SbsConfig(n_particles=3 * TILE, sigma=sigma, max_iterations=1)
        pts = sbs_run(obj, cfg, 10**6, 2, log_every=1).trajectory.snapshots[0].positions
        tiles, pairs = kernel_tiles(sigma, pts)
        assert len(tiles) == 3 and len(pairs) == 2 and in_no_tile(sigma, pts).size > 0
        proven = sum(len(t) >= PROOF_MIN and near_pairs(sigma, pts[t])[0].size == 0
                     for t in tiles)
        assert proven == 3  # each tile's block is the identity; the pairs' are not
        made = []

        def counted(sigma, positions, others=None):
            made.append(len(positions))
            return pairwise_kernel(sigma, positions, others)

        def second_walk(*args, **kwargs):
            raise AssertionError("a kernel block made outside svgd._forces")

        target = BoltzmannTarget(obj, kappa=cfg.kappa)
        oracle = dense_parts(sigma, pts, score(target, pts, EvalCounter()))[2]
        monkeypatch.setattr(svgd, "pairwise_kernel", counted)
        monkeypatch.setattr(boltzmann, "pairwise_kernel", second_walk)
        stein = ksd(pts, target, sigma, EvalCounter())
        assert made == [TILE] * len(pairs)
        assert stein == pytest.approx(oracle, rel=1e-12)

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


def isolated(near=False):
    """100 points uniform in 10-d, as flow-diag's run starts: at sigma 1e-4
    every pair lies more than 40 sigma apart, so the kernel is the identity.
    With near, point 7 sits 10 sigma from point 3."""
    pts = np.random.default_rng(12).uniform(-4.5, 4.5, size=(100, 10))
    if near:
        pts[7] = pts[3] + 10 * 1e-4 / np.sqrt(10)
    return pts


@pytest.fixture
def blocks_made(monkeypatch):
    """The particle count of each dense block svgd makes, in order."""
    made = []

    def counted(*args):
        made.append(len(args[1]))
        return pairwise_kernel(*args)

    monkeypatch.setattr(svgd, "pairwise_kernel", counted)
    return made


def three_tiles(sigma):
    """527 particles beyond one tile: coordinate 0 steps 10 sigma, so
    neighbouring tiles pair up, while coordinate 1 keeps each particle over
    40 sigma from the others; one pair in the middle tile is 10 sigma apart,
    and five particles far out on coordinate 0 are lone."""
    n = 2 * TILE + 10
    steps = np.arange(n)
    pts = np.stack([-2.0 + 10 * sigma * steps, -2.0 + 100 * sigma * (steps % 4)], 1)
    pts[TILE + 5, 1] = pts[TILE + 6, 1]
    return np.concatenate([pts, np.stack([3.0 + 0.1 * np.arange(5), np.zeros(5)], 1)])


class TestIdentityBlock:
    """A tile whose block with itself is exactly the identity gives the lone
    particles' rows, proven or not: the direction keeps the dense bits, and
    the KSD takes the lone formula, equal to the dense one up to its last
    bits."""

    def test_isolated_particles_keep_the_dense_direction(self):
        sigma = 1e-4
        pts = isolated()
        (a, r, stein), (da, dr, dstein, kmat) = tiled_and_dense(sigma, pts)
        assert np.count_nonzero(kmat) == 100
        np.testing.assert_array_equal(a, da)
        np.testing.assert_array_equal(r, dr)
        assert (a + r).tobytes() == (da + dr).tobytes()
        assert stein == pytest.approx(dstein, rel=1e-14)
        assert stein == lone_ksd(sigma, pts)

    def test_a_near_pair_makes_no_block(self, blocks_made):
        # the direction and ksd() compute the one near pair alone
        # (TestNearPairs), with the dense block's bits in the direction
        sigma = 1e-4
        pts = isolated(near=True)
        (a, r, stein), (da, dr, dstein, kmat) = tiled_and_dense(sigma, pts)
        assert blocks_made == []
        assert np.count_nonzero(kmat) == 102 and kmat[3, 7] > 0.0
        np.testing.assert_array_equal(a, da)
        np.testing.assert_array_equal(r, dr)
        assert r[7].any()
        assert stein == pytest.approx(dstein, rel=1e-14)

    def test_identity_tiles_beside_a_near_tile_and_lone_particles(self):
        sigma = 1e-4
        pts = three_tiles(sigma)
        tiles, pairs = kernel_tiles(sigma, pts)
        assert len(tiles) == 3 and pairs == [(0, 1), (1, 2)]
        assert in_no_tile(sigma, pts).size == 5
        blocks = [pairwise_kernel(sigma, pts[t])[0] for t in tiles]
        assert [np.array_equal(k, np.eye(len(k))) for k in blocks] == [True, False, True]
        (a, r, stein), (da, dr, dstein, _) = tiled_and_dense(sigma, pts)
        assert max_normalised(a, da) <= 1e-14 and max_normalised(r, dr) <= 1e-14
        assert stein == pytest.approx(dstein, rel=1e-14)

    @pytest.mark.parametrize("case, want", [
        ("three tiles", "fa320a9c03d1ca2871c3333f50d67279ab693da8dbe25f9d6891064e57ed43b7"),
        ("ackley 768", "73b8ceb09dbfe9b5f4a698b2b7f998b76f478a9279ef77e4a666e0c0f6f5849d"),
    ])
    def test_direction_bytes_beyond_one_tile(self, case, want):
        # the sha256 of _forces' attraction and repulsion bytes where tiles,
        # pairs of tiles, identity tiles and lone particles meet. Like the
        # golden rows, these digests pin OpenBLAS's summation lanes, not
        # just the algebra: another BLAS may round the block products apart
        obj = make_benchmark("ackley", 2)
        if case == "three tiles":
            sigma, kappa = 1e-4, 10.0
            pts = three_tiles(sigma)
        else:  # the entering particles of CI's 768-particle run, seed 0
            sigma = 2e-4
            cfg = SbsConfig(n_particles=3 * TILE, sigma=sigma, max_iterations=1)
            pts = sbs_run(obj, cfg, 10_000, 0, log_every=1).trajectory.snapshots[0].positions
            kappa = cfg.kappa
        target = BoltzmannTarget(obj, kappa=kappa)
        _, a, r, _ = _forces(pts, target, sigma, EvalCounter())
        assert hashlib.sha256(a.tobytes() + r.tobytes()).hexdigest() == want

    @pytest.mark.parametrize("near", [False, True])
    def test_a_non_finite_score_raises_on_both_paths(self, near):
        # finite values whose gradient times kappa overflows to -inf
        steep = make_objective("steep", [-5.0] * 10, [5.0] * 10, lambda p: 1e306 * p[0])
        target = BoltzmannTarget(steep, kappa=1e3)
        pts = isolated(near)
        assert np.array_equal(pairwise_kernel(1e-4, pts)[0], np.eye(100)) != near
        with np.errstate(over="ignore", invalid="ignore"):  # -inf, and 0 * -inf
            assert np.isneginf(score(target, pts, EvalCounter())[:, 0]).all()
            with pytest.raises(NonFiniteValue):
                _iterate_with_parts(pts, target, 1e-4, 0.03, AdamState.fresh(100, 10),
                                    EvalCounter())

    def test_an_underflowing_sigma_squared_is_refused(self):
        # sigma**2 rounds to 0, where the diagonal would be exp(-0 / 0) = NaN:
        # the width is refused before any evaluation. At SIGMA_MIN the block
        # is exactly the identity and the direction the lone particles'
        sigma = 1e-170
        assert sigma**2 == 0.0
        target = BoltzmannTarget(make_benchmark("ackley", 10), kappa=10.0)
        counter = EvalCounter()
        with pytest.raises(ValueError, match="sigma"):
            ksd(isolated(), target, sigma, counter)
        assert counter.count == 0
        with pytest.raises(ConfigError, match="sigma"):
            SbsConfig(sigma=sigma)
        assert np.array_equal(pairwise_kernel(SIGMA_MIN, isolated())[0], np.eye(100))
        scores, a, r, _ = _forces(isolated(), target, SIGMA_MIN, EvalCounter())
        np.testing.assert_array_equal(a, scores / 100)
        assert np.all(r == 0.0)

    def test_a_small_identity_tile_takes_the_dense_block(self, blocks_made):
        # 20 particles, below PROOF_MIN, each over 40 sigma from the others:
        # no proof is asked for and the dense identity block is made, whose
        # rows give the lone particles' direction and KSD bit for bit
        sigma = 1e-4
        pts = isolated()[:20]
        assert pts.shape[0] < PROOF_MIN
        assert np.array_equal(pairwise_kernel(sigma, pts)[0], np.eye(20))
        target = BoltzmannTarget(make_benchmark("ackley", 10), kappa=10.0)
        scores, a, r, _ = _forces(pts, target, sigma, EvalCounter())
        stein = ksd(pts, target, sigma, EvalCounter())
        assert blocks_made == [20, 20]
        assert (a + r).tobytes() == (scores / 20 + 0.0).tobytes()
        assert np.all(r == 0.0) and not np.signbit(r).any()
        assert stein == lone_ksd(sigma, pts)

    def test_run_ksd_matches_ksd_of_the_entering_state(self):
        # flow-diag's run: N = 100 on Rastrigin-10d at sigma 1e-4
        obj = make_benchmark("rastrigin", 10)
        cfg = SbsConfig(max_iterations=5)
        r = sbs_run(obj, cfg, 10**6, 0, collect_diagnostics=True, track_ksd=True,
                    log_every=1)
        target = BoltzmannTarget(obj, kappa=cfg.kappa)
        assert len(r.diagnostics) == 5
        for snap, rec in zip(r.trajectory.snapshots, r.diagnostics):
            assert np.array_equal(pairwise_kernel(snap.sigma, snap.positions)[0], np.eye(100))
            assert rec.ksd == ksd(snap.positions, target, snap.sigma, EvalCounter())
            scores = score(target, snap.positions, EvalCounter())
            oracle = dense_parts(snap.sigma, snap.positions, scores)[2]
            assert rec.ksd == pytest.approx(oracle, rel=1e-12)


def planted(r, sigma):
    """isolated() with point 7 moved to r sigma from point 3."""
    pts = isolated()
    pts[7] = pts[3] + r * sigma / np.sqrt(10)
    return pts


def run_bits(result):
    """Everything a run reports, as bytes where it is a float."""
    snaps = result.trajectory.snapshots
    return (result.evals_used, result.iterations_done, np.float64(result.best_f).tobytes(),
            result.best_x.tobytes(),
            np.array([(r.min_f, r.ksd) for r in result.diagnostics]).tobytes(),
            [(s.iteration, s.sigma, s.ids, s.positions.tobytes(), s.f_values.tobytes())
             for s in snaps])


class TestProvenApart:
    """near_pairs certifies from one Gram product which pairs of a tile can
    have a nonzero kernel value; _forces makes no block for a tile with no
    such pair."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), d=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           half_width=st.sampled_from([1.0, 4.5, 512.0]),
           sigma=st.one_of(st.sampled_from([1e-150, SIGMA_MIN, 3 * SIGMA_MIN, 1e-10, 1e-4,
                                            2e-4]),
                           st.floats(1e-12, 1.0)),
           gap=st.one_of(st.none(), st.floats(38.0, 41.0)),
           defect=st.sampled_from([None, "coincident", "nan", "inf"]))
    def test_a_proof_is_an_identity_block(self, n, d, seed, half_width, sigma, gap, defect):
        # every pair near_pairs leaves out has kernel value exactly 0.0
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-half_width, half_width, size=(n, d))
        if gap is not None and n >= 2:  # a pair planted gap sigma apart
            step = rng.normal(size=d)
            pts[1] = pts[0] + gap * sigma * step / np.linalg.norm(step)
        if defect == "coincident" and n >= 2:
            pts[-1] = pts[0]
        elif defect == "nan":
            pts[rng.integers(n)] = np.nan
        elif defect == "inf":
            pts[rng.integers(n), rng.integers(d)] = -np.inf
        near = near_pairs(sigma, pts)
        with np.errstate(invalid="ignore"):  # inf - inf gives NaN
            kmat = pairwise_kernel(sigma, pts)[0]
        if near is not None:
            i, j = near
            assert np.all(i != j) and np.all(np.diff(i * n + j) > 0)  # row-major
            off = kmat.copy()
            off[i, j] = 0.0
            assert np.array_equal(off, np.eye(n))
            if i.size == 0:
                assert np.array_equal(kmat, np.eye(n))
        if defect in ("nan", "inf"):
            assert near is None
        elif defect == "coincident" and n >= 2:
            assert (0, n - 1) in zip(*near) and (n - 1, 0) in zip(*near)

    def test_proves_flow_diag_particles_and_a_lone_one(self):
        for sigma, pts in ((1e-4, isolated()), (1e-150, isolated()),  # 1e-300 is normal
                           (1e-4, isolated()[:1]), (1e-4, 512.0 * isolated() / 4.5)):
            i, j = near_pairs(sigma, pts)
            assert i.size == j.size == 0

    def test_a_window_pair_is_proven_only_beyond_the_window(self):
        sigma = 1e-4
        assert near_pairs(sigma, planted(40.01, sigma))[0].size == 0
        for r in (38.7, 39.99):  # k underflows to 0.0, within the slack band
            assert np.array_equal(pairwise_kernel(sigma, planted(r, sigma))[0], np.eye(100))
            i, j = near_pairs(sigma, planted(r, sigma))
            assert i.tolist() == [3, 7] and j.tolist() == [7, 3]
        assert not np.array_equal(pairwise_kernel(sigma, planted(38.5, sigma))[0], np.eye(100))

    @pytest.mark.parametrize("sigma, pts", [(1e-4, planted(39.5, 1e-4))])
    def test_unproven_identity_blocks_still_take_the_identity_path(self, blocks_made,
                                                                   sigma, pts):
        # in the slack band at sigma 1e-4 the listed pair's kernel value is
        # 0.0, so the near-pair path gives the identity's direction and KSD,
        # bit for bit (a tile with no proof at all: TestIdentityBlock's
        # test_a_small_identity_tile_takes_the_dense_block)
        near = near_pairs(sigma, pts)
        assert near[0].size
        target = BoltzmannTarget(make_benchmark("ackley", 10), kappa=10.0)
        scores, a, r, _ = _forces(pts, target, sigma, EvalCounter())
        stein = ksd(pts, target, sigma, EvalCounter())
        assert blocks_made == []
        np.testing.assert_array_equal(a, scores / 100)
        assert np.all(r == 0.0)
        assert stein == lone_ksd(sigma, pts)

    def test_flow_diag_makes_no_kernel_block(self, monkeypatch):
        made = []

        def counted(*args):
            made.append(len(args[1]))
            return pairwise_kernel(*args)

        def flow_diag():
            return sbs_run(make_benchmark("rastrigin", 10), SbsConfig(max_iterations=10),
                           200_000, 0, collect_diagnostics=True, track_ksd=True, log_every=1)

        monkeypatch.setattr(svgd, "pairwise_kernel", counted)
        assert flow_diag().iterations_done == 10 and made == []
        monkeypatch.setattr(svgd, "near_pairs", lambda sigma, points: None)
        assert flow_diag().iterations_done == 10 and made == [100] * 10

    @pytest.mark.parametrize("method, function, d, budget, params", [
        ("sbs", "rastrigin", 10, 200_000, {}),  # flow-diag's run
        # the filter takes the tile from 100 particles, proven, to 11
        ("sbs-pf", "rosenbrock", 5, 20_000, {"p_move_percentile": 90.0}),
        ("sbs", "ackley", 2, 10_000, {"n_particles": 3 * TILE, "sigma": 2e-4}),
    ])
    def test_runs_keep_their_bits_without_the_proof(self, monkeypatch, method, function,
                                                    d, budget, params):
        obj = make_benchmark(function, d)
        certified = []

        def certify(sigma, points):
            certified.append((len(points), near_pairs(sigma, points)))
            return certified[-1][1]

        def run():
            return run_method(method, obj, budget, 0, dict(params), collect_diagnostics=True,
                              track_ksd=True, log_every=1)

        monkeypatch.setattr(svgd, "near_pairs", certify)
        result = run()
        assert any(near[0].size == 0 for _, near in certified)
        assert min(size for size, _ in certified) >= PROOF_MIN
        if method == "sbs-pf":
            assert min(len(s.ids) for s in result.trajectory.snapshots) < PROOF_MIN
        monkeypatch.setattr(svgd, "near_pairs", lambda sigma, points: None)
        assert run_bits(run()) == run_bits(result)


def near_groups(rng, n, d, sigma, size=4):
    """n points uniform in [-4.5, 4.5]^d, with groups of size points within
    a few sigma of each other (size - 1 near neighbours each, one of each
    group coincident with another), fewer near pairs in both orders than n."""
    pts = rng.uniform(-4.5, 4.5, size=(n, d))
    grouped = n // (size - 1) // size * size
    for g in range(0, grouped, size):
        pts[g + 1:g + size] = pts[g] + rng.normal(size=(size - 1, d)) * 8.0 * sigma / np.sqrt(d)
        pts[g + size - 1] = pts[g + 1]
    return pts[rng.permutation(n)]


def forces_and_dense(sigma, pts):
    """_forces' attraction and repulsion, and dense_parts'."""
    target = BoltzmannTarget(make_benchmark("ackley", pts.shape[1]), kappa=10.0)
    # NaN - x, and the square of a 1e200 coordinate
    with np.errstate(over="ignore", invalid="ignore"):
        forces = _forces(pts, target, sigma, EvalCounter())[1:3]
        dense = dense_parts(sigma, pts, svgd.score(target, pts, EvalCounter()))[:2]
    return forces, dense


class TestNearPairs:
    """A tile with near pairs computes only those pairs, and its direction
    is the dense computation's bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
    @pytest.mark.parametrize("n", [PROOF_MIN, 100, TILE])
    def test_near_pair_tiles_match_the_dense_computation(self, blocks_made, n, d):
        sigma = 1e-4
        rng = np.random.default_rng(1000 * d + n)
        for size in (4, 6):
            pts = near_groups(rng, n, d, sigma, size)
            i, j = near_pairs(sigma, pts)
            assert len(pts) > i.size and np.bincount(i).max() >= size - 1
            (a, r), (da, dr) = forces_and_dense(sigma, pts)
            assert blocks_made == []
            assert np.array_equal(a, da) and np.array_equal(r, dr)
            assert (a + r).tobytes() == (da + dr).tobytes()
            assert r.any()

    @pytest.mark.parametrize("d", [2, 10])
    def test_bunched_tiles_take_the_dense_block(self, blocks_made, d):
        # as many near pairs as particles, or more: the dense block is cheaper
        sigma = 1e-4
        for n in (PROOF_MIN, 100):
            pts = clustered(np.random.default_rng(n), n, sigma, d)
            assert near_pairs(sigma, pts)[0].size >= n
            (a, r), (da, dr) = forces_and_dense(sigma, pts)
            assert blocks_made[-1] == n
            assert a.tobytes() == da.tobytes() and r.tobytes() == dr.tobytes()

    @pytest.mark.parametrize("defect", ["nan", "overflow"])
    def test_no_proof_takes_the_dense_block(self, monkeypatch, blocks_made, defect):
        # a NaN coordinate, or a finite one whose square overflows the norms
        # (a sigma whose square is subnormal is refused: TestSigmaDomain)
        sigma = 1e-4
        pts = near_groups(np.random.default_rng(3), 100, 2, sigma)
        pts[5, 1] = np.nan if defect == "nan" else 1e200
        # evaluate rejects a point outside the box, so the scores are zeros here
        monkeypatch.setattr(svgd, "score", lambda target, x, counter: np.zeros_like(x))
        assert near_pairs(sigma, pts) is None
        (a, r), (da, dr) = forces_and_dense(sigma, pts)
        assert blocks_made == [100]
        np.testing.assert_array_equal(a, da)
        np.testing.assert_array_equal(r, dr)
        assert np.isnan(r).any() == (defect == "nan")

    def test_one_dimensional_tiles_take_the_dense_block(self, blocks_made):
        # in 1-d the dense einsum sums along j in its own order, which np.add.at
        # over the near pairs does not follow, so the dense block is made
        sigma = 1e-4
        pts = near_groups(np.random.default_rng(1), 100, 1, sigma, size=6)
        i, j = near_pairs(sigma, pts)
        assert len(pts) > i.size and np.bincount(i).max() >= 5
        kmat, diff, _ = pairwise_kernel(sigma, pts)
        pull = np.zeros_like(pts)
        np.add.at(pull, i, kmat[i, j, None] * diff[i, j])
        assert not np.array_equal(pull, np.einsum("ij,ijd->id", kmat, diff))
        (a, r), (da, dr) = forces_and_dense(sigma, pts)
        assert blocks_made == [100]
        assert a.tobytes() == da.tobytes() and r.tobytes() == dr.tobytes()

    def test_ksd_takes_the_near_pair_path(self, monkeypatch, blocks_made):
        # ksd() computes a tile's near pairs alone, as the direction does,
        # and its trace adds them in the dense block's order, so the KSD
        # keeps its bits when the tile makes its dense block instead
        sigma = 1e-4
        pts = near_groups(np.random.default_rng(5), 100, 2, sigma)
        target = BoltzmannTarget(make_benchmark("ackley", 2), kappa=10.0)
        real = near_pairs

        def whole_or_nothing(sigma, points):
            near = real(sigma, points)
            return near if near is None or near[0].size == 0 else None

        want = ksd(pts, target, sigma, EvalCounter())
        assert blocks_made == []
        oracle = dense_parts(sigma, pts, score(target, pts, EvalCounter()))[2]
        assert want == pytest.approx(oracle, rel=1e-12)
        monkeypatch.setattr(svgd, "near_pairs", whole_or_nothing)
        assert ksd(pts, target, sigma, EvalCounter()) == want
        assert blocks_made == [100]

    @pytest.mark.parametrize("track_ksd", [False, True])
    def test_flow_small_runs_keep_their_bits(self, monkeypatch, blocks_made, track_ksd):
        # sbs on Ackley-2d at the defaults: 100 particles at sigma 1e-4, a
        # few near pairs per tile, which make no block, with a KSD or without
        def run():
            r = sbs_run(make_benchmark("ackley", 2), SbsConfig(max_iterations=40), 10**6, 0,
                        collect_diagnostics=True, track_ksd=track_ksd, log_every=1)
            return (np.float64(r.best_f).tobytes(), r.best_x.tobytes(),
                    [(rec.min_f, rec.ksd) for rec in r.diagnostics],
                    [s.positions.tobytes() for s in r.trajectory.snapshots])

        seen = []

        def counted(sigma, points):
            seen.append(near_pairs(sigma, points))
            return seen[-1]

        monkeypatch.setattr(svgd, "near_pairs", counted)
        result = run()
        assert sum(near is not None and 0 < near[0].size < 100 for near in seen) >= 10
        assert blocks_made == []
        monkeypatch.setattr(svgd, "near_pairs", lambda sigma, points: None)
        assert run() == result
