"""Trajectory logs: serialization roundtrips and SVG rendering."""

import json

import numpy as np
import pytest

from sbsopt import (
    BoltzmannTarget,
    EvalCounter,
    FilterConfig,
    NotTwoDimensional,
    SbsConfig,
    TrajectoryLog,
    TrajectorySnapshot,
    ksd,
    make_benchmark,
    plot_trajectories,
    sbs_run,
)
from sbsopt.cli import main
from sbsopt.trajectory import LOG_FORMAT


def small_log(dim=2, n_snapshots=3):
    log = TrajectoryLog(
        method="sbs",
        objective_name=f"Sphere-{dim}d",
        dim=dim,
        lower=[-5.12] * dim,
        upper=[5.12] * dim,
        kappa=1e3,
        benchmark="Sphere",
    )
    rng = np.random.default_rng(0)
    for it in range(n_snapshots):
        pts = rng.uniform(-5, 5, size=(4, dim))
        log.append(TrajectorySnapshot(
            iteration=it * 10,
            sigma=1e-4,
            ids=list(range(4)),
            positions=pts,
            f_values=np.array([float(p @ p) for p in pts]),
        ))
    return log


class TestSerialization:
    def test_roundtrip_through_dict(self):
        log = small_log()
        again = TrajectoryLog.from_dict(log.to_dict())
        assert again.method == log.method
        assert again.dim == log.dim
        assert again.kappa == log.kappa
        assert len(again.snapshots) == len(log.snapshots)
        for a, b in zip(again.snapshots, log.snapshots):
            assert a.iteration == b.iteration
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.f_values, b.f_values)
            assert a.ids == b.ids

    def test_save_and_load(self, tmp_path):
        log = small_log()
        path = tmp_path / "log.json"
        log.save(path)
        data = json.loads(path.read_text())
        assert data["format"] == LOG_FORMAT
        again = TrajectoryLog.load(path)
        np.testing.assert_array_equal(
            again.snapshots[-1].positions, log.snapshots[-1].positions
        )

    @pytest.mark.parametrize("sigma", [0.0, float("nan")])
    def test_bad_sigma_rejected_on_load(self, sigma, tmp_path, capsys):
        path = tmp_path / "log.json"
        data = small_log().to_dict()
        data["snapshots"][1]["sigma"] = sigma
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="sigma"):
            TrajectoryLog.load(path)
        assert main(["diag", "ksd", str(path)]) == 1
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("fd_step", [0.0, -1e-3, float("inf")])
    def test_bad_fd_step_rejected_on_load(self, fd_step, tmp_path, capsys):
        path = tmp_path / "log.json"
        data = small_log().to_dict()
        data["fd_step"] = fd_step
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="fd_step"):
            TrajectoryLog.load(path)
        assert main(["diag", "ksd", str(path)]) == 1
        assert "fd_step" in capsys.readouterr().err

    def test_a_log_without_fd_step_loads_with_the_default(self):
        data = small_log().to_dict()
        assert data.pop("fd_step") is None
        assert TrajectoryLog.from_dict(data).fd_step is None

    @pytest.mark.parametrize("fd_step", [None, 0.01])
    def test_diag_ksd_rebuilds_the_target_of_the_run(self, fd_step, tmp_path, capsys):
        # snapshot t is the state entering iteration t + 1, whose KSD record
        # is records[t]; at fd_step 0.01 the default step reads 0.1% off
        obj = make_benchmark("ackley", 2)
        cfg = SbsConfig(n_particles=20, fd_step=fd_step, max_iterations=8)
        r = sbs_run(obj, cfg, 10**5, 0, collect_diagnostics=True, track_ksd=True,
                    log_every=1, benchmark="Ackley")
        path = tmp_path / "log.json"
        r.trajectory.save(path)
        log = TrajectoryLog.load(path)
        assert log.fd_step == fd_step and len(log.snapshots) == 9
        target = BoltzmannTarget(obj, kappa=log.kappa, fd_step=log.fd_step)
        for snap, rec in zip(log.snapshots, r.diagnostics):
            assert ksd(snap.positions, target, snap.sigma, EvalCounter()) == rec.ksd
        assert main(["diag", "ksd", str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[2] for row in rows[:8]] == [
            f"{rec.ksd:.10g}" for rec in r.diagnostics]

    def test_filtered_snapshots_carry_the_next_iterations_sigma(self):
        # snapshot t holds the survivors of the filter at iteration t, which
        # iteration t + 1 (records[t]) flows with the bandwidth of their count
        obj = make_benchmark("ackley", 2)
        cfg = SbsConfig(n_particles=40, max_iterations=30, filter=FilterConfig())
        r = sbs_run(obj, cfg, 10**5, 0, collect_diagnostics=True, track_ksd=True,
                    log_every=1)
        counts = [len(snap.ids) for snap in r.trajectory.snapshots]
        assert counts[0] == 40 and counts[-1] < 40
        target = BoltzmannTarget(obj, kappa=cfg.kappa, fd_step=cfg.fd_step)
        for snap, rec in zip(r.trajectory.snapshots, r.diagnostics):
            assert ksd(snap.positions, target, snap.sigma, EvalCounter()) == rec.ksd

    @pytest.mark.parametrize("field, corrupt", [
        # a third column in a 2-d log, which the picture would silently drop
        ("wide", lambda s: s.update(positions=[p + [0.0] for p in s["positions"]])),
        # 2 ids over 4 position rows would plot 2 paths, or print "live 2"
        # next to a KSD of 4 particles
        ("ids", lambda s: s.update(ids=s["ids"][:2])),
        ("f_values", lambda s: s.update(f_values=s["f_values"][:3])),
    ], ids=["wide", "ids", "f_values"])
    def test_bad_shapes_rejected_on_load(self, field, corrupt, tmp_path, capsys):
        path = tmp_path / "log.json"
        data = small_log().to_dict()
        corrupt(data["snapshots"][1])
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=field):
            TrajectoryLog.load(path)
        out = tmp_path / "plot.svg"
        assert main(["plot", str(path), "-o", str(out)]) == 1
        assert not out.exists()
        assert main(["diag", "ksd", str(path)]) == 1
        assert field in capsys.readouterr().err

    def test_unknown_format_rejected(self):
        data = small_log().to_dict()
        data["format"] = "something-else"
        with pytest.raises(ValueError):
            TrajectoryLog.from_dict(data)

    def test_run_produces_consistent_log(self):
        obj = make_benchmark("camel", 2)
        r = sbs_run(obj, SbsConfig(n_particles=6), 2000, 1, log_every=4,
                    benchmark="Camel")
        log = r.trajectory
        assert log is not None
        assert log.method == "sbs"
        assert log.benchmark == "Camel"
        assert log.snapshots[0].iteration == 0
        assert log.snapshots[-1].iteration == r.iterations_done
        iters = [s.iteration for s in log.snapshots]
        assert iters == sorted(iters)
        for snap in log.snapshots:
            assert snap.positions.shape == (len(snap.ids), 2)
            assert np.isfinite(snap.f_values).all()
            # logged f-values describe the logged positions
            for row, x in enumerate(snap.positions):
                assert snap.f_values[row] == pytest.approx(float(obj.evaluator(x)))


class TestPlot:
    def test_writes_svg_with_paths(self, tmp_path):
        out = tmp_path / "plot.svg"
        plot_trajectories(small_log(), out)
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        assert svg.count("<circle") == 4  # one endpoint marker per particle
        assert "<rect" in svg  # heat map cells

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(NotTwoDimensional):
            plot_trajectories(small_log(dim=3), tmp_path / "x.svg")

    def test_rejects_empty_log(self, tmp_path):
        log = TrajectoryLog(
            method="sbs", objective_name="Sphere-2d", dim=2,
            lower=[-1.0, -1.0], upper=[1.0, 1.0],
        )
        with pytest.raises(ValueError):
            plot_trajectories(log, tmp_path / "x.svg")

    def test_requires_resolvable_objective(self, tmp_path):
        log = small_log()
        log.benchmark = None
        with pytest.raises(ValueError):
            plot_trajectories(log, tmp_path / "x.svg")
        # explicit objective fills the gap
        plot_trajectories(log, tmp_path / "ok.svg",
                          objective=make_benchmark("sphere", 2))
        assert (tmp_path / "ok.svg").exists()
