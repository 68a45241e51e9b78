"""Trajectory logging and SVG rendering of 2-d particle runs.

A trajectory log is a plain JSON document: run metadata plus a list of
snapshots, each holding the live particle ids, their positions, and their
function values at one iteration. Particles removed by filtering simply stop
appearing in later snapshots, so their polylines end early in the rendering.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boltzmann import check_sigma
from .errors import NotTwoDimensional
from .objective import Objective, block_values

LOG_FORMAT = "sbsopt-trajectory-1"


@dataclass
class TrajectorySnapshot:
    """Live particle state after one iteration (iteration 0 = initial).

    sigma, the kernel width the run used, must pass check_sigma, and
    positions and f_values must hold one row and one value per id: a log
    read from a file is checked here before any diagnostic uses it.
    """

    iteration: int
    sigma: float
    ids: list[int]
    positions: np.ndarray
    f_values: np.ndarray

    def __post_init__(self):
        check_sigma(self.sigma, "snapshot sigma")
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.f_values = np.asarray(self.f_values, dtype=float)
        self.ids = [int(i) for i in self.ids]
        n = len(self.ids)
        if self.positions.ndim != 2 or len(self.positions) != n:
            raise ValueError(f"snapshot positions have shape {self.positions.shape}, "
                             f"expected one row for each of {n} ids")
        if self.f_values.shape != (n,):
            raise ValueError(f"snapshot f_values have shape {self.f_values.shape}, "
                             f"expected one value for each of {n} ids")


@dataclass
class TrajectoryLog:
    """Metadata and snapshots of one particle-based run.

    kappa and fd_step are the run's Boltzmann target settings, so that a
    diagnostic rebuilds the target the run scored with; None means the
    default (older files hold no fd_step). A set fd_step must be positive
    and finite.
    """

    method: str
    objective_name: str
    dim: int
    lower: list[float]
    upper: list[float]
    kappa: float | None = None
    benchmark: str | None = None
    fd_step: float | None = None
    snapshots: list[TrajectorySnapshot] = field(default_factory=list)

    def __post_init__(self):
        if self.fd_step is not None and not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise ValueError(f"log fd_step must be positive and finite, got {self.fd_step!r}")

    def append(self, snapshot: TrajectorySnapshot) -> None:
        """Add a snapshot; ValueError unless its positions are dim wide."""
        width = snapshot.positions.shape[1]
        if width != self.dim:
            raise ValueError(f"snapshot positions are {width} wide, the log has dim {self.dim}")
        self.snapshots.append(snapshot)

    def to_dict(self) -> dict:
        return {
            "format": LOG_FORMAT,
            "method": self.method,
            "objective": self.objective_name,
            "benchmark": self.benchmark,
            "dim": self.dim,
            "kappa": self.kappa,
            "fd_step": self.fd_step,
            "lower": list(self.lower),
            "upper": list(self.upper),
            "snapshots": [
                {
                    "iteration": s.iteration,
                    "sigma": s.sigma,
                    "ids": s.ids,
                    "positions": s.positions.tolist(),
                    "f_values": s.f_values.tolist(),
                }
                for s in self.snapshots
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "TrajectoryLog":
        if data.get("format") != LOG_FORMAT:
            raise ValueError(f"unrecognized trajectory format: {data.get('format')!r}")
        log = TrajectoryLog(
            method=data["method"],
            objective_name=data["objective"],
            dim=int(data["dim"]),
            lower=[float(v) for v in data["lower"]],
            upper=[float(v) for v in data["upper"]],
            kappa=data.get("kappa"),
            benchmark=data.get("benchmark"),
            fd_step=data.get("fd_step"),
        )
        for s in data["snapshots"]:
            log.append(
                TrajectorySnapshot(
                    iteration=int(s["iteration"]),
                    sigma=float(s["sigma"]),
                    ids=s["ids"],
                    positions=np.array(s["positions"], dtype=float),
                    f_values=np.array(s["f_values"], dtype=float),
                )
            )
        return log

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @staticmethod
    def load(path) -> "TrajectoryLog":
        return TrajectoryLog.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


HEAT_CELLS = 100
_PLOT_SIZE = 600.0
_MARGIN = 30.0
_LOW_COLOR = (38, 52, 110)
_HIGH_COLOR = (247, 243, 229)


def _lerp_color(t: float) -> str:
    r = round(_LOW_COLOR[0] + t * (_HIGH_COLOR[0] - _LOW_COLOR[0]))
    g = round(_LOW_COLOR[1] + t * (_HIGH_COLOR[1] - _LOW_COLOR[1]))
    b = round(_LOW_COLOR[2] + t * (_HIGH_COLOR[2] - _LOW_COLOR[2]))
    return f"#{r:02x}{g:02x}{b:02x}"


def _heat_rects(log: TrajectoryLog, objective: Objective) -> list[str]:
    lo = np.array(log.lower)
    hi = np.array(log.upper)
    centers0 = lo[0] + (np.arange(HEAT_CELLS) + 0.5) / HEAT_CELLS * (hi[0] - lo[0])
    centers1 = lo[1] + (np.arange(HEAT_CELLS) + 0.5) / HEAT_CELLS * (hi[1] - lo[1])
    # cell (i, j) is row i * HEAT_CELLS + j, scored in one off-budget block
    grid = np.stack(np.meshgrid(centers0, centers1, indexing="ij"), axis=-1)
    values = block_values(objective, grid.reshape(-1, 2))
    values = values.reshape(HEAT_CELLS, HEAT_CELLS)
    vmin, vmax = values.min(), values.max()
    span = vmax - vmin if vmax > vmin else 1.0
    cell = _PLOT_SIZE / HEAT_CELLS
    rects = []
    for i in range(HEAT_CELLS):
        px = _MARGIN + i * cell
        for j in range(HEAT_CELLS):
            # SVG y runs downward; cell j covers the j-th slab from the bottom
            py = _MARGIN + _PLOT_SIZE - (j + 1) * cell
            color = _lerp_color(float((values[i, j] - vmin) / span))
            rects.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cell:.2f}" '
                f'height="{cell:.2f}" fill="{color}"/>'
            )
    return rects


def plot_trajectories(log: TrajectoryLog, out_path, objective: Objective | None = None) -> None:
    """Render a 2-d trajectory log as an SVG file.

    Particle paths are drawn as polylines over a fixed 100 x 100 heat grid of
    function values. The objective is resolved from the log's benchmark name
    when not supplied explicitly.
    """
    if log.dim != 2:
        raise NotTwoDimensional(f"can only plot 2-d runs, log has dim {log.dim}")
    if not log.snapshots:
        raise ValueError("trajectory log has no snapshots")
    if objective is None:
        if log.benchmark is None:
            raise ValueError("log names no benchmark; pass an objective to plot")
        from .benchmarks import make_benchmark

        objective = make_benchmark(log.benchmark, log.dim)

    lo = np.array(log.lower)
    hi = np.array(log.upper)
    span = hi - lo

    def to_px(point: np.ndarray) -> tuple[float, float]:
        px = _MARGIN + (point[0] - lo[0]) / span[0] * _PLOT_SIZE
        py = _MARGIN + (hi[1] - point[1]) / span[1] * _PLOT_SIZE
        return px, py

    paths: dict[int, list[tuple[float, float]]] = {}
    for snap in log.snapshots:
        for row, pid in enumerate(snap.ids):
            paths.setdefault(pid, []).append(to_px(snap.positions[row]))

    size = 2 * _MARGIN + _PLOT_SIZE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="#ffffff"/>',
    ]
    parts.extend(_heat_rects(log, objective))
    for pid in sorted(paths):
        pts = paths[pid]
        color = f"hsl({(pid * 47) % 360},65%,42%)"
        if len(pts) > 1:
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.2" stroke-opacity="0.85"/>'
            )
        lx, ly = pts[-1]
        parts.append(f'<circle cx="{lx:.2f}" cy="{ly:.2f}" r="2.4" fill="{color}"/>')
    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts), encoding="utf-8")
