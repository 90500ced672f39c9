"""End-to-end runs: execute the planning loop, compute metrics, write run files.

`run` writes every file of a run under `config.out`: records.csv and
final.ply (the acquired points), and, when the `nbvplan` logger is enabled
for INFO, voxels_<iteration>.ply (each classified voxel's center and state)
and ellipsoids.txt (one line per ellipsoid per iteration).

Metrics follow the two-number protocol: point-cloud coverage (fraction of
10,000 area-uniform model samples with an acquired point within 5 mm) and
per-iteration compute time.  Compute time covers the whole iteration
(viewpoint selection, turning the depth frame into points, and the
scene-representation update) except the synthetic `render_depth` call,
which a real camera would not incur.

records.csv has one row per iteration and the columns of `RECORD_FORMATS`,
in its order; each value is written with the format spec given there.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .config import RunConfig
from .ellipsoid import Ellipsoid
from .mesh import load_mesh, sample_surface_points, save_ply_points
from .planner import PlannerState, initialize, run_iteration, should_terminate
from .views import Candidate
from .voxel import VoxelGrid, VoxelState

log = logging.getLogger("nbvplan")

RECORD_FORMATS = {
    "iteration": "d", "coverage": ".9f", "compute_time_s": ".6f",
    "pos_x": ".9g", "pos_y": ".9g", "pos_z": ".9g",
    "partition": "d", "n_empty": "d", "n_occupied": "d", "n_unknown": "d", "n_frontier": "d",
    "n_eo": "d", "n_ef": "d",
}
CSV_FIELDS = list(RECORD_FORMATS)


@dataclass
class IterationRecord:
    iteration: int
    coverage: float
    compute_time_s: float
    pos: np.ndarray
    partition: int
    n_empty: int
    n_occupied: int
    n_unknown: int
    n_frontier: int
    n_eo: int
    n_ef: int

    def row(self) -> dict:
        """The records.csv row: every column formatted by `RECORD_FORMATS`."""
        values = vars(self) | dict(zip(("pos_x", "pos_y", "pos_z"), self.pos))
        return {name: format(values[name], spec) for name, spec in RECORD_FORMATS.items()}


def _within(model_points: np.ndarray, acquired: np.ndarray, threshold: float) -> np.ndarray:
    """Mask of the model samples with an acquired point within `threshold` (m)."""
    # The nearest distance does not depend on the tree's layout; a tree built
    # unbalanced and uncompacted is faster to build than the balanced default.
    tree = cKDTree(acquired, balanced_tree=False, compact_nodes=False)
    dist, _ = tree.query(model_points, k=1, distance_upper_bound=threshold * (1 + 1e-12))
    return dist <= threshold


def coverage(model_points: np.ndarray, acquired: np.ndarray, threshold: float) -> float:
    """Fraction of model samples with an acquired point within `threshold` (m)."""
    if not threshold > 0:  # also rejects NaN
        raise ValueError("threshold must be positive")
    model_points = np.asarray(model_points, dtype=float).reshape(-1, 3)
    acquired = np.asarray(acquired, dtype=float).reshape(-1, 3)
    if len(acquired) == 0 or len(model_points) == 0:
        return 0.0
    return float(np.count_nonzero(_within(model_points, acquired, threshold)) / len(model_points))


def _record_for(state: PlannerState, chosen: Candidate, cov: float) -> IterationRecord:
    counts = state.grid.state_counts()
    return IterationRecord(
        iteration=state.iteration,
        coverage=cov,
        compute_time_s=state.timings[-1].compute_s,
        pos=chosen.position,
        partition=chosen.partition_index,
        n_empty=counts["empty"],
        n_occupied=counts["occupied"],
        n_unknown=counts["unknown"],
        n_frontier=counts["frontier"],
        n_eo=len(state.e_o),
        n_ef=len(state.e_f),
    )


def run(config: RunConfig) -> tuple[list[IterationRecord], PlannerState]:
    """Execute the full loop and write the run files; ellipsoids.txt starts empty."""
    dumps = log.isEnabledFor(logging.INFO)
    mesh = load_mesh(config.mesh)
    model_points = sample_surface_points(mesh, config.coverage_samples, seed=config.seed)

    os.makedirs(config.out, exist_ok=True)
    ellipsoids_path = os.path.join(config.out, "ellipsoids.txt")
    if dumps:
        open(ellipsoids_path, "w").close()
    state = initialize(mesh, config)
    covered = np.zeros(len(model_points), dtype=bool)
    n_chunks = 0
    records: list[IterationRecord] = []
    while not should_terminate(state):
        chosen = run_iteration(state)
        # Coverage only grows: each new frame is queried by the open samples alone.
        for chunk in state.point_chunks[n_chunks:]:
            still_open = np.flatnonzero(~covered)
            covered[still_open] = _within(model_points[still_open], chunk, config.coverage_threshold)
        n_chunks = len(state.point_chunks)
        cov = float(np.count_nonzero(covered) / len(model_points))
        rec = _record_for(state, chosen, cov)
        records.append(rec)
        log.info(
            "iter %d  coverage=%.4f  compute=%.3fs  partition=%d  |Eo|=%d |Ef|=%d",
            rec.iteration, rec.coverage, rec.compute_time_s, rec.partition,
            rec.n_eo, rec.n_ef,
        )
        if dumps:
            _dump_voxels(os.path.join(config.out, f"voxels_{state.iteration:02d}.ply"), state.grid)
            _dump_ellipsoids(ellipsoids_path, state.iteration, state.e_o, state.e_f)

    write_csv(os.path.join(config.out, "records.csv"), CSV_FIELDS, [rec.row() for rec in records])
    save_ply_points(os.path.join(config.out, "final.ply"), state.acquired_points)
    return records, state


def write_csv(path: str, fields: list[str], rows: list[dict]) -> None:
    """Write a header of `fields`, then one line per row dict keyed by them."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _dump_voxels(path: str, grid: VoxelGrid) -> None:
    """Write the center and state of every classified voxel as PLY."""
    flat = np.nonzero(grid.states != int(VoxelState.NONE))[0]
    save_ply_points(path, grid.voxel_centers(grid.unflat(flat)), states=grid.states[flat])


def _dump_ellipsoids(path: str, iteration: int, e_o: list[Ellipsoid], e_f: list[Ellipsoid]) -> None:
    """Append a per-iteration text record of each ellipsoid, indexed by its place in its class's list."""
    with open(path, "a") as fh:
        for kind, ellipsoids in (("occupied", e_o), ("frontier", e_f)):
            for index, e in enumerate(ellipsoids):
                a = " ".join(f"{v:.9g}" for v in e.shape.reshape(-1))
                c = " ".join(f"{v:.9g}" for v in e.center)
                fh.write(
                    f"iter={iteration} kind={kind} index={index} "
                    f"members={e.member_count} center={c} shape={a}\n"
                )


def _read_run(path: str) -> np.ndarray:
    """(iterations, 2) coverage and compute time of one records.csv.

    Raises ValueError naming the file and line of a missing column, a row
    whose field count is not the header's, or a value that is not a finite
    number, and naming the file when it has no record.
    """
    columns = ("coverage", "compute_time_s")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for name in columns:
            if name not in header:
                raise ValueError(f"{path}:1: no {name} column")
        at = [header.index(name) for name in columns]
        rows = []
        for fields in reader:
            if not fields:  # a blank line holds no record
                continue
            where = f"{path}:{reader.line_num}"
            if len(fields) != len(header):
                raise ValueError(f"{where}: {len(fields)} fields, the header has {len(header)}")
            try:
                values = [float(fields[i]) for i in at]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            for name, value in zip(columns, values):
                if not np.isfinite(value):
                    raise ValueError(f"{where}: {name} {value} is not finite")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no records")
    return np.array(rows)


def padded_runs(run_dirs: list[str], target_iterations: int = 10) -> np.ndarray:
    """(runs, iterations, 2) coverage and compute time of each run's records.csv.

    There are max(`target_iterations`, longest run) iterations; shorter runs
    are padded by duplicating their last record, so every run contributes to
    every iteration.
    """
    if not run_dirs:
        raise ValueError("summarize requires at least one run directory")
    per_run = [_read_run(os.path.join(d, "records.csv")) for d in run_dirs]
    n_iters = max(target_iterations, *(len(r) for r in per_run))
    return np.stack([np.pad(r, ((0, n_iters - len(r)), (0, 0)), mode="edge") for r in per_run])


def summarize(padded: np.ndarray) -> list[dict]:
    """Per-iteration mean/std of coverage and compute time across the
    `padded_runs` array: one row per padded iteration."""
    mean, std = padded.mean(axis=0), padded.std(axis=0)
    return [
        {
            "iteration": i + 1,
            "mean_coverage": float(mean[i, 0]),
            "std_coverage": float(std[i, 0]),
            "mean_compute_time_s": float(mean[i, 1]),
            "std_compute_time_s": float(std[i, 1]),
            "n_runs": len(padded),
        }
        for i in range(padded.shape[1])
    ]


def coverage_quality(padded: np.ndarray) -> tuple[float, float]:
    """Mean coverage AUC and mean iterations to 95% coverage over the
    `padded_runs` array.

    A run's AUC is its mean coverage over the padded iterations; a run that
    never reaches 95% counts as the padded iteration count + 1.
    """
    coverage = padded[:, :, 0]
    reached = coverage >= 0.95
    iterations = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, coverage.shape[1] + 1)
    return float(coverage.mean(axis=1).mean()), float(iterations.mean())
