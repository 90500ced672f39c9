"""Ray-casting viewpoint evaluation: the correctness oracle and speed baseline.

A candidate is scored by casting one ray per stride-th pixel through the
voxel grid and counting the unique Frontier and Occupied voxels some ray
reaches before being blocked.  The first Occupied voxel on a ray is itself
visible and terminates the ray; Frontier voxels do not block.  All pixel
rays are walked at once by `traverse_rays`, and a ray reaches its voxels up
to and including its first Occupied one, within `max_range`.

Only voxels inside the box of the Frontier and Occupied cells can count or
block, so each ray is walked from the camera only until it leaves that box
padded by one voxel, and a ray that misses the padded box is not walked.
The counts are those of walking every ray to `max_range` or the grid exit.
`oracle_scores` takes the cameras as rotation and position arrays, as
`projection.project` does, builds the masks and the box once per grid for
all of them, and returns the visible Frontier and Occupied counts as two
(N,) arrays.  `oracle_evaluate` is the one-view form, an `OracleScore`,
kept for the benchmark.  The camera-frame pixel rays are built once per
(intrinsics, stride) and only rotated per view.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics
from .views import Candidate
from .voxel import VoxelGrid, VoxelState, cells_bbox, first_hits, ray_box_range, traverse_rays

log = logging.getLogger("nbvplan")


@dataclass
class OracleScore:
    visible_frontier: int
    visible_occupied: int
    rays_cast: int


@functools.cache
def _camera_rays(intrinsics: CameraIntrinsics, stride: int) -> np.ndarray:
    """Read-only unit rays in camera coordinates through every stride-th pixel,
    in row-major order."""
    rows, cols = np.ogrid[0 : intrinsics.height : stride, 0 : intrinsics.width : stride]
    rays = intrinsics.pixel_rays(rows, cols).reshape(-1, 3)
    rays.flags.writeable = False
    return rays


def oracle_scores(
    rotations: np.ndarray,
    positions: np.ndarray,
    grid: VoxelGrid,
    intrinsics: CameraIntrinsics,
    stride: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(visible_frontier, visible_occupied) as int64 (N,) arrays for the
    cameras at (N,3,3) rotations and (N,3) positions, with the grid's masks
    and box built once."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    frontier = grid.states == int(VoxelState.FRONTIER)
    occupied = grid.states == int(VoxelState.OCCUPIED)
    box = cells_bbox(grid, frontier | occupied)
    counts = np.zeros((2, len(positions)), dtype=np.int64)
    walked = visits = 0
    for i, (rotation, position) in enumerate(zip(rotations, positions)):
        dirs = _camera_rays(intrinsics, stride) @ rotation.T
        reached = np.zeros(grid.n_voxels, dtype=bool)
        if box is not None:
            bmin, bmax = box
            # Segments of length max_range, cut where they leave the padded
            # box of the cells that can count; the traversal also clips them
            # to the grid.
            deltas = dirs * intrinsics.max_range
            t_in, t_out = ray_box_range(position, deltas, bmin - grid.resolution, bmax + grid.resolution)
            t_end = np.minimum(t_out, 1.0)
            walk = np.flatnonzero(np.maximum(t_in, 0.0) <= t_end)
            for _, flat, valid in traverse_rays(grid, position, deltas[walk], t_end[walk]):
                last = first_hits(valid & occupied[flat])
                reached[flat[valid & (np.arange(flat.shape[1]) <= last)]] = True
                walked += len(flat)
                visits += int(np.count_nonzero(valid))
        counts[:, i] = np.count_nonzero(reached & frontier), np.count_nonzero(reached & occupied)
    log.debug(
        "oracle_scores: %d views, %d rays cast, %d walked, %d voxel visits",
        len(positions), len(positions) * len(_camera_rays(intrinsics, stride)), walked, visits,
    )
    return counts[0], counts[1]


def oracle_evaluate(
    view: Candidate,
    grid: VoxelGrid,
    intrinsics: CameraIntrinsics,
    stride: int,
) -> OracleScore:
    """Count Frontier/Occupied voxels visible from the view through pixel rays."""
    pose = view.pose
    frontier, occupied = oracle_scores(pose.rotation[None], pose.translation[None], grid, intrinsics, stride)
    return OracleScore(int(frontier[0]), int(occupied[0]), rays_cast=len(_camera_rays(intrinsics, stride)))


def rank_agreement(scores: np.ndarray, visible_frontier: np.ndarray) -> tuple[float, float]:
    """(Spearman rho of F vs the oracle's visible frontier, top-1 regret).

    The regret is the share of the best view's visible frontier that the
    view with the highest F misses.  Rho is NaN when either side is constant.
    """
    scores = np.asarray(scores, dtype=float)
    frontier = np.asarray(visible_frontier, dtype=float)
    rho = float("nan")
    if np.ptp(scores) > 0 and np.ptp(frontier) > 0:
        from scipy.stats import spearmanr  # here: importing scipy.stats doubles `import nbvplan`

        rho = float(spearmanr(scores, frontier).statistic)
    best = frontier.max()
    regret = float((best - frontier[np.argmax(scores)]) / best) if best > 0 else 0.0
    return rho, regret
