"""Ray-casting viewpoint evaluation: the correctness oracle and speed baseline.

A candidate is scored by casting one ray per stride-th pixel through the
voxel grid and counting the unique Frontier and Occupied voxels some ray
reaches before being blocked.  The first Occupied voxel on a ray is itself
visible and terminates the ray; Frontier voxels do not block.  All pixel
rays are walked at once by `traverse_rays`, and a ray reaches its voxels up
to and including its first Occupied one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import spearmanr

from .geometry import CameraIntrinsics, Pose
from .views import CandidateView
from .voxel import VoxelGrid, VoxelState, first_hits, traverse_rays


@dataclass
class OracleScore:
    visible_frontier: int
    visible_occupied: int
    rays_cast: int


def _pixel_ray_dirs(intrinsics: CameraIntrinsics, pose: Pose, stride: int) -> np.ndarray:
    rows = np.arange(0, intrinsics.height, stride, dtype=float)
    cols = np.arange(0, intrinsics.width, stride, dtype=float)
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    dirs_cam = intrinsics.pixel_rays(rr.ravel(), cc.ravel())
    return dirs_cam @ pose.rotation.T


def oracle_evaluate(
    view: CandidateView,
    grid: VoxelGrid,
    intrinsics: CameraIntrinsics,
    stride: int = 4,
) -> OracleScore:
    """Count Frontier/Occupied voxels visible from the view through pixel rays."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    dirs = _pixel_ray_dirs(intrinsics, view.pose, stride)
    # Segments of length max_range, clipped to the grid by the traversal.
    starts = np.broadcast_to(view.pose.translation, dirs.shape)
    reached = np.zeros(grid.n_voxels, dtype=bool)
    occupied = grid.states == int(VoxelState.OCCUPIED)
    for _, flat, valid in traverse_rays(grid, starts, dirs * intrinsics.max_range, 1.0):
        last = first_hits(valid & occupied[flat])
        reached[flat[valid & (np.arange(flat.shape[1]) <= last)]] = True

    return OracleScore(
        visible_frontier=int(np.count_nonzero(reached & (grid.states == int(VoxelState.FRONTIER)))),
        visible_occupied=int(np.count_nonzero(reached & occupied)),
        rays_cast=len(dirs),
    )


def oracle_rank(
    candidates: list[CandidateView],
    grid: VoxelGrid,
    intrinsics: CameraIntrinsics,
    stride: int = 4,
) -> list[tuple[CandidateView, OracleScore]]:
    """Candidates ordered by visible_frontier, descending and stable."""
    if not candidates:
        raise ValueError("oracle_rank requires candidates")
    scored = [(v, oracle_evaluate(v, grid, intrinsics, stride)) for v in candidates]
    order = sorted(
        range(len(scored)), key=lambda i: (-scored[i][1].visible_frontier, i)
    )
    return [scored[i] for i in order]


def rank_agreement(scores: np.ndarray, visible_frontier: np.ndarray) -> tuple[float, float]:
    """(Spearman rho of F vs the oracle's visible frontier, top-1 regret).

    The regret is the share of the best view's visible frontier that the
    view with the highest F misses.  Rho is NaN when either side is constant.
    """
    scores = np.asarray(scores, dtype=float)
    frontier = np.asarray(visible_frontier, dtype=float)
    rho = float("nan")
    if np.ptp(scores) > 0 and np.ptp(frontier) > 0:
        rho = float(spearmanr(scores, frontier).statistic)
    best = frontier.max()
    regret = float((best - frontier[np.argmax(scores)]) / best) if best > 0 else 0.0
    return rho, regret
