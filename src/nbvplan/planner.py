"""The NBV iteration loop with the global partitioning strategy.

The candidate sphere is divided into `beta` longitude sectors.  Until every
sector has been visited, the next view may only come from an unscanned
sector adjacent (mod beta) to an already-scanned one; afterwards selection
is a plain argmax of the view quality F.  A sector counts as scanned once a
view from it is selected.

Simulation uses ground-truth camera poses, so the pose-registration step a
real rig would need (and the registration rationale behind partitioning) is
exercised only through the adjacency constraint itself.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .ellipsoid import Ellipsoid, refit_all
from .geometry import Pose, look_at, spherical_direction
from .mesh import TriangleMesh
from .oracle import oracle_scores
from .projection import evaluate_all
from .render import frame_to_points, render_depth
from .views import (
    UP,
    Candidate,
    Candidates,
    assign_partitions,
    sample_candidates,
    sampling_radius,
)
from .voxel import (
    Observation,
    VoxelGrid,
    VoxelState,
    initial_bbox,
    integrate_observation,
    mark_occupied,
    preprocess_points,
    update_bbox,
    update_frontier,
)

log = logging.getLogger("nbvplan")


class InfeasiblePartitionError(RuntimeError):
    """No scored candidate lies in an admissible partition."""


@dataclass
class PartitionLedger:
    beta: int
    scanned: set[int] = field(default_factory=set)

    def mark(self, partition: int) -> None:
        if not (0 <= partition < self.beta):
            raise ValueError("partition out of range")
        self.scanned.add(partition)


@dataclass
class IterationTiming:
    compute_s: float  # the whole iteration except the synthetic render


@dataclass
class PlannerState:
    config: RunConfig
    grid: VoxelGrid
    mesh: TriangleMesh
    iteration: int = 0
    e_o: list[Ellipsoid] = field(default_factory=list)
    e_f: list[Ellipsoid] = field(default_factory=list)
    point_chunks: list[np.ndarray] = field(default_factory=list)  # accumulated P_f
    ledger: PartitionLedger | None = None
    timings: list[IterationTiming] = field(default_factory=list)
    empty_frontier_streak: int = 0

    def __post_init__(self):
        if self.ledger is None:
            self.ledger = PartitionLedger(beta=self.config.beta)

    @property
    def acquired_points(self) -> np.ndarray:
        if not self.point_chunks:
            return np.empty((0, 3))
        return np.vstack(self.point_chunks)


def admissible_partitions(ledger: PartitionLedger) -> set[int]:
    """Sectors a new view may come from under the partitioning strategy."""
    every = set(range(ledger.beta))
    if not ledger.scanned or ledger.scanned == every:
        return every
    adjacent = set()
    for p in ledger.scanned:
        adjacent.add((p - 1) % ledger.beta)
        adjacent.add((p + 1) % ledger.beta)
    return adjacent - ledger.scanned


def select_next_view(candidates: Candidates, ledger: PartitionLedger, iteration: int = 0) -> Candidate:
    """Argmax of F over the admissible partitions; marks the winner's sector.

    One masked argmax over the set's `partition` and `scores` arrays returns
    the winner's handle, `candidates[best]`.  Ties break toward the lower
    candidate index.  Raises InfeasiblePartitionError when no candidate sits
    in an admissible sector, and ValueError when an admissible candidate's
    score is not finite (NaN until scored); scores outside the admissible
    sectors are not checked.  `iteration` is unused; callers that pass it
    keep working.
    """
    if not candidates:
        raise ValueError("select_next_view requires scored candidates")
    allowed = admissible_partitions(ledger)
    admissible = np.isin(candidates.partition, list(allowed))
    if not admissible.any():
        raise InfeasiblePartitionError(
            f"no candidate in admissible partitions {sorted(allowed)}"
        )
    unfit = admissible & ~np.isfinite(candidates.scores)
    if unfit.any():
        idx = int(np.argmax(unfit))
        raise ValueError(f"candidate {idx} lacks a finite score: {candidates[idx].score}")
    best = int(np.argmax(np.where(admissible, candidates.scores, -np.inf)))
    ledger.mark(int(candidates.partition[best]))
    return candidates[best]


def should_terminate(state: PlannerState) -> bool:
    """Budget exhausted, or the frontier has been empty twice in a row."""
    if state.iteration >= state.config.iterations:
        return True
    return state.empty_frontier_streak >= 2


# ---- observation plumbing ---------------------------------------------------


def _observe(state: PlannerState, pose: Pose, frame_seed: int) -> tuple[Observation | None, float]:
    """Render from `pose`, accumulate P_f, and build the ray observation.

    Also returns the seconds spent in `render_depth`, which compute time
    excludes.
    """
    cfg = state.config
    t0 = time.perf_counter()
    frame = render_depth(
        state.mesh, pose, cfg.intrinsics(), noise_sigma=cfg.noise_sigma, noise_seed=frame_seed
    )
    render_s = time.perf_counter() - t0
    points = frame_to_points(frame)

    lo, hi = state.grid.span
    cropped = points[np.all((points >= lo) & (points <= hi), axis=1)]
    if len(cropped) == 0:
        log.warning("all-miss observation at iteration %d", state.iteration)
        return None, render_s
    state.point_chunks.append(cropped)

    deduped = preprocess_points(
        cropped, spacing=cfg.resolution / 2.0, align_origin=state.grid.origin
    )
    return Observation(points=deduped, sensor_origin=pose.translation), render_s


def _refit(state: PlannerState) -> None:
    """Refit both ellipsoid sets to the grid's Occupied and Frontier voxel centers."""
    cfg, grid = state.config, state.grid
    occupied, frontier = (
        grid.voxel_centers(grid.unflat(grid.indices_in_state(kind)))
        for kind in (VoxelState.OCCUPIED, VoxelState.FRONTIER)
    )
    seed = cfg.seed + 7919 * (state.iteration + 1)
    state.e_o, state.e_f = refit_all(occupied, frontier, grid.resolution, t_max=cfg.t_max, seed=seed)
    state.empty_frontier_streak = 0 if state.e_f else state.empty_frontier_streak + 1


def initialize(mesh: TriangleMesh, config: RunConfig) -> PlannerState:
    """Build the grid and integrate the preset initial observation."""
    half = config.workspace_half
    grid = VoxelGrid.from_box(
        np.array([-half, -half, -half]), np.array([half, half, half]), config.resolution
    )
    state = PlannerState(config=config, grid=grid, mesh=mesh)

    polar = np.deg2rad(config.initial_polar_deg)
    azimuth = np.deg2rad(config.initial_azimuth_deg)
    r0 = config.d_c + 0.15  # the first view stands just beyond the working distance
    position = r0 * spherical_direction(polar, azimuth)
    pose = look_at(position, np.zeros(3), UP)

    obs, _ = _observe(state, pose, frame_seed=config.seed)
    if obs is None:
        raise ValueError("initial observation saw nothing: is the mesh inside the first view?")
    # Rule 2 is inert until the box exists: initialize it from the frame's
    # Occupied cells, so the one integration pass also marks the occlusion
    # shadow inside the new box.
    mark_occupied(grid, obs.points)
    initial_bbox(grid, pose.optical_axis)
    integrate_observation(grid, obs)
    update_frontier(grid)
    _refit(state)
    return state


def candidate_views(state: PlannerState) -> Candidates:
    """Sector-tagged candidates on the sampling sphere around the current bbox."""
    cfg = state.config
    bmin, bmax = state.grid.bbox
    candidates = sample_candidates(
        cfg.sampling(), 0.5 * (bmin + bmax), sampling_radius(state.grid.bbox, cfg.d_c)
    )
    return assign_partitions(candidates, cfg.beta)


def _score_candidates(state: PlannerState, candidates: Candidates) -> None:
    cfg = state.config
    if cfg.evaluator == "projection":
        evaluate_all(candidates, state.e_o, state.e_f, cfg.intrinsics())
    elif cfg.evaluator == "oracle":
        visible_frontier, _ = oracle_scores(
            candidates.rotations, candidates.positions, state.grid, cfg.intrinsics(), cfg.stride
        )
        candidates.scores[:] = visible_frontier
    else:  # random baseline
        candidates.scores[:] = np.random.default_rng((cfg.seed, state.iteration)).random(len(candidates))


def run_iteration(state: PlannerState) -> Candidate:
    """One NBV step: sample, score, select, observe, update, refit."""
    cfg = state.config
    t0 = time.perf_counter()
    candidates = candidate_views(state)
    _score_candidates(state, candidates)
    try:
        chosen = select_next_view(candidates, state.ledger, iteration=state.iteration)
    except InfeasiblePartitionError:
        log.warning("partition constraint infeasible; widening to all sectors")
        state.ledger.scanned = set(range(cfg.beta))
        chosen = select_next_view(candidates, state.ledger, iteration=state.iteration)

    obs, render_s = _observe(state, chosen.pose, frame_seed=cfg.seed + state.iteration + 1)
    if obs is not None:  # an all-miss frame leaves the grid as it was
        integrate_observation(state.grid, obs)
        update_bbox(state.grid)
        update_frontier(state.grid)
    _refit(state)
    state.timings.append(IterationTiming(compute_s=time.perf_counter() - t0 - render_s))
    state.iteration += 1
    return chosen
