import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbvplan.geometry import CameraIntrinsics, look_at
from nbvplan.oracle import _camera_rays, oracle_evaluate, oracle_scores
from nbvplan.voxel import VoxelGrid, VoxelState
from scalar_reference import CandidateView, oracle_walk_to_exit, stack, traverse_ray


def make_view(position, target):
    return CandidateView(pose=look_at(position, target, [0, 0, 1]))


def scores_of(views, grid, intrinsics, stride):
    """`oracle_scores` of the set stacked from these records."""
    views = stack(views)
    return oracle_scores(views.rotations, views.positions, grid, intrinsics, stride)


@pytest.fixture
def small_intr():
    return CameraIntrinsics(fx=60, fy=60, cx=32, cy=32, width=64, height=64, max_range=10.0)


def centered_grid(n=16, resolution=0.1):
    half = n * resolution / 2
    return VoxelGrid(origin=np.full(3, -half), resolution=resolution, dims=(n, n, n))


def test_single_frontier_visible(small_intr):
    grid = centered_grid()
    grid.grid3d()[8, 8, 8] = VoxelState.FRONTIER
    view = make_view([0, 0, 3.0], [0.05, 0.05, 0.05])
    score = oracle_evaluate(view, grid, small_intr, stride=2)
    assert score.visible_frontier == 1
    assert score.visible_occupied == 0


def test_frontier_behind_occupied_invisible(small_intr):
    grid = centered_grid()
    g3 = grid.grid3d()
    g3[10, 6:11, 6:11] = VoxelState.OCCUPIED  # wall between camera and frontier
    g3[8, 8, 8] = VoxelState.FRONTIER
    view = make_view([0.05, 0.05, 3.0], [0.05, 0.05, 0.05])
    score = oracle_evaluate(view, grid, small_intr, stride=1)
    assert score.visible_frontier == 0
    assert score.visible_occupied > 0


def test_rays_cast_counts(small_intr):
    grid = centered_grid()
    view = make_view([0, 0, 3.0], [0, 0, 0])
    s1 = oracle_evaluate(view, grid, small_intr, stride=1)
    s4 = oracle_evaluate(view, grid, small_intr, stride=4)
    assert s1.rays_cast == 64 * 64
    assert s4.rays_cast == 16 * 16
    with pytest.raises(ValueError):
        oracle_evaluate(view, grid, small_intr, stride=0)


def line_of_sight_visible(grid, origin, max_range, probes="all"):
    """Exhaustive oracle: a voxel counts visible when a probe ray (to its
    center and/or its 8 corners) reaches it before any Occupied voxel."""
    occ = int(VoxelState.OCCUPIED)
    out = {}
    for state in (VoxelState.FRONTIER, VoxelState.OCCUPIED):
        vis = set()
        for flat in grid.indices_in_state(state):
            ijk = grid.unflat([flat])[0]
            base = grid.origin + ijk * grid.resolution
            targets = []
            if probes in ("center", "all"):
                targets.append(base + grid.resolution * 0.5)
            if probes in ("corners", "all"):
                for corner in np.ndindex(2, 2, 2):
                    targets.append(
                        base + np.array(corner) * grid.resolution * 0.999
                        + 5e-4 * grid.resolution
                    )
            for target in targets:
                if np.linalg.norm(target - origin) > max_range:
                    continue
                blocked = reached = False
                for v in traverse_ray(grid, origin, target):
                    vflat = grid.flat_index([v])[0]
                    if vflat == flat:
                        reached = True
                        break
                    if grid.states[vflat] == occ:
                        blocked = True
                        break
                if reached and not blocked:
                    vis.add(int(flat))
                    break
        out[state] = vis
    return out


def pixel_visible_sets(grid, view, intr, stride=1):
    """The oracle's visibility sets (not just counts), for set comparisons."""
    from nbvplan.voxel import first_hits, traverse_rays

    dirs = _camera_rays(intr, stride) @ view.pose.rotation.T
    starts = np.broadcast_to(view.pose.translation, dirs.shape)
    seen_f = np.zeros(grid.n_voxels, bool)
    seen_o = np.zeros(grid.n_voxels, bool)
    for _, flat, valid in traverse_rays(grid, starts, dirs * intr.max_range, 1.0):
        st = np.where(valid, grid.states[flat], int(VoxelState.NONE))
        first = first_hits(st == int(VoxelState.OCCUPIED))
        cols = np.arange(flat.shape[1])
        seen_f[flat[(cols < first) & (st == int(VoxelState.FRONTIER))]] = True
        seen_o[flat[cols == first]] = True
    return set(np.nonzero(seen_f)[0].tolist()), set(np.nonzero(seen_o)[0].tolist())


@pytest.mark.parametrize("seed", range(4))
def test_oracle_matches_line_of_sight(seed, small_intr):
    """Pixel-ray visibility is bracketed exactly by the exhaustive per-voxel
    line-of-sight check: every center-probe-visible voxel is seen, and every
    seen voxel is 9-probe visible.  Counts agree within that band."""
    rng = np.random.default_rng(seed)
    grid = centered_grid(10, resolution=0.12)
    n_vox = grid.n_voxels
    occ_idx = rng.choice(n_vox, size=25, replace=False)
    grid.states[occ_idx] = VoxelState.OCCUPIED
    free = np.setdiff1d(np.arange(n_vox), occ_idx)
    fr_idx = rng.choice(free, size=20, replace=False)
    grid.states[fr_idx] = VoxelState.FRONTIER

    cam = np.array([0.1, -0.15, 4.0])
    view = make_view(cam, [0, 0, 0])
    score = oracle_evaluate(view, grid, small_intr, stride=1)
    pix_f, pix_o = pixel_visible_sets(grid, view, small_intr, stride=1)
    assert score.visible_frontier == len(pix_f)
    assert score.visible_occupied == len(pix_o)

    wide = line_of_sight_visible(grid, cam, small_intr.max_range, probes="all")
    tight = line_of_sight_visible(grid, cam, small_intr.max_range, probes="center")
    assert tight[VoxelState.FRONTIER] <= pix_f <= wide[VoxelState.FRONTIER]
    assert tight[VoxelState.OCCUPIED] <= pix_o <= wide[VoxelState.OCCUPIED]


def test_occlusion_monotonicity(small_intr):
    rng = np.random.default_rng(7)
    grid = centered_grid(12, resolution=0.1)
    fr_idx = rng.choice(grid.n_voxels, size=40, replace=False)
    grid.states[fr_idx] = VoxelState.FRONTIER
    view = make_view([0, 0, 3.0], [0, 0, 0])
    base = oracle_evaluate(view, grid, small_intr, stride=2).visible_frontier

    free = np.nonzero(grid.states == int(VoxelState.NONE))[0]
    for k in (5, 20, 60):
        grid2 = centered_grid(12, resolution=0.1)
        grid2.states[:] = grid.states
        grid2.states[free[:k]] = VoxelState.OCCUPIED
        blocked = oracle_evaluate(view, grid2, small_intr, stride=2).visible_frontier
        assert blocked <= base


@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.sampled_from([(VoxelState.FRONTIER, VoxelState.OCCUPIED), (VoxelState.OCCUPIED,), (VoxelState.FRONTIER,), ()]),
    camera_inside=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_bounded_oracle_matches_walk_to_exit(seed, kinds, camera_inside):
    """Counts equal those of walking every pixel ray to max_range or the grid
    exit: with cells in a block smaller than the grid, without Frontier
    cells, without any cells, with the camera inside the box or outside the
    grid, with a short max_range and with many rays missing the box."""
    rng = np.random.default_rng(seed)
    grid = centered_grid(int(rng.integers(4, 14)), resolution=float(rng.choice([0.07, 0.1, 0.13])))
    lo_ijk = rng.integers(0, grid.dims)
    hi_ijk = lo_ijk + rng.integers(1, grid.dims - lo_ijk + 1)
    block = np.zeros(grid.dims[::-1], dtype=bool)
    block[lo_ijk[2] : hi_ijk[2], lo_ijk[1] : hi_ijk[1], lo_ijk[0] : hi_ijk[0]] = True
    choices = [int(VoxelState.NONE), int(VoxelState.EMPTY), int(VoxelState.UNKNOWN)] + [int(k) for k in kinds]
    grid.grid3d()[block] = rng.choice(choices, int(block.sum()))

    lo, hi = grid.span
    if camera_inside:
        position = rng.uniform(lo, hi)
    else:
        direction = rng.normal(size=3)
        position = 0.5 * (lo + hi) + rng.uniform(1.0, 3.0) * direction / np.linalg.norm(direction)
    target = rng.uniform(lo, hi)
    f = float(rng.uniform(8.0, 40.0))
    intr = CameraIntrinsics(
        fx=f, fy=f, cx=12, cy=9, width=24, height=18, max_range=float(rng.choice([0.3, 1.0, 10.0])),
    )
    view = make_view(position, target)
    stride = int(rng.integers(1, 3))
    assert oracle_evaluate(view, grid, intr, stride) == oracle_walk_to_exit(view, grid, intr, stride)


@pytest.mark.parametrize("stride", [1, 3, 16])
def test_cached_rays_rotate_to_the_rays_built_per_call(stride):
    """Rotating the cached camera-frame rays gives bit for bit the rays built
    from the pixel grid for each view; equal intrinsics share one
    read-only array."""
    intr = CameraIntrinsics(fx=58.0, fy=57.5, cx=31.5, cy=24.0, width=64, height=48, max_range=2.0)
    rays = _camera_rays(intr, stride)
    assert _camera_rays(CameraIntrinsics(**vars(intr)), stride) is rays
    assert not rays.flags.writeable
    rng = np.random.default_rng(stride)
    rr, cc = np.meshgrid(np.arange(0, intr.height, stride), np.arange(0, intr.width, stride), indexing="ij")
    for position in rng.normal(size=(5, 3)):
        pose = look_at(position, rng.normal(scale=0.1, size=3), [0, 0, 1])
        built = intr.pixel_rays(rr.ravel(), cc.ravel()) @ pose.rotation.T
        assert np.array_equal(rays @ pose.rotation.T, built)


def test_oracle_skips_rays_that_miss_the_box(small_intr, caplog):
    """Only rays that meet the padded box of Frontier and Occupied cells are
    walked; the count is that of walking them all, and the walk is logged."""
    grid = centered_grid()
    grid.grid3d()[8, 8, 8] = VoxelState.FRONTIER
    view = make_view([0, 0, 3.0], [0.05, 0.05, 0.05])
    with caplog.at_level(logging.DEBUG, logger="nbvplan"):
        score = oracle_evaluate(view, grid, small_intr, stride=2)
    assert score == oracle_walk_to_exit(view, grid, small_intr, 2)
    assert score.visible_frontier == 1 and score.rays_cast == 32 * 32
    [record] = [r for r in caplog.records if r.getMessage().startswith("oracle_scores:")]
    assert record.levelno == logging.DEBUG
    match = re.fullmatch(
        r"oracle_scores: (\d+) views, (\d+) rays cast, (\d+) walked, (\d+) voxel visits", record.getMessage()
    )
    n_views, cast, walked, visits = map(int, match.groups())
    assert n_views == 1 and cast == 1024 and 0 < walked < cast and visits >= walked


def test_oracle_scores_empty_grid_sees_nothing(small_intr):
    grid = centered_grid()
    views = [make_view([0, 0, 3.0], [0, 0, 0]), make_view([3.0, 0, 0], [0, 0, 0])]
    visible_frontier, visible_occupied = scores_of(views, grid, small_intr, stride=4)
    assert visible_frontier.dtype == visible_occupied.dtype == np.int64
    assert visible_frontier.tolist() == visible_occupied.tolist() == [0, 0]


def test_oracle_scores_facing_cluster_sees_frontier(small_intr):
    grid = centered_grid()
    g3 = grid.grid3d()
    g3[8, 8, 12:15] = VoxelState.FRONTIER  # cluster on the +x side
    facing = make_view([3.0, 0.05, 0.05], [0.05, 0.05, 0.05])
    away = make_view([-3.0, 0.05, 0.05], [-6.0, 0.05, 0.05])  # looks outward
    (away_frontier, facing_frontier), _ = scores_of([away, facing], grid, small_intr, stride=2)
    assert facing_frontier > 0
    assert away_frontier == 0


def test_oracle_scores_logs_one_line_per_call(small_intr, caplog):
    grid = centered_grid()
    grid.grid3d()[8, 8, 12:15] = VoxelState.FRONTIER
    views = [make_view([3.0, 0.05, 0.05], [0.05, 0.05, 0.05]), make_view([0, 0, 3.0], [0, 0, 0])]
    with caplog.at_level(logging.DEBUG, logger="nbvplan"):
        scores_of(views, grid, small_intr, stride=4)
    [message] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("oracle_")]
    assert message.startswith(f"oracle_scores: 2 views, {2 * 16 * 16} rays cast, ")


def test_oracle_scores_counts_equal_per_candidate_evaluation(small_intr):
    """oracle_scores builds the grid's masks and box once for all candidates;
    each count is still that of scoring the candidate alone, and that of
    walking every ray to the grid exit."""
    rng = np.random.default_rng(8)
    grid = centered_grid(12)
    block = grid.grid3d()[3:9, 4:10, 2:8]
    block[...] = rng.choice([int(s) for s in VoxelState], block.shape, p=[0.3, 0.3, 0.1, 0.2, 0.1])
    views = [make_view(p, rng.uniform(-0.3, 0.3, 3)) for p in rng.normal(scale=1.5, size=(8, 3))]
    visible_frontier, visible_occupied = scores_of(views, grid, small_intr, stride=3)
    assert visible_frontier.shape == visible_occupied.shape == (len(views),)
    assert np.count_nonzero(visible_frontier > 0) >= 4
    for view, frontier, occupied in zip(views, visible_frontier, visible_occupied):
        score = oracle_evaluate(view, grid, small_intr, 3)
        assert (score.visible_frontier, score.visible_occupied) == (frontier, occupied)
        assert score == oracle_walk_to_exit(view, grid, small_intr, 3)


def _run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_nbvplan_loads_no_module():
    code = "import sys, nbvplan; print(sorted(m for m in sys.modules if m.startswith('nbvplan.')))"
    assert _run_python(code) == "[]"


def test_import_leaves_scipy_stats_out():
    # scipy.stats is imported by rank_agreement when it runs, not by any module.
    code = (
        "import importlib, pkgutil, sys, nbvplan\n"
        "names = [m.name for m in pkgutil.iter_modules(nbvplan.__path__)]\n"
        "for name in names: importlib.import_module('nbvplan.' + name)\n"
        "print(len(names), 'scipy.stats' in sys.modules)"
    )
    count, loaded = _run_python(code).split()
    assert int(count) >= 12 and loaded == "False"
