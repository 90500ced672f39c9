import copy
import logging
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nbvplan.geometry import CameraIntrinsics, look_at
from nbvplan.harness import _dump_voxels
from nbvplan.render import frame_to_points, render_depth
from nbvplan.shapes import make_sphere
from nbvplan.voxel import (
    Observation,
    VoxelGrid,
    VoxelState,
    _RAY_BLOCK,
    _dilate,
    _ray_parts,
    initial_bbox,
    integrate_observation,
    mark_occupied,
    preprocess_points,
    traverse_rays,
    update_bbox,
    update_frontier,
)
from scalar_reference import (
    integrate_walk_to_exit,
    neighbor_any,
    preprocess_points_sort_all,
    traverse_ray,
    update_bbox_by_indices,
)


def unit_grid(n=8, resolution=1.0):
    return VoxelGrid(origin=np.zeros(3), resolution=resolution, dims=(n, n, n))


def dense_sampling_voxels(grid, start, end, substeps=100):
    """Oracle: sample the segment at resolution/substeps and collect voxels."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    length = np.linalg.norm(end - start)
    n = max(int(length / (grid.resolution / substeps)), 2)
    t = np.linspace(0.0, 1.0, n)
    pts = start + t[:, None] * (end - start)
    ijk = grid.voxel_of(pts)
    ok = grid.in_bounds(ijk)
    seen = set(map(tuple, ijk[ok]))
    return seen, length / n


def segment_chord_in_voxel(grid, start, end, voxel):
    """Exact chord length of the segment inside one voxel (slab clipping)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    lo = grid.origin + np.asarray(voxel) * grid.resolution
    hi = lo + grid.resolution
    d = end - start
    t0, t1 = 0.0, 1.0
    for ax in range(3):
        if d[ax] == 0.0:
            if not (lo[ax] <= start[ax] <= hi[ax]):
                return 0.0
        else:
            ta = (lo[ax] - start[ax]) / d[ax]
            tb = (hi[ax] - start[ax]) / d[ax]
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
    return max(0.0, t1 - t0) * np.linalg.norm(d)


# ---- traverse_ray -----------------------------------------------------------


def test_traverse_axis_aligned():
    grid = unit_grid()
    out = traverse_ray(grid, [0.5, 0.5, 0.5], [3.5, 0.5, 0.5])
    np.testing.assert_array_equal(out, [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])


def test_traverse_single_voxel():
    grid = unit_grid()
    out = traverse_ray(grid, [2.5, 2.5, 2.5], [2.5 + 1e-9, 2.5, 2.5])
    np.testing.assert_array_equal(out, [[2, 2, 2]])


def test_traverse_requires_distinct_endpoints():
    grid = unit_grid()
    with pytest.raises(ValueError):
        traverse_ray(grid, [1, 1, 1], [1, 1, 1])


def test_traverse_outside_grid_empty():
    grid = unit_grid()
    out = traverse_ray(grid, [20, 20, 20], [30, 20, 20])
    assert out.shape == (0, 3)


def test_traverse_matches_dense_sampling_oracle():
    """Sampled voxels must all be walked; any walked voxel the sampler missed
    must be a genuine sub-step corner sliver (exact chord shorter than the
    sampling step, but still positive: the segment really pierces it)."""
    grid = unit_grid(10, resolution=0.37)
    rng = np.random.default_rng(42)
    for _ in range(300):
        start = rng.uniform(-1.0, 4.7, 3)
        end = rng.uniform(-1.0, 4.7, 3)
        if np.allclose(start, end):
            continue
        walked = set(map(tuple, traverse_ray(grid, start, end)))
        sampled, step = dense_sampling_voxels(grid, start, end)
        assert sampled <= walked
        for voxel in walked - sampled:
            chord = segment_chord_in_voxel(grid, start, end, voxel)
            assert 0.0 < chord < step


def test_traverse_ordered_no_duplicates():
    grid = unit_grid(12, resolution=0.5)
    rng = np.random.default_rng(7)
    for _ in range(200):
        start = rng.uniform(-2, 8, 3)
        end = rng.uniform(-2, 8, 3)
        if np.allclose(start, end):
            continue
        walked = traverse_ray(grid, start, end)
        if len(walked) == 0:
            continue
        keys = set(map(tuple, walked))
        assert len(keys) == len(walked)
        # entry distance strictly increases along the ray
        centers = grid.voxel_centers(walked)
        d = end - start
        proj = (centers - start) @ d / np.linalg.norm(d)
        assert np.all(np.diff(proj) > 0)


def traversed_paths(grid, starts, deltas, t_end):
    """traverse_rays output as one list of voxel tuples per input ray."""
    paths = [[] for _ in range(len(starts))]
    for rays, flat, valid in traverse_rays(grid, starts, deltas, t_end):
        for ray, row, ok in zip(rays, flat, valid):
            assert ok.all() or not ok[np.argmin(ok):].any()  # valid is a prefix
            paths[ray] = [tuple(v) for v in grid.unflat(row[ok])]
    return paths


def test_traverse_rays_matches_scalar():
    """Voxel-for-voxel equal to traverse_ray: random segments, axis-parallel
    rays, starts on voxel boundaries, corner-to-corner segments, t_end=inf,
    more rays than one block."""
    grid = VoxelGrid(origin=np.array([-0.3, 0.2, 0.0]), resolution=0.61, dims=(9, 7, 8))
    lo, hi = grid.span
    rng = np.random.default_rng(3)
    n = 2 * _RAY_BLOCK
    starts = rng.uniform(lo - 2.0, hi + 2.0, (n, 3))
    ends = rng.uniform(lo - 2.0, hi + 2.0, (n, 3))
    axis_parallel = np.arange(n) % 4 == 1
    for i in np.nonzero(axis_parallel)[0]:
        others = np.arange(3) != rng.integers(3)
        ends[i, others] = starts[i, others]
    on_boundary = np.arange(n) % 4 >= 2  # 3: ends on voxel corners too, so crossings tie
    starts[on_boundary] = grid.origin + np.round((starts[on_boundary] - grid.origin) / 0.61) * 0.61
    on_corner = np.arange(n) % 4 == 3
    ends[on_corner] = grid.origin + np.round((ends[on_corner] - grid.origin) / 0.61) * 0.61
    deltas = ends - starts
    ok = np.any(deltas != 0, axis=1)
    starts, ends, deltas = starts[ok], ends[ok], deltas[ok]

    scalar = [[tuple(v) for v in traverse_ray(grid, s, e)] for s, e in zip(starts, ends)]
    assert traversed_paths(grid, starts, deltas, 1.0) == scalar
    assert traversed_paths(grid, starts, deltas, np.ones(len(starts))) == scalar

    # With t_end=inf a ray runs to the grid exit; segments long enough to
    # pass it give the same voxels as the finite segment.
    long_ends = starts + 10.0 * np.linalg.norm(hi - lo) * deltas / np.linalg.norm(deltas, axis=1)[:, None]
    scalar = [[tuple(v) for v in traverse_ray(grid, s, e)] for s, e in zip(starts, long_ends)]
    assert traversed_paths(grid, starts, long_ends - starts, np.inf) == scalar
    assert sum(len(p) > 0 for p in scalar) > _RAY_BLOCK


def random_segments(rng, grid, n, lattice, axis_parallel, start=None):
    """Segments in and around the grid, all from `start` if given; `lattice`
    puts ends on voxel corners, edges or faces, `axis_parallel` zeroes two
    delta components of every other segment.  Zero-length segments are
    dropped.  Returns (starts, ends)."""
    lo, hi = grid.span
    starts = rng.uniform(lo - 1.0, hi + 1.0, (n, 3)) if start is None else np.tile(start, (n, 1))
    ends = rng.uniform(lo - 1.0, hi + 1.0, (n, 3))
    if lattice:
        snap = rng.random((2, n, 3)) < 0.7
        for pts, on in zip((starts, ends), snap):
            pts[on] = (grid.origin + np.round((pts - grid.origin) / grid.resolution) * grid.resolution)[on]
    if axis_parallel:
        for i in range(0, n, 2):
            others = np.arange(3) != rng.integers(3)
            ends[i, others] = starts[i, others]
    ok = np.any(ends != starts, axis=1)
    return starts[ok], ends[ok]


def random_grid(rng, max_dim=9):
    return VoxelGrid(
        origin=rng.uniform(-1.0, 1.0, 3),
        resolution=float(rng.choice([0.25, 0.37, 1.0])),
        dims=tuple(int(v) for v in rng.integers(1, max_dim, 3)),
    )


@given(seed=st.integers(0, 2**32 - 1), lattice=st.booleans(), axis_parallel=st.booleans())
@settings(max_examples=40, deadline=None)
def test_traverse_rays_per_ray_t_end(seed, lattice, axis_parallel):
    """An (N,) t_end walks each ray as the equal scalar t_end does, and a
    shorter t_end yields a prefix of the walk to the grid exit."""
    rng = np.random.default_rng(seed)
    grid = random_grid(rng)
    starts, ends = random_segments(rng, grid, 48, lattice, axis_parallel)
    deltas = ends - starts
    t_end = rng.choice([0.0, 0.2, 0.5, 1.0, 3.0, np.inf], len(starts)) * rng.uniform(0.5, 1.5, len(starts))
    paths = traversed_paths(grid, starts, deltas, t_end)
    to_exit = traversed_paths(grid, starts, deltas, np.inf)
    for i in range(len(starts)):
        assert paths[i] == traversed_paths(grid, starts[i : i + 1], deltas[i : i + 1], float(t_end[i]))[0]
        assert paths[i] == to_exit[i][: len(paths[i])]


def test_traverse_rays_miss_with_zero_component_is_silent():
    grid = unit_grid(4)
    starts = np.array([[10.0, 1.5, 1.5], [-1.0, 1.5, 1.5]])
    deltas = np.array([[0.0, 1.0, 0.0], [6.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = traversed_paths(grid, starts, deltas, 1.0)
    assert paths[0] == []
    assert paths[1] == [tuple(v) for v in traverse_ray(grid, starts[1], starts[1] + deltas[1])]


# ---- integrate_observation --------------------------------------------------


def test_integrate_single_ray_semantics():
    grid = VoxelGrid(origin=np.array([-1.0, -1.0, -1.0]), resolution=0.1, dims=(40, 40, 40))
    grid.set_bbox(np.array([-1.0, -1.0, -1.0]), np.array([3.0, 3.0, 3.0]))
    sensor = np.array([-0.95, 0.05, 0.05])
    point = np.array([0.05, 0.05, 0.05])  # 1 m ahead
    integrate_observation(grid, Observation(points=[point], sensor_origin=sensor))

    occ = grid.indices_in_state(VoxelState.OCCUPIED)
    assert len(occ) == 1
    np.testing.assert_array_equal(grid.unflat(occ)[0], grid.voxel_of(point)[0])

    path = traverse_ray(grid, sensor, point)
    occ_ijk = grid.voxel_of(point)[0]
    for ijk in path:
        state = grid.states[grid.flat_index([ijk])[0]]
        if tuple(ijk) == tuple(occ_ijk):
            assert state == VoxelState.OCCUPIED
        else:
            assert state == VoxelState.EMPTY

    # behind the hit (within B): unknown
    behind = grid.voxel_of(point + np.array([0.35, 0.0, 0.0]))[0]
    assert grid.states[grid.flat_index([behind])[0]] == VoxelState.UNKNOWN


def test_integrate_idempotent():
    grid = VoxelGrid(origin=np.zeros(3), resolution=0.1, dims=(30, 30, 30))
    grid.set_bbox(np.zeros(3), np.full(3, 3.0))
    rng = np.random.default_rng(0)
    pts = rng.uniform(1.0, 2.0, (50, 3))
    obs = Observation(points=pts, sensor_origin=np.array([0.05, 0.05, 0.05]))
    integrate_observation(grid, obs)
    snapshot = grid.states.copy()
    integrate_observation(grid, obs)
    np.testing.assert_array_equal(grid.states, snapshot)


def test_integrate_counts_net_changes():
    """Ray B crosses voxels of ray A's shadow in front of its own surface.
    They end Empty, never Unknown."""
    grid = VoxelGrid(origin=np.zeros(3), resolution=1.0, dims=(10, 10, 1))
    grid.set_bbox(*grid.span)
    sensor = np.array([0.5, 0.5, 0.5])
    surface_a = np.array([2.9, 1.1, 0.5])  # voxel (2, 1, 0); shadow from (3, 1, 0)
    surface_b = np.array([8.5, 0.5 + 8 * 0.17, 0.5])  # voxel (8, 1, 0)
    integrate_observation(grid, Observation(points=[surface_a, surface_b], sensor_origin=sensor))

    assert grid.states[grid.flat_index([[3, 1, 0]])[0]] == VoxelState.EMPTY
    tally = grid.state_counts()
    assert (tally["occupied"], tally["empty"], tally["unknown"]) == (2, 9, 5)


@given(
    seed=st.integers(0, 2**32 - 1),
    with_bbox=st.booleans(),
    lattice=st.booleans(),
    axis_parallel=st.booleans(),
    clutter=st.sampled_from([0.0, 0.1]),
)
@settings(max_examples=60, deadline=None)
def test_bounded_integration_matches_walk_to_exit(seed, with_bbox, lattice, axis_parallel, clutter):
    """States equal those of walking every ray to the grid exit:
    on empty grids and grids with earlier states, with and without a box,
    with points outside the box, on voxel corners and edges, and along axes."""
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, max_dim=12)
    grid.states[:] = rng.choice(len(VoxelState), grid.n_voxels, p=[1.0 - 4 * clutter] + 4 * [clutter])
    lo, hi = grid.span
    if with_bbox:
        corners = np.sort(rng.uniform(lo, hi, (2, 3)), axis=0)
        grid.set_bbox(corners[0], corners[1])
    reference = copy.deepcopy(grid)
    for sensor in rng.uniform(lo - 1.0, hi + 1.0, (3, 3)):
        _, points = random_segments(rng, grid, 60, lattice, axis_parallel, start=sensor)
        if len(points) == 0:
            continue
        obs = Observation(points=points, sensor_origin=sensor)
        integrate_observation(grid, obs)
        integrate_walk_to_exit(reference, obs)
        np.testing.assert_array_equal(grid.states, reference.states)


def test_ray_passing_its_point_by_a_corner_is_walked_to_the_exit():
    """The ray to a point on a voxel corner can pass the point's voxel by
    that corner and meet no Occupied voxel; it then marks Empty up to the
    grid exit, far behind its point, as the walk to the grid exit does."""
    grid = VoxelGrid(origin=np.array([0.0, -4.0, 0.0]), resolution=1.0, dims=(8, 10, 1))
    grid.set_bbox(np.zeros(3), np.array([8.0, 6.0, 1.0]))
    sensor, point = np.array([0.5, 4.5, 0.5]), np.array([1.0, 1.0, 0.5])
    assert tuple(grid.voxel_of(point)[0]) not in set(map(tuple, traverse_ray(grid, sensor, 2 * point - sensor)))
    reference = copy.deepcopy(grid)
    obs = Observation(points=[point], sensor_origin=sensor)
    integrate_observation(grid, obs)
    integrate_walk_to_exit(reference, obs)
    np.testing.assert_array_equal(grid.states, reference.states)
    assert grid.states[grid.flat_index(grid.voxel_of([1.1, -3.5, 0.5]))[0]] == VoxelState.EMPTY


def corner_point(rng, grid, sensor, occupied):
    """A lattice corner of the grid whose ray from `sensor`, walked to the
    grid exit, misses the corner's own voxel and every voxel in `occupied`,
    so that integrate_observation walks it again to the grid exit; None if
    none of 200 drawn corners does."""
    for k in np.stack([rng.integers(0, d + 1, 200) for d in grid.dims], axis=1):
        point = grid.origin + k * grid.resolution
        own = grid.voxel_of(point)
        if not grid.in_bounds(own)[0] or np.all(point == sensor):
            continue
        [walked] = traversed_paths(grid, sensor[None], (point - sensor)[None], np.inf)
        if not set(walked) & (occupied | {tuple(own[0])}):
            return point
    return None


@pytest.mark.parametrize("cpus", [1, 2])
@given(seed=st.integers(0, 2**32 - 1), with_bbox=st.booleans())
@settings(max_examples=25, deadline=None)
def test_integration_in_parts_matches_walk_to_exit(cpus, seed, with_bbox):
    """More than _RAY_BLOCK rays, to lattice ends and to a corner whose ray
    passes its voxel by that corner, give the states of walking
    every ray to the grid exit on one CPU and on two.  The frame is split
    once; on two CPUs each half, one per thread, walks some of the corner's
    rays again to the grid exit."""
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, max_dim=12)
    earlier = [VoxelState.NONE, VoxelState.EMPTY, VoxelState.UNKNOWN, VoxelState.FRONTIER]
    grid.states[:] = rng.choice(earlier, grid.n_voxels, p=[0.7, 0.1, 0.1, 0.1])
    lo, hi = grid.span
    if with_bbox:
        corners = np.sort(rng.uniform(lo, hi, (2, 3)), axis=0)
        grid.set_bbox(corners[0], corners[1])
    sensor = rng.uniform(lo - 1.0, hi + 1.0)
    _, ends = random_segments(rng, grid, 40, lattice=True, axis_parallel=False, start=sensor)
    ijk = grid.voxel_of(ends)
    corner = corner_point(rng, grid, sensor, set(map(tuple, ijk[grid.in_bounds(ijk)])))
    assume(corner is not None)
    points = np.concatenate([ends, np.tile(corner, (_RAY_BLOCK + 1, 1))])
    reference = copy.deepcopy(grid)
    obs = Observation(points=rng.permutation(points), sensor_origin=sensor)

    split, corner_exits = [], set()

    def recording_traverse(walked, starts, deltas, t_end, block):
        if np.all(np.isinf(t_end)) and np.all(deltas == corner - sensor, axis=1).any():
            corner_exits.add(threading.get_ident())
        return traverse_rays(walked, starts, deltas, t_end, block)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("nbvplan.voxel._usable_cpus", lambda: cpus)
        mp.setattr("nbvplan.voxel._ray_parts", lambda n: split.append((n, len(_ray_parts(n)))) or _ray_parts(n))
        mp.setattr("nbvplan.voxel.traverse_rays", recording_traverse)
        integrate_observation(grid, obs)
        integrate_walk_to_exit(reference, obs)
    np.testing.assert_array_equal(grid.states, reference.states)
    [(rays, parts)] = split
    assert rays > _RAY_BLOCK and parts == cpus
    assert len(corner_exits) == cpus


def test_one_cpu_or_a_small_frame_starts_no_thread(monkeypatch):
    """The worker pool is reached only when a frame has more than _RAY_BLOCK
    rays and the process may use two CPUs."""
    pools = []
    monkeypatch.setattr("nbvplan.voxel._walk_pool", lambda: pools.append(1) or pytest.fail("a walk thread started"))
    grid = VoxelGrid(origin=np.zeros(3), resolution=0.5, dims=(10, 10, 10))
    grid.set_bbox(np.full(3, 2.0), np.full(3, 3.0))
    rng = np.random.default_rng(0)
    sensor = np.array([0.1, 0.2, 0.3])
    large = Observation(points=rng.uniform(2.0, 3.0, (_RAY_BLOCK + 1, 3)), sensor_origin=sensor)
    small = Observation(points=large.points[:_RAY_BLOCK], sensor_origin=sensor)
    monkeypatch.setattr("nbvplan.voxel._usable_cpus", lambda: 1)
    integrate_observation(grid, large)
    monkeypatch.setattr("nbvplan.voxel._usable_cpus", lambda: 2)
    integrate_observation(grid, small)
    assert pools == []
    with pytest.raises(pytest.fail.Exception, match="a walk thread started"):
        integrate_observation(grid, large)


def test_integration_logs_its_walk_at_debug(caplog):
    grid = VoxelGrid(origin=np.zeros(3), resolution=0.5, dims=(10, 10, 10))
    grid.set_bbox(np.full(3, 2.0), np.full(3, 3.0))
    pts = np.array([[2.2, 2.3, 2.4], [2.6, 2.7, 2.1], [9.0, 9.0, 9.0]])  # the last is off the grid
    with caplog.at_level(logging.DEBUG, logger="nbvplan"):
        integrate_observation(grid, Observation(points=pts, sensor_origin=np.array([0.1, 0.2, 0.3])))
    [record] = [r for r in caplog.records if r.getMessage().startswith("integrate_observation:")]
    assert record.levelno == logging.DEBUG
    assert re.fullmatch(r"integrate_observation: 2 rays cast, 2 walked, \d+ voxel visits, 1 parts", record.getMessage())


def test_mark_occupied_is_rule_one_alone():
    grid = unit_grid()
    pts = np.array([[1.5, 1.5, 1.5], [1.7, 1.2, 1.9], [6.5, 2.5, 0.5], [9.5, 0.5, 0.5]])
    np.testing.assert_array_equal(mark_occupied(grid, pts), [True, True, True, False])
    assert np.bincount(grid.states, minlength=len(VoxelState)).tolist() == [8**3 - 2, 0, 2, 0, 0]
    mark_occupied(grid, pts)
    assert np.bincount(grid.states, minlength=len(VoxelState)).tolist() == [8**3 - 2, 0, 2, 0, 0]


def test_first_frame_integrated_once(monkeypatch):
    """initialize walks the first frame's rays in one integration pass."""
    from nbvplan import planner
    from nbvplan.config import RunConfig
    from nbvplan.shapes import make_shape

    calls = []
    real = planner.integrate_observation

    def counting(grid, obs):
        before = grid.states.copy()
        real(grid, obs)
        calls.append((before, grid.states.copy()))

    monkeypatch.setattr(planner, "integrate_observation", counting)
    config = RunConfig(width=160, height=120, fx=145.0, fy=145.0, candidates=16, t_max=1, seed=7)
    state = planner.initialize(make_shape("u_prism"), config)
    assert len(calls) == 1
    [(before, after)] = calls
    occ, unknown = int(VoxelState.OCCUPIED), int(VoxelState.UNKNOWN)
    assert np.array_equal(before == occ, after == occ)  # marked before the box was sized
    assert ((before == int(VoxelState.NONE)) & (after == unknown)).any()
    assert state.grid.state_counts()["frontier"] > 0


def test_integrate_requires_points():
    grid = unit_grid()
    with pytest.raises(ValueError):
        integrate_observation(grid, Observation(points=np.empty((0, 3)), sensor_origin=np.zeros(3)))


def test_occupied_never_demoted():
    grid = VoxelGrid(origin=np.zeros(3), resolution=0.5, dims=(10, 10, 10))
    grid.set_bbox(np.zeros(3), np.full(3, 5.0))
    p = np.array([2.25, 2.25, 2.25])
    integrate_observation(grid, Observation(points=[p], sensor_origin=np.array([0.1, 2.25, 2.25])))
    n_occ = len(grid.indices_in_state(VoxelState.OCCUPIED))
    # a ray passing straight through the occupied voxel from the other side
    integrate_observation(
        grid,
        Observation(points=[np.array([0.75, 2.25, 2.25])], sensor_origin=np.array([4.9, 2.25, 2.25])),
    )
    assert len(grid.indices_in_state(VoxelState.OCCUPIED)) >= n_occ
    assert grid.states[grid.flat_index(grid.voxel_of(p))[0]] == VoxelState.OCCUPIED


def _observe_sphere(grid, mesh, cam_pos):
    intr = CameraIntrinsics(fx=300, fy=300, cx=160, cy=120, width=320, height=240, max_range=5.0)
    pose = look_at(cam_pos, [0, 0, 0], [0, 0, 1])
    frame = render_depth(mesh, pose, intr)
    pts = frame_to_points(frame)
    pts = preprocess_points(pts, spacing=grid.resolution / 2, align_origin=grid.origin)
    return Observation(points=pts, sensor_origin=pose.translation)


def test_opposing_observations_reduce_unknown():
    """Within a fixed box snug around the object (one voxel of margin, as the
    adaptive box produces), a second opposing view resolves more occlusion
    Unknowns than its own new shadow introduces."""
    mesh = make_sphere(radius=0.15)
    grid = VoxelGrid(origin=np.full(3, -0.4), resolution=0.03, dims=(27, 27, 27))
    fixed_b = (np.full(3, -0.18), np.full(3, 0.18))
    grid.set_bbox(*fixed_b)

    obs1 = _observe_sphere(grid, mesh, [0.6, 0.0, 0.0])
    integrate_observation(grid, obs1)
    unknown_after_first = grid.state_counts()["unknown"]

    obs2 = _observe_sphere(grid, mesh, [-0.6, 0.0, 0.0])
    integrate_observation(grid, obs2)
    unknown_after_both = grid.state_counts()["unknown"]

    assert unknown_after_first > 0
    assert unknown_after_both < unknown_after_first


def test_state_transition_system():
    """Only the documented transitions may ever occur."""
    allowed = {
        (VoxelState.NONE, VoxelState.EMPTY),
        (VoxelState.NONE, VoxelState.OCCUPIED),
        (VoxelState.NONE, VoxelState.UNKNOWN),
        (VoxelState.UNKNOWN, VoxelState.FRONTIER),
        (VoxelState.UNKNOWN, VoxelState.EMPTY),
        (VoxelState.UNKNOWN, VoxelState.OCCUPIED),
        (VoxelState.FRONTIER, VoxelState.EMPTY),
        (VoxelState.FRONTIER, VoxelState.OCCUPIED),
        (VoxelState.FRONTIER, VoxelState.UNKNOWN),
        (VoxelState.EMPTY, VoxelState.OCCUPIED),
    }
    mesh = make_sphere(radius=0.15)
    grid = VoxelGrid(origin=np.full(3, -0.4), resolution=0.04, dims=(20, 20, 20))
    grid.set_bbox(np.full(3, -0.3), np.full(3, 0.3))
    rng = np.random.default_rng(1)

    def check_step(prev):
        changed = np.nonzero(prev != grid.states)[0]
        for idx in changed:
            t = (VoxelState(prev[idx]), VoxelState(grid.states[idx]))
            assert t in allowed, f"illegal transition {t}"
        return grid.states.copy()

    prev = grid.states.copy()
    for k in range(5):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        obs = _observe_sphere(grid, mesh, 0.6 * direction)
        if len(obs.points) == 0:
            continue
        integrate_observation(grid, obs)
        prev = check_step(prev)
        update_frontier(grid)
        prev = check_step(prev)


# ---- update_frontier --------------------------------------------------------


def brute_force_frontier(grid):
    """Direct evaluation of the frontier predicate over every voxel."""
    g3 = grid.grid3d()
    nz, ny, nx = g3.shape
    out = set()
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if g3[z, y, x] not in (VoxelState.UNKNOWN, VoxelState.FRONTIER):
                    continue
                has_e = has_o = False
                for dz in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            if dx == dy == dz == 0:
                                continue
                            zz, yy, xx = z + dz, y + dy, x + dx
                            if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                                if g3[zz, yy, xx] == VoxelState.EMPTY:
                                    has_e = True
                                elif g3[zz, yy, xx] == VoxelState.OCCUPIED:
                                    has_o = True
                if has_e and has_o:
                    out.add(x + nx * (y + ny * z))
    return out


def test_frontier_basic_neighborhood():
    grid = unit_grid(5)
    g3 = grid.grid3d()
    g3[2, 2, 2] = VoxelState.UNKNOWN
    g3[2, 2, 1] = VoxelState.EMPTY
    g3[2, 2, 3] = VoxelState.OCCUPIED
    update_frontier(grid)
    assert list(grid.indices_in_state(VoxelState.FRONTIER)) == [2 + 5 * (2 + 5 * 2)]


def test_unknown_surrounded_by_unknown_not_frontier():
    grid = unit_grid(5)
    grid.states[:] = VoxelState.UNKNOWN
    update_frontier(grid)
    assert np.all(grid.states == VoxelState.UNKNOWN)


def test_frontier_reverts_to_unknown():
    grid = unit_grid(5)
    g3 = grid.grid3d()
    g3[2, 2, 2] = VoxelState.UNKNOWN
    g3[2, 2, 1] = VoxelState.EMPTY
    g3[2, 2, 3] = VoxelState.OCCUPIED
    update_frontier(grid)
    assert grid.grid3d()[2, 2, 2] == VoxelState.FRONTIER
    g3 = grid.grid3d()
    g3[2, 2, 1] = VoxelState.OCCUPIED  # empty neighbor vanishes
    update_frontier(grid)
    assert grid.grid3d()[2, 2, 2] == VoxelState.UNKNOWN


@pytest.mark.parametrize("seed", range(10))
def test_frontier_matches_brute_force(seed):
    grid = unit_grid(5)
    rng = np.random.default_rng(seed)
    grid.states[:] = rng.choice(
        [int(s) for s in VoxelState], size=grid.n_voxels, p=[0.3, 0.25, 0.15, 0.25, 0.05]
    ).astype(np.uint8)
    expected = brute_force_frontier(grid)
    update_frontier(grid)
    # every frontier satisfies the predicate, every unknown violates it
    assert set(grid.indices_in_state(VoxelState.FRONTIER).tolist()) == expected


@given(
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_dilation_matches_26_offsets(shape, density, seed):
    mask = np.random.default_rng(seed).random(shape) < density
    np.testing.assert_array_equal(_dilate(mask), neighbor_any(mask) | mask)


# ---- update_bbox ------------------------------------------------------------


def test_bbox_requires_occupied():
    grid = unit_grid()
    with pytest.raises(ValueError):
        initial_bbox(grid, [1, 0, 0])
    with pytest.raises(ValueError):
        update_bbox(grid)


def test_bbox_first_frame_doubles_diagonal_along_view():
    grid = VoxelGrid(origin=np.zeros(3), resolution=1.0, dims=(20, 20, 20))
    g3 = grid.grid3d()
    g3[5:8, 5:8, 5:8] = VoxelState.OCCUPIED  # cube of cells, bbox [5,8]^3
    initial_bbox(grid, [1.0, 0.0, 0.0])
    bmin, bmax = grid.bbox
    base_diag = np.sqrt(27.0)
    new_diag = np.linalg.norm(bmax - bmin)
    assert new_diag == pytest.approx(2.0 * base_diag, rel=1e-9)
    # growth entirely on the far side along +x
    np.testing.assert_allclose(bmin, [5.0, 5.0, 5.0])
    np.testing.assert_allclose(bmax[1:], [8.0, 8.0])
    assert bmax[0] > 8.0


def test_bbox_later_no_unknown_no_frontier():
    grid = VoxelGrid(origin=np.zeros(3), resolution=1.0, dims=(10, 10, 10))
    g3 = grid.grid3d()
    g3[2:4, 3:5, 4:6] = VoxelState.OCCUPIED
    update_bbox(grid)
    bmin, bmax = grid.bbox
    np.testing.assert_allclose(bmin, [4.0, 3.0, 2.0])  # x,y,z from (z,y,x) slices
    np.testing.assert_allclose(bmax, [6.0, 5.0, 4.0])


def test_bbox_frontier_sphere_inflation():
    grid = VoxelGrid(origin=np.zeros(3), resolution=1.0, dims=(12, 12, 12))
    g3 = grid.grid3d()
    g3[5, 5, 5] = VoxelState.OCCUPIED
    g3[8, 8, 8] = VoxelState.FRONTIER
    gamma = 2.0  # 2 * resolution
    update_bbox(grid)
    bmin, bmax = grid.bbox
    center = np.array([8.5, 8.5, 8.5])
    np.testing.assert_allclose(bmax, center + gamma)
    np.testing.assert_allclose(bmin, [5.0, 5.0, 5.0])


def test_bbox_contains_occupied_every_frame():
    mesh = make_sphere(radius=0.15)
    grid = VoxelGrid(origin=np.full(3, -0.4), resolution=0.03, dims=(27, 27, 27))
    rng = np.random.default_rng(2)
    first = True
    for _ in range(4):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        obs = _observe_sphere(grid, mesh, 0.6 * direction)
        integrate_observation(grid, obs)
        if first:
            initial_bbox(grid, -direction)
            integrate_observation(grid, obs)
            first = False
        else:
            update_bbox(grid)
        update_frontier(grid)
        bmin, bmax = grid.bbox
        occ = grid.voxel_centers(grid.unflat(grid.indices_in_state(VoxelState.OCCUPIED)))
        assert np.all(occ >= bmin) and np.all(occ <= bmax)


@given(
    seed=st.integers(0, 2**32 - 1),
    states=st.sampled_from([
        (VoxelState.OCCUPIED,),
        (VoxelState.OCCUPIED, VoxelState.UNKNOWN),
        (VoxelState.OCCUPIED, VoxelState.FRONTIER),
        (VoxelState.OCCUPIED, VoxelState.UNKNOWN, VoxelState.FRONTIER),
    ]),
    first_frame=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_bbox_equals_per_cell_indices(seed, states, first_frame):
    """The box from per-axis projections equals the one from every cell's
    index bit for bit, also with no Unknown or no Frontier cell, and
    with a single cell of a state."""
    rng = np.random.default_rng(seed)
    grid = VoxelGrid(
        origin=rng.uniform(-1.0, 1.0, 3),
        resolution=float(rng.choice([0.03, 0.25, 0.37])),
        dims=tuple(int(v) for v in rng.integers(2, 12, 3)),
    )
    density = rng.choice([0.0, 0.05, 0.5])
    values = [int(VoxelState.NONE), int(VoxelState.EMPTY)] + [int(s) for s in states]
    grid.states[:] = np.where(rng.random(grid.n_voxels) < density, rng.choice(values, grid.n_voxels), 0)
    # at least one cell of each drawn state
    grid.states[rng.choice(grid.n_voxels, len(states), replace=False)] = [int(s) for s in states]
    direction = rng.normal(size=3)
    want = update_bbox_by_indices(grid, direction, first_frame, 2.0 * grid.resolution)
    if first_frame:
        initial_bbox(grid, direction)
    else:
        update_bbox(grid)
    assert all(np.array_equal(g, w) for g, w in zip(grid.bbox, want))


# ---- grid plumbing ----------------------------------------------------------


def test_preprocess_dedup():
    pts = np.array([
        [0.5, 0.5, 0.5],
        [0.51, 0.5, 0.5],    # same dedup cell at spacing 0.05
        [0.58, 0.5, 0.5],    # different cell
        [5.0, 5.0, 5.0],     # far away: kept, nothing is cropped
    ])
    out = preprocess_points(pts, spacing=0.05, align_origin=np.zeros(3))
    np.testing.assert_array_equal(out, pts[[0, 2, 3]])
    assert preprocess_points(np.empty((0, 3)), spacing=0.05, align_origin=np.zeros(3)).shape == (0, 3)


@pytest.mark.parametrize("seed", range(5))
def test_preprocess_matches_row_unique(seed):
    """The flat-key dedup keeps the same points, in the same order, as a
    row-wise unique over the integer cells."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.3, 1.1, (4000, 3))
    pts[-500:] = pts[:500]  # exact duplicates
    origin, spacing = np.array([-1.02, -1.25, -0.95]), 0.05 * (seed + 1)
    out = preprocess_points(pts, spacing=spacing, align_origin=origin)

    cells = np.floor((pts - origin) / spacing).astype(np.int64)
    _, first = np.unique(cells, axis=0, return_index=True)
    np.testing.assert_array_equal(out, pts[np.sort(first)])


@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from(["image", "shuffled"]),
    repeated=st.booleans(),
    spacing=st.sampled_from([0.005, 0.015, 0.05]),
)
@settings(max_examples=60, deadline=None)
def test_preprocess_matches_sort_over_all_points(seed, order, repeated, spacing):
    """Sorting only the starts of runs of equal cell keys keeps the points,
    in the order, that sorting every key keeps: for image-ordered frames of a
    bumpy surface, shuffled frames and frames with repeated points."""
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(1, 40, 2))
    u, v = np.meshgrid(np.linspace(-0.3, 0.3, w), np.linspace(-0.2, 0.2, h))
    depth = 1.0 + 0.1 * np.sin(rng.uniform(1, 20) * u) * np.cos(rng.uniform(1, 20) * v)
    pts = np.stack([u * depth, v * depth, depth], axis=-1).reshape(-1, 3)
    if order == "shuffled":
        pts = rng.permutation(pts)
    if repeated:
        pts = pts[np.sort(rng.integers(0, len(pts), 2 * len(pts)))]
    origin = rng.uniform(-0.5, 0.5, 3)
    np.testing.assert_array_equal(
        preprocess_points(pts, spacing=spacing, align_origin=origin),
        preprocess_points_sort_all(pts, spacing=spacing, align_origin=origin),
    )


@pytest.mark.parametrize("spacing", [0.0, -0.05, np.nan, np.inf, -np.inf])
def test_preprocess_rejects_a_spacing_that_is_not_positive_and_finite(spacing):
    pts = np.array([[0.5, 0.5, 0.5], [0.6, 0.5, 0.5]])
    with pytest.raises(ValueError, match="spacing must be positive and finite"):
        preprocess_points(pts, spacing=spacing, align_origin=np.zeros(3))


@pytest.mark.parametrize(
    "far",
    [
        [1e7, 1e7, 1e7],      # three extents whose product passes int64
        [1e19, 0.0, 0.0],     # one cell index past int64
        [-1e19, 0.0, 0.0],
        [np.inf, 0.0, 0.0],
        [0.0, np.nan, 0.0],
    ],
)
def test_preprocess_rejects_cells_that_do_not_fit_in_int64(far):
    pts = np.array([[0.0, 0.0, 0.0], far])
    with pytest.raises(ValueError, match="int64"):
        preprocess_points(pts, spacing=1.0, align_origin=np.zeros(3))


def test_preprocess_keys_a_box_of_almost_int64_cells():
    """Cells spanning 2^21 x 2^21 x 2^20 cells, 2^62 keys, keep the points the
    `ravel_multi_index` keys keep."""
    rng = np.random.default_rng(4)
    corner = np.array([2.0**21 - 1, 2.0**21 - 1, 2.0**20 - 1])
    pts = np.vstack([np.zeros(3), corner, rng.integers(0, 2**20, (500, 3)) + 0.5, corner])
    pts = pts[rng.permutation(len(pts))]
    out = preprocess_points(pts, spacing=1.0, align_origin=np.zeros(3))
    np.testing.assert_array_equal(out, preprocess_points_sort_all(pts, spacing=1.0, align_origin=np.zeros(3)))
    assert len(out) == len(np.unique(np.floor(pts), axis=0))


def test_grid_growth_preserves_states():
    grid = VoxelGrid(origin=np.zeros(3), resolution=1.0, dims=(4, 4, 4))
    grid.grid3d()[1, 2, 3] = VoxelState.OCCUPIED
    center_before = grid.voxel_centers(grid.unflat(grid.indices_in_state(VoxelState.OCCUPIED)))
    grid.ensure_contains(np.array([-3.0, -1.0, 0.0]), np.array([6.0, 4.0, 4.0]))
    center_after = grid.voxel_centers(grid.unflat(grid.indices_in_state(VoxelState.OCCUPIED)))
    np.testing.assert_allclose(center_after, center_before)
    assert np.all(grid.dims >= 4)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: growing the grid recomputes its origin in floats, so a point "
    "on a voxel face can land in another voxel",
)
def test_growing_the_grid_keeps_each_point_in_its_voxel():
    """A point on each x-plane of a +-0.4 m grid of 1 cm voxels keeps its
    voxel, shifted by the growth, when the grid grows on -x."""
    grid = VoxelGrid.from_box(np.full(3, -0.4), np.full(3, 0.4), 0.01)
    points = np.zeros((grid.dims[0] + 1, 3))
    points[:, 0] = grid.origin[0] + np.arange(grid.dims[0] + 1) * grid.resolution
    before, dims = grid.voxel_of(points), grid.dims.copy()
    grid.ensure_contains(np.array([-0.525, -0.4, -0.4]), np.full(3, 0.4))
    shift = grid.dims - dims
    assert shift[0] == 13 and not shift[1:].any()
    np.testing.assert_array_equal(grid.voxel_of(points) - shift, before)


def test_dump_ply(tmp_path):
    grid = unit_grid(4)
    grid.grid3d()[0, 0, 0] = VoxelState.OCCUPIED
    grid.grid3d()[1, 1, 1] = VoxelState.FRONTIER
    path = tmp_path / "voxels.ply"
    _dump_voxels(str(path), grid)
    text = path.read_text()
    assert "element vertex 2" in text
    assert "property int state" in text
