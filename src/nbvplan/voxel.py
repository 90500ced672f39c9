"""Classified voxel map with ray-based updates and an adaptive bounding box.

Voxel states: None (untouched), Empty (observed free), Occupied (surface
evidence), Unknown (occluded), Frontier (Unknown with both Empty and Occupied
in its 26-neighborhood).  Update rules per observation:

  1. the voxel containing a measured point becomes Occupied;
  2. None voxels pierced behind the first Occupied voxel on a sensor-to-point
     ray become Unknown, but only inside the current bounding box;
  3. voxels pierced before the first Occupied voxel become Empty.

Occupied is never demoted.  Unknown/Frontier voxels may later be observed
directly and flip to Empty or Occupied; without that the frontier could
never shrink.  Rule 2 is inert until the bounding box exists, so for the
first observation rule 1 is applied alone, the box is initialized from those
Occupied cells, and then the observation is integrated once.

Rule 1 runs first and rules 2-3 never write or clear Occupied, so the result
does not depend on the order in which rays or their voxels are visited: a
voxel ends Empty if some ray crosses it before that ray's first Occupied
voxel; otherwise it ends Unknown if it was None, its centre lies in the box
and some ray crosses it behind that ray's first Occupied voxel; otherwise it
keeps its state.  All rays of an observation are walked at once as arrays,
each only as far as it can change that result: to its own point's voxel or
out of the bounding box padded by one voxel, whichever comes later, and to
the grid exit only if it has met no Occupied voxel by then.

Because of that order independence, a frame with more than _RAY_BLOCK
rays is split once into two contiguous halves when the process may run on
two CPUs: the calling thread walks one and a worker thread the other (numpy
releases the interpreter lock in its array loops), each through both of its
passes and into its own masks, ORed after the join.  Each half walks blocks
of _RAY_BLOCK // 2 rays, so the padded (rays, voxels) arrays in flight,
which set the walk's peak memory, stay those of one block; the split adds
the worker's masks and what its allocator keeps.

Storage is a dense state array indexed x + y*nx + z*nx*ny; the grid grows by
`np.pad` when the bounding box outruns its span.
"""

from __future__ import annotations

import functools
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

log = logging.getLogger("nbvplan")


class VoxelState(IntEnum):
    NONE = 0
    EMPTY = 1
    OCCUPIED = 2
    UNKNOWN = 3
    FRONTIER = 4


@dataclass
class Observation:
    """One sensor frame: world-space points plus the sensor origin."""

    points: np.ndarray        # (N, 3) m
    sensor_origin: np.ndarray  # (3,) m

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.sensor_origin = np.asarray(self.sensor_origin, dtype=float).reshape(3)


def preprocess_points(
    points: np.ndarray,
    spacing: float,
    align_origin: np.ndarray,
) -> np.ndarray:
    """Keep the first point of each `spacing` cell, in input order.

    Cells are aligned to `align_origin` so that dedup never moves a point
    across a voxel boundary when spacing divides the voxel size.  Cropping
    to the grid is the caller's job.  Each point's cell is floored one axis
    at a time and keyed in C order over the cells' box, ((i*ny) + j)*nz + k
    with each index offset by its axis minimum: one int64 per point, equal
    only for points in the same cell.  Raises ValueError when `spacing` is
    not positive and finite, or when a cell index or the box's cell count
    does not fit in int64.
    """
    if not (np.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return pts
    keys, size = 0, 1
    for axis in range(3):
        cells = np.floor((pts[:, axis] - align_origin[axis]) / spacing)
        lo, hi = cells.min(), cells.max()
        if not (-(2.0**63) <= lo and hi < 2.0**63):
            raise ValueError("point cells do not fit in int64: are the points finite?")
        extent = int(hi) - int(lo) + 1
        size *= extent
        if size > np.iinfo(np.int64).max:
            raise ValueError(f"{size} dedup cells do not fit in int64")
        keys = keys * extent + (cells.astype(np.int64) - int(lo))
    # A cell's first point always starts a run of equal consecutive keys, so
    # np.unique need only sort the run starts; in image order neighbouring
    # pixels share a cell, so the runs are long.
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    _, first = np.unique(keys[starts], return_index=True)
    return pts[np.sort(starts[first])]


class VoxelGrid:
    """Dense axis-aligned grid of classified voxels."""

    def __init__(
        self,
        origin: np.ndarray,
        resolution: float,
        dims: tuple[int, int, int],
    ):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.origin = np.asarray(origin, dtype=float).reshape(3)
        self.resolution = float(resolution)
        self.dims = np.asarray(dims, dtype=np.int64).reshape(3)
        if np.any(self.dims <= 0):
            raise ValueError("grid dims must be positive")
        self.states = np.zeros(int(np.prod(self.dims)), dtype=np.uint8)
        self.bbox = None

    @classmethod
    def from_box(cls, box_min, box_max, resolution: float) -> "VoxelGrid":
        box_min = np.asarray(box_min, dtype=float)
        box_max = np.asarray(box_max, dtype=float)
        dims = np.maximum(np.ceil((box_max - box_min) / resolution - 1e-9), 1).astype(np.int64)
        return cls(origin=box_min, resolution=resolution, dims=tuple(dims))

    # ---- geometry helpers -------------------------------------------------

    @property
    def span(self) -> tuple[np.ndarray, np.ndarray]:
        return self.origin.copy(), self.origin + self.dims * self.resolution

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.dims))

    def voxel_of(self, points: np.ndarray) -> np.ndarray:
        """Integer voxel coordinates (N, 3) of each point (not bounds-checked)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return np.floor((p - self.origin) / self.resolution).astype(np.int64)

    def in_bounds(self, ijk: np.ndarray) -> np.ndarray:
        ijk = np.atleast_2d(ijk)
        return np.all((ijk >= 0) & (ijk < self.dims), axis=1)

    def flat_index(self, ijk: np.ndarray) -> np.ndarray:
        ijk = np.atleast_2d(ijk)
        nx, ny = int(self.dims[0]), int(self.dims[1])
        return ijk[:, 0] + nx * (ijk[:, 1] + ny * ijk[:, 2])

    def unflat(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.int64)
        nx, ny = int(self.dims[0]), int(self.dims[1])
        x = flat % nx
        y = (flat // nx) % ny
        z = flat // (nx * ny)
        return np.column_stack([x, y, z])

    def voxel_centers(self, ijk: np.ndarray) -> np.ndarray:
        return self.origin + (np.atleast_2d(ijk) + 0.5) * self.resolution

    def grid3d(self) -> np.ndarray:
        """State array as a (nz, ny, nx) view consistent with flat_index."""
        nx, ny, nz = (int(v) for v in self.dims)
        return self.states.reshape(nz, ny, nx)

    def set_bbox(self, bmin, bmax) -> None:
        bmin = np.asarray(bmin, dtype=float).reshape(3)
        bmax = np.asarray(bmax, dtype=float).reshape(3)
        if np.any(bmax < bmin):
            raise ValueError("invalid bbox")
        self.ensure_contains(bmin, bmax)
        self.bbox = (bmin, bmax)

    def ensure_contains(self, bmin, bmax) -> None:
        """Grow the grid by whole None voxels (`np.pad`) so [bmin, bmax]
        fits its span."""
        lo, hi = self.span
        grow_lo = np.maximum(np.ceil((lo - bmin) / self.resolution), 0).astype(np.int64)
        grow_hi = np.maximum(np.ceil((bmax - hi) / self.resolution), 0).astype(np.int64)
        if not (grow_lo.any() or grow_hi.any()):
            return
        widths = np.stack([grow_lo, grow_hi], axis=1)[::-1]  # (before, after) per z, y, x
        self.states = np.pad(self.grid3d(), widths).reshape(-1)
        self.origin = self.origin - grow_lo * self.resolution
        self.dims = self.dims + grow_lo + grow_hi

    # ---- queries ----------------------------------------------------------

    def indices_in_state(self, state: VoxelState) -> np.ndarray:
        """Flat indices of all voxels currently in `state`."""
        return np.nonzero(self.states == int(state))[0]

    def bbox_mask(self) -> np.ndarray:
        """Flat boolean mask of voxels whose center lies inside the bbox."""
        if self.bbox is None:
            return np.ones(self.n_voxels, dtype=bool)
        bmin, bmax = self.bbox
        nx, ny, nz = (int(v) for v in self.dims)
        cx = self.origin[0] + (np.arange(nx) + 0.5) * self.resolution
        cy = self.origin[1] + (np.arange(ny) + 0.5) * self.resolution
        cz = self.origin[2] + (np.arange(nz) + 0.5) * self.resolution
        mx = (cx >= bmin[0]) & (cx <= bmax[0])
        my = (cy >= bmin[1]) & (cy <= bmax[1])
        mz = (cz >= bmin[2]) & (cz <= bmax[2])
        m3 = mz[:, None, None] & my[None, :, None] & mx[None, None, :]
        return m3.reshape(-1)

    def state_counts(self) -> dict[str, int]:
        """Voxels in each state among those whose center lies inside the bbox."""
        sel = self.states[self.bbox_mask()]
        return {s.name.lower(): int(np.count_nonzero(sel == int(s))) for s in VoxelState}


# ---- ray traversal --------------------------------------------------------


# Rays per traverse_rays block: keeps its padded (rays, voxels) arrays small.
_RAY_BLOCK = 1024


def ray_box_range(starts: np.ndarray, deltas: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Parameter range (t_in, t_out) of each line start + t*delta inside the box [lo, hi].

    t_in > t_out when the line misses the box.  An axis the line runs
    parallel to bounds nothing if the start lies in that slab, and empties
    the range if it does not.
    """
    t_in = np.full(len(starts), -np.inf)
    t_out = np.full(len(starts), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in range(3):
            d = deltas[:, axis]
            s = starts[:, axis]
            ta = (lo[axis] - s) / d
            tb = (hi[axis] - s) / d
            zero = d == 0.0
            inside = (s >= lo[axis]) & (s <= hi[axis])
            t_in = np.maximum(t_in, np.where(zero, np.where(inside, -np.inf, np.inf), np.minimum(ta, tb)))
            t_out = np.minimum(t_out, np.where(zero, np.where(inside, np.inf, -np.inf), np.maximum(ta, tb)))
    return t_in, t_out


def traverse_rays(
    grid: VoxelGrid,
    starts: np.ndarray,
    deltas: np.ndarray,
    t_end: float | np.ndarray,
    block: int = _RAY_BLOCK,
):
    """Voxels pierced by many segments start + t*delta, t in [0, t_end], as arrays.

    `t_end` is one float for every ray or an (N,) array, one per ray.
    Yields one (rays, flat, valid) triple per block of up to `block` rays
    that meet the grid; rays that miss it are left out.  `rays` indexes the
    input, row r of `flat` holds the flat indices of the voxels ray rays[r]
    pierces, in the order of an Amanatides-Woo walk, and `valid` marks the
    real entries, a prefix of each row.

    Each axis's boundary-crossing times are the sequential float sum
    tmax += tdelta of the scalar Amanatides-Woo walk, started where the ray
    enters the grid whatever `t_end` is; a stable sort merges the three axes
    so that equal times fall to the lower axis, as np.argmin does.  A ray
    ends before its first crossing past t_end or out of the grid, so a
    shorter t_end yields a prefix of the same voxels.
    """
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    deltas = np.asarray(deltas, dtype=float).reshape(-1, 3)
    lo, hi = grid.span
    res = grid.resolution
    dims = grid.dims

    t0, t1 = ray_box_range(starts, deltas, lo, hi)
    t0 = np.maximum(t0, 0.0)
    t1 = np.minimum(t1, t_end)
    live = np.nonzero(t0 <= t1)[0]
    s, d, t0, t1 = starts[live], deltas[live], t0[live], t1[live]
    ijk = np.clip(np.floor((s + t0[:, None] * d - grid.origin) / res).astype(np.int64), 0, dims - 1)
    step = np.sign(d).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        boundary = grid.origin + (ijk + (step > 0)) * res
        tmax = np.where(step != 0, (boundary - s) / d, np.inf)
        tdelta = np.where(step != 0, res / np.abs(d), np.inf)
        # Crossings per axis, the last of them leaving the grid; those past
        # t1 (two steps of slack for rounding) are never summed.
        n_cross = np.where(step > 0, dims - ijk, ijk + 1) * (step != 0)
        n_sum = np.minimum(n_cross, np.nan_to_num(np.floor((t1[:, None] - tmax) / tdelta), nan=-2) + 2)
    moves_of = step * np.array([1, dims[0], dims[0] * dims[1]])

    for b in range(0, len(live), block):
        blk = slice(b, b + block)
        rows = np.arange(len(live[blk]))
        times, exit_t = [], np.full((len(rows), 3), np.inf)
        for axis in range(3):
            n = n_cross[blk, axis]
            acc = np.broadcast_to(tdelta[blk, axis, None], (len(rows), max(int(n_sum[blk, axis].max()), 1))).copy()
            acc[:, 0] = tmax[blk, axis]
            times.append(np.add.accumulate(acc, axis=1))
            summed = (n > 0) & (n <= acc.shape[1])
            exit_t[summed, axis] = times[axis][rows[summed], n[summed] - 1]
        # A ray stops before its first crossing past t1 or out of the grid.
        # Crossings at the exit time are taken on lower axes only (argmin's
        # tie order); an axis's crossing times strictly increase.
        first_exit = np.argmin(exit_t, axis=1)
        t_exit = exit_t[rows, first_exit]
        n_taken = 0
        for axis in range(3):
            limit = np.where(axis < first_exit, t_exit, np.nextafter(t_exit, -np.inf))
            keep = times[axis] <= np.minimum(limit, t1[blk])[:, None]
            kept = keep.sum(axis=1)
            n_taken = n_taken + kept
            times[axis] = np.where(keep, times[axis], np.inf)[:, : kept.max()]
        axes = np.repeat(np.arange(3), [t.shape[1] for t in times])
        order = np.argsort(np.concatenate(times, axis=1), axis=1, kind="stable")[:, : n_taken.max()]
        taken = np.arange(order.shape[1]) < n_taken[:, None]
        moves = np.where(taken, moves_of[blk].take(axes.take(order) + 3 * rows[:, None]), 0)

        flat = np.empty((len(rows), 1 + order.shape[1]), dtype=np.int64)
        flat[:, 0] = grid.flat_index(ijk[blk])
        np.cumsum(moves, axis=1, out=flat[:, 1:])
        flat[:, 1:] += flat[:, :1]
        yield live[blk], flat, np.concatenate([np.ones((len(rows), 1), dtype=bool), taken], axis=1)


def first_hits(hit: np.ndarray) -> np.ndarray:
    """Column of each row's first True as an (N, 1) array; the row width if none."""
    return np.where(hit.any(axis=1), hit.argmax(axis=1), hit.shape[1])[:, None]


# ---- observation integration ---------------------------------------------


def mark_occupied(grid: VoxelGrid, points: np.ndarray) -> np.ndarray:
    """Rule 1: point evidence wins from any state.  Returns the mask of the
    points inside the grid."""
    ijk = grid.voxel_of(points)
    ok = grid.in_bounds(ijk)
    grid.states[grid.flat_index(ijk[ok])] = int(VoxelState.OCCUPIED)
    return ok


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _ray_parts(n: int) -> list[slice]:
    """Contiguous parts of a frame's n rays: two halves, or one part when
    the process may use one CPU only or n <= _RAY_BLOCK."""
    if n <= _RAY_BLOCK or _usable_cpus() < 2:
        return [slice(0, n)]
    return [slice(0, n - n // 2), slice(n - n // 2, n)]


@functools.cache
def _walk_pool() -> ThreadPoolExecutor:
    """The one worker thread that walks second halves, started on first use."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="nbvplan-walk")


def _walk(
    grid: VoxelGrid,
    occupied: np.ndarray,
    starts: np.ndarray,
    deltas: np.ndarray,
    t_end: np.ndarray,
    block: int,
    in_front: np.ndarray,
    behind: np.ndarray,
) -> tuple[int, int]:
    """Walk rays in blocks of `block` to `t_end`, then those that met no
    Occupied voxel on to the grid exit, setting in `in_front` the voxels each
    crosses before its first Occupied voxel and in `behind` those after it.
    Returns the rays walked and the voxel visits over both passes."""
    walks = visits = 0
    for bound in (t_end, np.inf):
        unblocked = [np.empty(0, dtype=np.int64)]
        for rays, flat, valid in traverse_rays(grid, starts, deltas, bound, block):
            hit = valid & occupied[flat]
            first = first_hits(hit)
            col = np.arange(flat.shape[1])
            in_front[flat[valid & (col < first)]] = True
            behind[flat[valid & (col > first)]] = True
            unblocked.append(rays[~hit.any(axis=1)])
            walks += len(rays)
            visits += int(np.count_nonzero(valid))
        todo = np.concatenate(unblocked)
        starts, deltas = starts[todo], deltas[todo]
    return walks, visits


def integrate_observation(grid: VoxelGrid, obs: Observation) -> None:
    """Apply update rules 1-3 for one observation.

    Rule 1 runs first, then all rays are walked at once.  A voxel crossed
    before some ray's first Occupied voxel becomes Empty; otherwise a None
    voxel crossed behind one becomes Unknown if its centre lies in the
    bounding box (never while no box is set).

    A ray is walked only as far as it can change the result: past its own
    point's voxel, which is Occupied, and past the bounding box padded by one
    voxel, outside which rule 2 writes nothing.  A ray that has met no
    Occupied voxel by then, which happens when it passes its point's voxel by
    an edge or a corner, is walked again to the grid exit.  The states are
    those of walking every ray to the grid exit.

    A frame with more than _RAY_BLOCK rays is split once into two
    contiguous halves when the process may run on two CPUs, the second
    walked on a worker thread; each half walks both passes, in blocks of
    _RAY_BLOCK // 2 rays so that the rays in flight, and their memory, are
    one block's.  Otherwise the frame is one part, walked on the calling
    thread, and no thread starts.  The states do not depend on the split.
    """
    if len(obs.points) == 0:
        raise ValueError("integrate_observation requires a nonempty observation")
    ok = mark_occupied(grid, obs.points)
    deltas = obs.points[ok] - obs.sensor_origin
    norms = np.linalg.norm(deltas, axis=1)
    deltas, norms = deltas[norms > 1e-12], norms[norms > 1e-12]
    starts = np.broadcast_to(obs.sensor_origin, deltas.shape)
    # The point sits at t = 1; res/|d| of slack covers rounding at its voxel.
    t_end = 1.0 + grid.resolution / norms
    if grid.bbox is not None:
        pad = grid.resolution
        t_end = np.maximum(t_end, ray_box_range(starts, deltas, grid.bbox[0] - pad, grid.bbox[1] + pad)[1])
    occupied = grid.states == int(VoxelState.OCCUPIED)
    parts = _ray_parts(len(deltas))
    block = _RAY_BLOCK // len(parts)
    # Each part walks into its own (in_front, behind) masks, ORed after the join.
    masks = [(np.zeros(grid.n_voxels, dtype=bool), np.zeros(grid.n_voxels, dtype=bool)) for _ in parts]

    def walk(i):
        part = parts[i]
        return _walk(grid, occupied, starts[part], deltas[part], t_end[part], block, *masks[i])

    futures = [_walk_pool().submit(walk, i) for i in range(1, len(parts))]
    walked = []
    try:
        walked.append(walk(0))
    finally:  # no worker may still write a mask when this returns
        walked += [future.result() for future in futures]
    in_front, behind = masks[0]
    for front, back in masks[1:]:
        in_front |= front
        behind |= back
    log.debug(
        "integrate_observation: %d rays cast, %d walked, %d voxel visits, %d parts",
        len(deltas), sum(w for w, _ in walked), sum(v for _, v in walked), len(parts),
    )

    if grid.bbox is not None:
        unknown = behind & ~in_front & (grid.states == int(VoxelState.NONE)) & grid.bbox_mask()
        grid.states[unknown] = int(VoxelState.UNKNOWN)
    grid.states[in_front] = int(VoxelState.EMPTY)


# ---- frontier and bounding box ---------------------------------------------


def _dilate(mask3: np.ndarray) -> np.ndarray:
    """True where a cell or any of its 26 neighbors is set in mask3 (zero padded).

    A 3x3x3 box dilation, one axis at a time.
    """
    out = mask3
    for axis in range(3):
        src = np.moveaxis(out, axis, 0)
        out = out.copy()
        dst = np.moveaxis(out, axis, 0)
        dst[1:] |= src[:-1]
        dst[:-1] |= src[1:]
    return out


def update_frontier(grid: VoxelGrid) -> None:
    """Reclassify Unknown/Frontier voxels.

    A voxel is Frontier iff it is currently Unknown or Frontier and its
    26-neighborhood contains at least one Empty and one Occupied voxel;
    all others in that pool revert to Unknown.
    """
    g3 = grid.grid3d()
    pool = (g3 == int(VoxelState.UNKNOWN)) | (g3 == int(VoxelState.FRONTIER))
    if not pool.any():
        return
    # The pool holds no Empty or Occupied cell, so counting each cell as its
    # own neighbor changes nothing.
    near_empty = _dilate(g3 == int(VoxelState.EMPTY))
    near_occ = _dilate(g3 == int(VoxelState.OCCUPIED))
    frontier = pool & near_empty & near_occ
    g3[pool] = int(VoxelState.UNKNOWN)
    g3[frontier] = int(VoxelState.FRONTIER)


def _index_range(grid: VoxelGrid, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Lowest and highest (i, j, k) of the cells set in the flat `mask`, or None.

    Per axis, the mask is projected with `any` onto that axis, so no index
    of a single cell is formed.
    """
    mask3 = mask.reshape(grid.dims[::-1])  # (nz, ny, nx)
    i = np.flatnonzero(mask3.any(axis=(0, 1)))
    if not len(i):
        return None
    zy = mask3.any(axis=2)
    j, k = np.flatnonzero(zy.any(axis=0)), np.flatnonzero(zy.any(axis=1))
    return np.array([i[0], j[0], k[0]]), np.array([i[-1], j[-1], k[-1]])


def cells_bbox(grid: VoxelGrid, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """World-space (min, max) corners of the box around the cells set in `mask`, or None."""
    bounds = _index_range(grid, mask)
    if bounds is None:
        return None
    lo, hi = bounds
    return grid.origin + lo * grid.resolution, grid.origin + (hi + 1) * grid.resolution


def initial_bbox(grid: VoxelGrid, view_direction: np.ndarray) -> None:
    """Set the first frame's adaptive bounding box B on the grid: the Occupied-cell
    bbox swept along the viewing direction until its diagonal doubles (growth
    entirely on the far side)."""
    occupied = cells_bbox(grid, grid.states == int(VoxelState.OCCUPIED))
    if occupied is None:
        raise ValueError("initial_bbox requires at least one Occupied voxel")
    bmin, bmax = occupied
    d = np.asarray(view_direction, dtype=float).reshape(3)
    norm = np.linalg.norm(d)
    if norm == 0:
        raise ValueError("view_direction must be nonzero")
    d = d / norm
    ext = bmax - bmin
    e2 = float(ext @ ext)
    a = np.abs(d)
    b = float(ext @ a)
    # Sweep length s with |ext + s*|d|| = 2|ext|  (a is unit).
    s = -b + np.sqrt(b * b + 3.0 * e2)
    bmin = bmin + np.minimum(0.0, s * d)
    bmax = bmax + np.maximum(0.0, s * d)
    grid.set_bbox(bmin, bmax)


def update_bbox(grid: VoxelGrid) -> None:
    """Set a later frame's adaptive bounding box B on the grid: it covers the
    Occupied and Unknown cells and a sphere of radius gamma = 2 voxels around
    every Frontier voxel center."""
    gamma = 2.0 * grid.resolution
    occupied = cells_bbox(grid, grid.states == int(VoxelState.OCCUPIED))
    if occupied is None:
        raise ValueError("update_bbox requires at least one Occupied voxel")
    bmin, bmax = occupied
    unknown = cells_bbox(grid, grid.states == int(VoxelState.UNKNOWN))
    if unknown is not None:
        bmin = np.minimum(bmin, unknown[0])
        bmax = np.maximum(bmax, unknown[1])
    # a voxel center origin + (i + 0.5) * res rises with i, so the extreme
    # centers are those of the extreme indices
    frontier = _index_range(grid, grid.states == int(VoxelState.FRONTIER))
    if frontier is not None:
        bmin = np.minimum(bmin, grid.voxel_centers(frontier[0])[0] - gamma)
        bmax = np.maximum(bmax, grid.voxel_centers(frontier[1])[0] + gamma)
    grid.set_bbox(bmin, bmax)
