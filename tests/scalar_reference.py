"""Scalar reference implementations that the batched code must reproduce.

`CandidateView` is one candidate view as a standalone record, the type the
per-view loops below build and read; `stack` turns a list of records into
the `views.Candidates` set that the program scores and selects from, a
missing score (None) becoming NaN.  `look_at`, `sample_candidates` and
`assign_partitions` are the per-view loops that `geometry.look_at_many` and
the array pass in `views` replace; the batched results must equal them bit
for bit.  `select_next_view` is the per-view argmax loop that the masked
argmax in `planner` replaces; it must pick the same view and raise the same
errors.  `exact_ellipse_area`
integrates an ellipse's horizontal chord, clipped to the image width, over
the image rows with adaptive quadrature, breaking the integral where the
ellipse meets an image side; the closed-form area in `projection.project`
must equal it to 1e-9 relative.  `clipped_ellipse_area` clips the
ellipse's inscribed 256-gon against the image rectangle with
Sutherland-Hodgman and sums the shoelace formula, the approximation the
closed form replaced, which bounds how far the areas moved.
`rasterized_ellipse_area` counts the pixels inside a conic, an independent
check on all of them.  `project_reference` is `projection.project` with the
conics from a batched LAPACK inverse of the pixel-coordinate dual conics,
the path the closed-form cofactors replaced; validity must be equal and
the ellipses must agree to 1e-12 relative.

`pixel_rays_stacked` builds each pixel's ray direction ((c - cx)/fx,
(r - cy)/fy, 1) in one stacked array and normalizes it by `np.linalg.norm`,
the formula that the gathers from `CameraIntrinsics.ray_axes` in
`CameraIntrinsics.pixel_rays` replace; the rays must be equal bit for bit.
`frame_to_points_pixel_rays` back-projects a frame through
`pixel_rays_stacked`, and `crop_all` keeps the points inside a
box with one `np.all` over (N,3) comparisons: the path that
`render.frame_to_points` and the per-column tests of
`planner._crop` replace; points and their order must be equal bit for bit.
`preprocess_points_sort_all` is `voxel.preprocess_points` with np.unique
over every point's cell key, built by `np.ravel_multi_index` over the
cells' box, the sort that the one over the starts of runs of equal keys
replaces; the kept points and their order must be equal.
`traverse_ray` is the scalar Amanatides-Woo walk that `voxel.traverse_rays`
must match voxel for voxel.  `integrate_walk_to_exit` and
`oracle_walk_to_exit` walk every ray to the grid exit (the oracle's to
`max_range`); the bounded walks of `integrate_observation` and
`oracle_evaluate` must give the same states and the same counts.  `neighbor_any` is
the 26-offset neighborhood test that the separable dilation in
`update_frontier` replaces, and `update_bbox_by_indices` the per-cell box
that the per-axis projections in `initial_bbox` and `update_bbox`
replace, bit for bit.
`point_to_mesh_distance` is the exact O(N*F) point-to-triangle distance
used to validate sampling and rendering.
`render_depth_loop` is the per-triangle Moller-Trumbore loop that the grouped
array pass in `render.render_depth` replaces; its depths must be equal bit
for bit.
`fit_gmm_loop` is the EM fit with a Python loop over mixture components in
the E-step (`_log_gaussian`, `_logsumexp`) and in the M-step scatter, which
the array step in `ellipsoid.fit_gmm` replaces; weights, means,
covariances, the ln L trace and the labels must be equal bit for bit.
`responsibilities` is the E-step's posterior on its own.
`todd_yildirim` is the Frank-Wolfe/away-step MVEE iteration that the
Newton steps on the support in `ellipsoid._mvee_weights` replace; from the
same start and to the same certificate, the new weights must give a
volume no more than (1 + tol) times its own.
`load_obj_lines` and `load_ply_lines` read a mesh one line at a time, the
loaders that the array passes in `mesh._load_obj` and `mesh._load_ply`
replace; vertices must be equal bit for bit and triangles equal, or both
must raise the same exception with the same message.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from nbvplan.ellipsoid import (
    _LOG_2PI,
    EM_MAX_ITER,
    EM_TOL,
    MVEE_MAX_ITER,
    Ellipsoid,
    GmmModel,
    InfeasibleModelError,
    _farthest_point_means,
    _kumar_yildirim_start,
)
from nbvplan.geometry import CameraIntrinsics, DepthFrame, Pose
from nbvplan.mesh import EmptyMeshError, MeshFormatError, TriangleMesh
from nbvplan.oracle import OracleScore, _camera_rays
from nbvplan.planner import InfeasiblePartitionError, PartitionLedger, admissible_partitions
from nbvplan.projection import _border_area
from nbvplan.render import BARY_EPS, DET_EPS, T_MIN
from nbvplan.views import _GOLDEN_ANGLE, UP, Candidates, SamplingConfig, _parallel_counts
from nbvplan.voxel import Observation, VoxelGrid, VoxelState, first_hits, mark_occupied, traverse_rays


def look_at(position, target, up) -> Pose:
    position = np.asarray(position, dtype=float).reshape(3)
    target = np.asarray(target, dtype=float).reshape(3)
    up = np.asarray(up, dtype=float).reshape(3)

    forward = target - position
    norm = np.linalg.norm(forward)
    if norm == 0.0:
        raise ValueError("camera position coincides with the look-at target")
    z = forward / norm

    up_proj = up - np.dot(up, z) * z
    if np.linalg.norm(up_proj) < 1e-8:
        fallback = np.array([1.0, 0.0, 0.0])
        up_proj = fallback - np.dot(fallback, z) * z
    up_proj /= np.linalg.norm(up_proj)

    y = -up_proj
    x = np.cross(y, z)
    return Pose(rotation=np.column_stack([x, y, z]), translation=position)


@dataclass
class CandidateView:
    pose: Pose
    azimuth: float = 0.0     # rad, in [0, 2*pi)
    partition_index: int = -1
    score: float | None = None

    @property
    def position(self) -> np.ndarray:
        return self.pose.translation


def stack(views: list[CandidateView]) -> Candidates:
    """The records as one `Candidates` set, row i from views[i]."""
    return Candidates(
        rotations=np.array([v.pose.rotation for v in views], dtype=float).reshape(-1, 3, 3),
        positions=np.array([v.position for v in views], dtype=float).reshape(-1, 3),
        azimuth=np.array([v.azimuth for v in views], dtype=float),
        partition=np.array([v.partition_index for v in views], dtype=int),
        scores=np.array([np.nan if v.score is None else v.score for v in views], dtype=float),
    )


def sample_candidates(config: SamplingConfig, center, radius: float) -> list[CandidateView]:
    center = np.asarray(center, dtype=float).reshape(3)
    lo, hi = config.polar_range
    polars = np.linspace(lo, hi, config.alpha)
    counts = _parallel_counts(polars, config.n_views)

    views = []
    for ring, (polar, count) in enumerate(zip(polars, counts)):
        if count == 0:
            continue
        phase = (ring * _GOLDEN_ANGLE) % (2.0 * np.pi)
        for k in range(count):
            azimuth = (phase + 2.0 * np.pi * k / count) % (2.0 * np.pi)
            local = np.array(
                [
                    np.sin(polar) * np.cos(azimuth),
                    np.sin(polar) * np.sin(azimuth),
                    np.cos(polar),
                ]
            )
            position = center + radius * local
            pose = look_at(position, center, UP)
            views.append(CandidateView(pose=pose, azimuth=azimuth))
    return views


def assign_partitions(views: list[CandidateView], beta: int) -> list[CandidateView]:
    width = 2.0 * np.pi / beta
    for v in views:
        v.partition_index = min(int(v.azimuth // width), beta - 1)
    return views


def select_next_view(scored: list[CandidateView], ledger: PartitionLedger) -> CandidateView:
    if not scored:
        raise ValueError("select_next_view requires scored candidates")
    allowed = admissible_partitions(ledger)
    best = None
    for idx, view in enumerate(scored):
        if view.partition_index not in allowed:
            continue
        if view.score is None or not math.isfinite(view.score):
            raise ValueError(f"candidate {idx} lacks a finite score: {view.score}")
        if best is None or view.score > scored[best].score:
            best = idx
    if best is None:
        raise InfeasiblePartitionError(
            f"no candidate in admissible partitions {sorted(allowed)}"
        )
    winner = scored[best]
    ledger.mark(winner.partition_index)
    return winner


def _clip_polygon_axis(poly, axis: int, bound: float, keep_less: bool):
    """Sutherland-Hodgman clip against one axis-aligned half-plane."""
    n = len(poly)
    if n == 0:
        return poly
    vals = poly[:, axis]
    inside = vals <= bound if keep_less else vals >= bound
    if inside.all():
        return poly
    if not inside.any():
        return np.empty((0, 2))
    nxt = np.roll(np.arange(n), -1)
    crossing = inside != inside[nxt]
    i, j = np.flatnonzero(crossing), nxt[crossing]
    t = (bound - vals[i]) / (vals[j] - vals[i])
    cross_pts = poly[i] + t[:, None] * (poly[j] - poly[i])

    counts = inside.astype(int) + crossing.astype(int)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out = np.empty((int(counts.sum()), 2))
    out[starts[inside]] = poly[inside]
    out[starts[crossing] + inside[crossing]] = cross_pts
    return out


POLYGON_SEGMENTS = 256


def clipped_ellipse_area(center, axes, orientation, intrinsics: CameraIntrinsics) -> float:
    """Area of an ellipse's 256-gon inside [-0.5, W-0.5] x [-0.5, H-0.5] (px^2)."""
    t = np.linspace(0.0, 2.0 * np.pi, POLYGON_SEGMENTS, endpoint=False)
    c, s = np.cos(orientation), np.sin(orientation)
    x = axes[0] * np.cos(t)
    y = axes[1] * np.sin(t)
    poly = np.column_stack([center[0] + c * x - s * y, center[1] + s * x + c * y])
    poly = _clip_polygon_axis(poly, 0, -0.5, keep_less=False)
    poly = _clip_polygon_axis(poly, 0, intrinsics.width - 0.5, keep_less=True)
    poly = _clip_polygon_axis(poly, 1, -0.5, keep_less=False)
    poly = _clip_polygon_axis(poly, 1, intrinsics.height - 0.5, keep_less=True)
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0] - center[0], poly[:, 1] - center[1]  # small terms for the shoelace
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def exact_ellipse_area(center, axes, orientation, intrinsics: CameraIntrinsics) -> float:
    """Area of an ellipse inside [-0.5, W-0.5] x [-0.5, H-0.5] (px^2), by quadrature.

    In coordinates (du, dv) about the center the ellipse is
    A du^2 + 2 B du dv + C dv^2 <= 1, so the row at offset dv holds the
    chord du in (-B dv -+ sqrt(A - dv^2 / (a b)^2)) / A.  Its length inside
    the image is integrated over the rows, with breakpoints where the
    ellipse crosses the left or right side, at which the clipped length
    has a kink.
    """
    a, b = axes
    c, s = np.cos(orientation), np.sin(orientation)
    qa, qb, qc = c * c / a**2 + s * s / b**2, c * s * (1 / a**2 - 1 / b**2), s * s / a**2 + c * c / b**2
    left, right = -0.5 - center[0], intrinsics.width - 0.5 - center[0]
    reach = a * b * np.sqrt(qa)  # half the ellipse's height
    lo = max(-reach, -0.5 - center[1])
    hi = min(reach, intrinsics.height - 0.5 - center[1])
    if lo >= hi:
        return 0.0

    def chord(dv):
        root = np.sqrt(max(qa - dv * dv / (a * b) ** 2, 0.0))
        u0, u1 = (-qb * dv - root) / qa, (-qb * dv + root) / qa
        return max(min(u1, right) - max(u0, left), 0.0)

    kinks = []
    for du in (left, right):  # qc dv^2 + 2 qb du dv + qa du^2 - 1 = 0
        disc = (qb * du) ** 2 - qc * (qa * du * du - 1.0)
        if disc > 0:
            kinks += [(-qb * du - np.sqrt(disc)) / qc, (-qb * du + np.sqrt(disc)) / qc]
    kinks = sorted(k for k in kinks if lo < k < hi)
    area, _ = quad(chord, lo, hi, points=kinks or None, epsabs=0.0, epsrel=1e-12, limit=200)
    return area


def rasterized_ellipse_area(conic, intrinsics: CameraIntrinsics) -> float:
    """Pixel-counting reference for the analytic clipped area (px^2)."""
    cols = np.arange(intrinsics.width, dtype=float)
    rows = np.arange(intrinsics.height, dtype=float)
    u, v = np.meshgrid(cols, rows)
    q = (
        conic[0, 0] * u * u
        + 2.0 * conic[0, 1] * u * v
        + conic[1, 1] * v * v
        + 2.0 * conic[0, 2] * u
        + 2.0 * conic[1, 2] * v
        + conic[2, 2]
    )
    sign = 1.0 if np.trace(conic[:2, :2]) > 0 else -1.0
    return float(np.count_nonzero(sign * q <= 0.0))


def quadric(ell: Ellipsoid) -> np.ndarray:
    """4x4 quadric Q with X^T Q X = 0 on the ellipsoid's surface."""
    a, c = ell.shape, ell.center
    q = np.empty((4, 4))
    q[:3, :3] = a
    q[:3, 3] = -a @ c
    q[3, :3] = -a @ c
    q[3, 3] = c @ a @ c - 1.0
    return q


def intrinsic_matrix(intrinsics: CameraIntrinsics) -> np.ndarray:
    """3x3 intrinsic matrix K."""
    fx, fy, cx, cy = intrinsics.fx, intrinsics.fy, intrinsics.cx, intrinsics.cy
    return np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])


def projection_matrix(pose: Pose, intrinsics: CameraIntrinsics) -> np.ndarray:
    """3x4 camera matrix P = K [R|t] built from the world-to-camera transform."""
    rt = np.empty((3, 4))
    rt[:, :3] = pose.rotation.T
    rt[:, 3] = -pose.rotation.T @ pose.translation
    return intrinsic_matrix(intrinsics) @ rt


def project_points(points, pose: Pose, intrinsics: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Project world points; returns (u, v) pixel coords (N, 2) and range (N,)."""
    cam = pose.world_to_camera(points)
    z = cam[:, 2]
    u = intrinsics.fx * cam[:, 0] / z + intrinsics.cx
    v = intrinsics.fy * cam[:, 1] / z + intrinsics.cy
    return np.column_stack([u, v]), np.linalg.norm(cam, axis=1)


def project_reference(poses, ellipsoids, intrinsics: CameraIntrinsics):
    """`projection.project` through LAPACK: one einsum for the dual conics in
    pixel coordinates and one batched `np.linalg.inv` for the conics, with
    `np.linalg.det` deciding which are singular."""
    rot = np.stack([p.rotation for p in poses])  # camera-to-world
    pos = np.stack([p.translation for p in poses])
    rot_t = rot.transpose(0, 2, 1)
    cameras = intrinsic_matrix(intrinsics) @ np.concatenate([rot_t, -rot_t @ pos[:, :, None]], axis=2)
    centers = np.stack([e.center for e in ellipsoids])
    cam_z = np.einsum("nmj,nj->nm", centers[None] - pos[:, None], rot[:, :, 2])
    dual = np.einsum(
        "nij,mjk,nlk->nmil", cameras, np.stack([e.quadric_inv for e in ellipsoids]), cameras
    )

    # Invalid pairs run through the same arithmetic and are masked at the end.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = np.linalg.det(dual)
        valid = (cam_z > 0.0) & np.isfinite(det) & (np.abs(det) >= 1e-300)
        conic = np.linalg.inv(np.where(valid[..., None, None], dual, np.eye(3)))
        conic = conic + np.swapaxes(conic, -1, -2)  # symmetrize; the scale goes next
        conic /= np.abs(conic).max(axis=(-2, -1), keepdims=True)
        conic *= np.where(conic[..., 0, 0] + conic[..., 1, 1] < 0, -1.0, 1.0)[..., None, None]

        a, h, c = conic[..., 0, 0], conic[..., 0, 1], conic[..., 1, 1]
        det_m = a * c - h * h
        b = conic[..., :2, 2]
        center = np.stack([h * b[..., 1] - c * b[..., 0], h * b[..., 0] - a * b[..., 1]], axis=-1)
        center /= det_m[..., None]
        f0 = conic[..., 2, 2] + (b * center).sum(axis=-1)
        # not a hyperbola or parabola (det_m, a), not an imaginary ellipse (f0)
        valid &= (det_m > 0) & (a > 0) & (f0 < 0)
        big = 0.5 * (a + c) + np.hypot(0.5 * (a - c), h)  # eigenvalues: det_m / big <= big
        axes = np.sqrt(-f0[..., None] / np.stack([det_m / big, big], axis=-1))
        orientation = 0.5 * np.arctan2(-2.0 * h, c - a)  # major axis vs +u

    conic[~valid] = np.nan
    center[~valid] = np.nan
    axes[~valid] = np.nan
    cos, sin = np.cos(orientation), np.sin(orientation)
    half = np.stack(  # half extents of the ellipse's bounding box
        [np.hypot(axes[..., 0] * cos, axes[..., 1] * sin),
         np.hypot(axes[..., 0] * sin, axes[..., 1] * cos)],
        axis=-1,
    )
    far = np.array([intrinsics.width - 0.5, intrinsics.height - 0.5])
    inside = ((center - half) >= -0.5).all(axis=-1) & ((center + half) <= far).all(axis=-1)
    outside = ((center + half) <= -0.5).any(axis=-1) | ((center - half) >= far).any(axis=-1)
    area = np.where(inside, np.pi * axes[..., 0] * axes[..., 1], 0.0)
    border = valid & ~inside & ~outside
    if border.any():
        area[border] = _border_area(center[border], axes[border], orientation[border], intrinsics)
    return cam_z, conic, center, axes, area


# ---- frames to points --------------------------------------------------------


def pixel_rays_stacked(intrinsics: CameraIntrinsics, rows, cols) -> np.ndarray:
    """Unit direction in camera coordinates through each (row, col) pixel."""
    d = np.stack(
        [
            (np.asarray(cols, dtype=float) - intrinsics.cx) / intrinsics.fx,
            (np.asarray(rows, dtype=float) - intrinsics.cy) / intrinsics.fy,
            np.ones(np.shape(rows), dtype=float),
        ],
        axis=-1,
    )
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def frame_to_points_pixel_rays(frame: DepthFrame) -> np.ndarray:
    """World-space point per finite-depth pixel (N, 3), row-major."""
    rows, cols = np.nonzero(frame.hit_mask)
    if len(rows) == 0:
        return np.empty((0, 3))
    dirs = pixel_rays_stacked(frame.intrinsics, rows, cols)
    return frame.pose.camera_to_world(dirs * frame.depths[rows, cols][:, None])


def crop_all(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The rows of `points` inside [lo, hi], faces included."""
    return points[np.all((points >= lo) & (points <= hi), axis=1)]


# ---- voxel walks ------------------------------------------------------------


def preprocess_points_sort_all(points: np.ndarray, spacing: float, align_origin: np.ndarray) -> np.ndarray:
    """Keep the first point of each `spacing` cell, in input order."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return pts
    cells = np.floor((pts - align_origin) / spacing).astype(np.int64)
    cells -= cells.min(axis=0)
    _, first = np.unique(np.ravel_multi_index(cells.T, cells.max(axis=0) + 1), return_index=True)
    return pts[np.sort(first)]


def _clip_segment(grid: VoxelGrid, start: np.ndarray, delta: np.ndarray) -> tuple[float, float]:
    """Slab-clip the param range of start + t*delta against the grid span.

    Returns (t0, t1) with t0 > t1 when the segment misses the grid entirely.
    """
    lo, hi = grid.span
    t0, t1 = 0.0, 1.0
    for axis in range(3):
        d = delta[axis]
        s = start[axis]
        if d == 0.0:
            if s < lo[axis] or s > hi[axis]:
                return 1.0, 0.0
        else:
            ta = (lo[axis] - s) / d
            tb = (hi[axis] - s) / d
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
    return t0, t1


def traverse_ray(grid: VoxelGrid, start, end) -> np.ndarray:
    """Voxels pierced by the segment, ordered by entry distance (Amanatides-Woo).

    Returns an (N, 3) integer array, clipped to the grid; empty when the
    segment misses the grid.
    """
    start = np.asarray(start, dtype=float).reshape(3)
    end = np.asarray(end, dtype=float).reshape(3)
    delta = end - start
    if not delta.any():
        raise ValueError("traverse_ray requires start != end")

    t0, t1 = _clip_segment(grid, start, delta)
    if t0 > t1:
        return np.empty((0, 3), dtype=np.int64)

    entry = start + t0 * delta
    ijk = np.clip(
        np.floor((entry - grid.origin) / grid.resolution).astype(np.int64),
        0,
        grid.dims - 1,
    )
    step = np.sign(delta).astype(np.int64)
    tmax = np.full(3, np.inf)
    tdelta = np.full(3, np.inf)
    for axis in range(3):
        if delta[axis] != 0.0:
            boundary = grid.origin[axis] + (ijk[axis] + (step[axis] > 0)) * grid.resolution
            tmax[axis] = (boundary - start[axis]) / delta[axis]
            tdelta[axis] = grid.resolution / abs(delta[axis])

    out = []
    while True:
        out.append(ijk.copy())
        axis = int(np.argmin(tmax))
        if tmax[axis] > t1:
            break
        ijk[axis] += step[axis]
        if ijk[axis] < 0 or ijk[axis] >= grid.dims[axis]:
            break
        tmax[axis] += tdelta[axis]
    return np.array(out, dtype=np.int64)


def integrate_walk_to_exit(grid: VoxelGrid, obs: Observation) -> None:
    """`integrate_observation` with every ray walked to the grid exit."""
    ok = mark_occupied(grid, obs.points)
    deltas = obs.points[ok] - obs.sensor_origin
    deltas = deltas[np.linalg.norm(deltas, axis=1) > 1e-12]
    starts = np.broadcast_to(obs.sensor_origin, deltas.shape)
    occupied = grid.states == int(VoxelState.OCCUPIED)
    in_front = np.zeros(grid.n_voxels, dtype=bool)
    behind = np.zeros(grid.n_voxels, dtype=bool)
    for _, flat, valid in traverse_rays(grid, starts, deltas, np.inf):
        first = first_hits(valid & occupied[flat])
        col = np.arange(flat.shape[1])
        in_front[flat[valid & (col < first)]] = True
        behind[flat[valid & (col > first)]] = True
    if grid.bbox is not None:
        unknown = behind & ~in_front & (grid.states == int(VoxelState.NONE)) & grid.bbox_mask()
        grid.states[unknown] = int(VoxelState.UNKNOWN)
    grid.states[in_front] = int(VoxelState.EMPTY)


def oracle_walk_to_exit(view: CandidateView, grid: VoxelGrid, intrinsics: CameraIntrinsics, stride: int) -> OracleScore:
    """`oracle_evaluate` with every pixel ray walked to max_range or the grid exit."""
    dirs = _camera_rays(intrinsics, stride) @ view.pose.rotation.T
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


_NEIGHBOR_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]  # 26-connectivity


def neighbor_any(mask3: np.ndarray) -> np.ndarray:
    """True where any 26-neighbor of a cell is set in mask3 (zero padded)."""
    nz, ny, nx = mask3.shape
    out = np.zeros_like(mask3)
    for dx, dy, dz in _NEIGHBOR_OFFSETS:
        src_z = slice(max(0, -dz), min(nz, nz - dz))
        src_y = slice(max(0, -dy), min(ny, ny - dy))
        src_x = slice(max(0, -dx), min(nx, nx - dx))
        dst_z = slice(max(0, dz), min(nz, nz + dz))
        dst_y = slice(max(0, dy), min(ny, ny + dy))
        dst_x = slice(max(0, dx), min(nx, nx + dx))
        out[dst_z, dst_y, dst_x] |= mask3[src_z, src_y, src_x]
    return out


def update_bbox_by_indices(grid: VoxelGrid, view_direction, first_frame: bool, gamma: float):
    """`voxel.initial_bbox` (`first_frame`) or `voxel.update_bbox` (with
    `gamma` = 2 voxels) from the flat index of every Occupied, Unknown and
    Frontier cell; returns (bmin, bmax) and leaves the grid's box alone."""

    def box(flat):
        ijk = grid.unflat(flat)
        lo, hi = ijk.min(axis=0), ijk.max(axis=0) + 1
        return grid.origin + lo * grid.resolution, grid.origin + hi * grid.resolution

    occ_flat = grid.indices_in_state(VoxelState.OCCUPIED)
    bmin, bmax = box(occ_flat)
    if first_frame:
        d = np.asarray(view_direction, dtype=float).reshape(3)
        d = d / np.linalg.norm(d)
        ext = bmax - bmin
        e2 = float(ext @ ext)
        b = float(ext @ np.abs(d))
        s = -b + np.sqrt(b * b + 3.0 * e2)
        return bmin + np.minimum(0.0, s * d), bmax + np.maximum(0.0, s * d)
    unk_flat = grid.indices_in_state(VoxelState.UNKNOWN)
    if len(unk_flat):
        umin, umax = box(unk_flat)
        bmin, bmax = np.minimum(bmin, umin), np.maximum(bmax, umax)
    frontier_flat = grid.indices_in_state(VoxelState.FRONTIER)
    if len(frontier_flat):
        centers = grid.voxel_centers(grid.unflat(frontier_flat))
        bmin = np.minimum(bmin, centers.min(axis=0) - gamma)
        bmax = np.maximum(bmax, centers.max(axis=0) + gamma)
    return bmin, bmax


# ---- mesh loaders ------------------------------------------------------------


def _mesh_from_faces(path: str, vertices, faces: list[list[int]], face_lines: list[int]) -> TriangleMesh:
    """Check each triangle's indices, reporting its face's line, then drop the
    faces whose corner-angle sine is at most 1e-12 (repeated or collinear corners)."""
    if not faces:
        raise EmptyMeshError(f"{path}: no triangles found")
    for tri, line_no in zip(faces, face_lines):
        if min(tri) < 0 or max(tri) >= len(vertices):
            raise MeshFormatError(path, line_no, "face index out of vertex range")
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
    tri = np.asarray(faces, dtype=np.int64)
    corners = vertices[tri]
    e1, e2 = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    cross = np.cross(e1, e2)
    cross_sq, e1_sq, e2_sq = (np.einsum("ij,ij->i", x, x) for x in (cross, e1, e2))
    keep = cross_sq > 1e-24 * e1_sq * e2_sq
    return TriangleMesh(vertices=vertices, triangles=tri[keep])


def _fan_triangulate(indices: list[int]) -> list[list[int]]:
    return [[indices[0], indices[i], indices[i + 1]] for i in range(1, len(indices) - 1)]


def load_obj_lines(path: str) -> TriangleMesh:
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    face_lines: list[int] = []
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise MeshFormatError(path, line_no, "vertex record needs 3 coordinates")
                try:
                    xyz = [float(parts[1]), float(parts[2]), float(parts[3])]
                except ValueError as exc:
                    raise MeshFormatError(path, line_no, f"bad vertex coordinate: {exc}")
                if not all(math.isfinite(c) for c in xyz):
                    raise MeshFormatError(path, line_no, "non-finite vertex coordinate")
                vertices.append(xyz)
            elif tag == "f":
                if len(parts) < 4:
                    raise MeshFormatError(path, line_no, "face record needs >= 3 vertices")
                idx = []
                for token in parts[1:]:
                    head = token.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise MeshFormatError(path, line_no, f"bad face index {token!r}")
                    # OBJ indices are 1-based; negatives count back from the
                    # vertices read so far; 0 is no vertex.
                    idx.append(i - 1 if i > 0 else len(vertices) + i if i < 0 else -1)
                tris = _fan_triangulate(idx)
                faces.extend(tris)
                face_lines.extend([line_no] * len(tris))
            # other record types (vn, vt, o, g, s, mtllib, usemtl, ...) are ignored
    return _mesh_from_faces(path, vertices, faces, face_lines)


def load_ply_lines(path: str) -> TriangleMesh:
    with open(path, "r") as fh:
        lines = fh.read().splitlines()

    if not lines or lines[0].strip() != "ply":
        raise MeshFormatError(path, 1, "missing 'ply' magic")
    elements: list[tuple[str, int]] = []  # (name, count) in header order
    vertex_props: list[str] = []
    body_start = None
    for line_no, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "format":
            if len(parts) < 2 or parts[1] != "ascii":
                raise MeshFormatError(path, line_no, "only ascii PLY is supported")
        elif parts[0] == "element":
            if len(parts) != 3:
                raise MeshFormatError(path, line_no, "malformed element record")
            if not parts[2].isdecimal():
                raise MeshFormatError(
                    path, line_no, f"{parts[1]} count must be a non-negative integer, got {parts[2]!r}"
                )
            elements.append((parts[1], int(parts[2])))
        elif parts[0] == "property" and elements and elements[-1][0] == "vertex":
            vertex_props.append(parts[-1])
        elif parts[0] == "end_header":
            body_start = line_no  # lines[] is 0-based with offset 1 already applied
            break
    if body_start is None:
        raise MeshFormatError(path, len(lines), "no end_header")
    if not {"vertex", "face"} <= {name for name, _ in elements}:
        raise MeshFormatError(path, body_start, "PLY must declare vertex and face elements")
    try:
        xi, yi, zi = (vertex_props.index(k) for k in ("x", "y", "z"))
    except ValueError:
        raise MeshFormatError(path, body_start, "vertex element lacks x/y/z properties")
    if len(lines) - body_start < sum(count for _, count in elements):
        raise MeshFormatError(path, len(lines), "file truncated before declared element counts")

    vertices = np.empty((0, 3), dtype=float)
    faces: list[list[int]] = []
    face_lines: list[int] = []
    start = body_start  # the element's first line is lines[start], file line start + 1
    for name, count in elements:
        rows = lines[start : start + count]
        if name == "vertex":
            vertices = np.empty((count, 3), dtype=float)
            for i, row in enumerate(rows):
                parts = row.split()
                try:
                    vertices[i] = (float(parts[xi]), float(parts[yi]), float(parts[zi]))
                except (ValueError, IndexError):
                    raise MeshFormatError(path, start + i + 1, "bad vertex line")
                if not np.isfinite(vertices[i]).all():
                    raise MeshFormatError(path, start + i + 1, "non-finite vertex coordinate")
        elif name == "face":
            for i, row in enumerate(rows):
                parts = row.split()
                try:
                    n = int(parts[0])
                    idx = [int(tok) for tok in parts[1 : 1 + n]]
                except (ValueError, IndexError):
                    raise MeshFormatError(path, start + i + 1, "bad face line")
                if len(idx) != n or n < 3:
                    raise MeshFormatError(path, start + i + 1, "bad face vertex count")
                tris = _fan_triangulate(idx)
                faces.extend(tris)
                face_lines.extend([start + i + 1] * len(tris))
        start += count
    return _mesh_from_faces(path, vertices, faces, face_lines)


# ---- mesh distance ----------------------------------------------------------


def point_to_mesh_distance(points: np.ndarray, mesh: TriangleMesh) -> np.ndarray:
    """Exact point-to-triangle distances, minimized over all faces.

    O(N*F); intended for validation on small inputs.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    corners = mesh.triangle_corners()
    best = np.full(len(points), np.inf)
    for a, b, c in corners:
        best = np.minimum(best, _point_triangle_distance(points, a, b, c))
    return best


def _point_triangle_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Distance from each point in p (N,3) to triangle (a,b,c)."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = ap @ ab
    d2 = ap @ ac
    bp = p - b
    d3 = bp @ ab
    d4 = bp @ ac
    cp = p - c
    d5 = cp @ ab
    d6 = cp @ ac

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    denom = va + vb + vc
    # Clamped barycentric projection onto the triangle, region by region.
    result = np.empty(len(p))
    result.fill(np.nan)

    # vertex regions
    m = (d1 <= 0) & (d2 <= 0)
    result[m] = np.linalg.norm(p[m] - a, axis=1)
    m2 = (d3 >= 0) & (d4 <= d3) & np.isnan(result)
    result[m2] = np.linalg.norm(p[m2] - b, axis=1)
    m3 = (d6 >= 0) & (d5 <= d6) & np.isnan(result)
    result[m3] = np.linalg.norm(p[m3] - c, axis=1)

    # edge regions
    m4 = (vc <= 0) & (d1 >= 0) & (d3 <= 0) & np.isnan(result)
    t = np.where(d1 - d3 != 0, d1 / np.where(m4, d1 - d3, 1.0), 0.0)
    result[m4] = np.linalg.norm(p[m4] - (a + np.outer(t[m4], ab)), axis=1)
    m5 = (vb <= 0) & (d2 >= 0) & (d6 <= 0) & np.isnan(result)
    t = np.where(d2 - d6 != 0, d2 / np.where(m5, d2 - d6, 1.0), 0.0)
    result[m5] = np.linalg.norm(p[m5] - (a + np.outer(t[m5], ac)), axis=1)
    m6 = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0) & np.isnan(result)
    t = np.where((d4 - d3) + (d5 - d6) != 0, (d4 - d3) / np.where(m6, (d4 - d3) + (d5 - d6), 1.0), 0.0)
    result[m6] = np.linalg.norm(p[m6] - (b + np.outer(t[m6], c - b)), axis=1)

    # interior
    mi = np.isnan(result)
    if mi.any():
        v = vb[mi] / denom[mi]
        w = vc[mi] / denom[mi]
        proj = a + np.outer(v, ab) + np.outer(w, ac)
        result[mi] = np.linalg.norm(p[mi] - proj, axis=1)
    return result


# ---- rendering --------------------------------------------------------------


def render_depth_loop(
    mesh: TriangleMesh,
    pose: Pose,
    intrinsics: CameraIntrinsics,
    noise_sigma: float = 0.0,
    noise_seed: int = 0,
) -> DepthFrame:
    """One Moller-Trumbore block per triangle over its screen box.

    A triangle with a vertex at or behind the camera plane is tested against
    the whole image.
    """
    h, w = intrinsics.height, intrinsics.width
    depth = np.full((h, w), np.inf)

    verts_cam = pose.world_to_camera(mesh.vertices)
    tris = mesh.triangles
    if len(tris) == 0:
        return DepthFrame(depths=depth, pose=pose, intrinsics=intrinsics)

    cols = np.arange(w, dtype=float)
    rows = np.arange(h, dtype=float)
    dir_x = (cols - intrinsics.cx) / intrinsics.fx
    dir_y = (rows - intrinsics.cy) / intrinsics.fy
    dir_norm = np.sqrt(dir_x[None, :] ** 2 + dir_y[:, None] ** 2 + 1.0)

    tri_cam = verts_cam[tris]
    z = tri_cam[:, :, 2]
    front = z > T_MIN
    any_front = front.any(axis=1)
    all_front = front.all(axis=1)

    for f in np.nonzero(any_front)[0]:
        v0, v1, v2 = tri_cam[f]
        if all_front[f]:
            u = intrinsics.fx * tri_cam[f, :, 0] / tri_cam[f, :, 2] + intrinsics.cx
            v = intrinsics.fy * tri_cam[f, :, 1] / tri_cam[f, :, 2] + intrinsics.cy
            c0 = max(int(np.floor(u.min())), 0)
            c1 = min(int(np.ceil(u.max())) + 1, w)
            r0 = max(int(np.floor(v.min())), 0)
            r1 = min(int(np.ceil(v.max())) + 1, h)
            if c0 >= c1 or r0 >= r1:
                continue
        else:
            c0, c1, r0, r1 = 0, w, 0, h

        dx = dir_x[c0:c1][None, :]
        dy = dir_y[r0:r1][:, None]

        e1 = v1 - v0
        e2 = v2 - v0
        px = dy * e2[2] - e2[1]
        py = e2[0] - dx * e2[2]
        pz = dx * e2[1] - dy * e2[0]
        det = e1[0] * px + e1[1] * py + e1[2] * pz
        inv_det = np.where(np.abs(det) > DET_EPS, 1.0 / np.where(det == 0, 1.0, det), np.nan)

        tx, ty, tz = -v0[0], -v0[1], -v0[2]
        bu = (tx * px + ty * py + tz * pz) * inv_det
        qx = ty * e1[2] - tz * e1[1]
        qy = tz * e1[0] - tx * e1[2]
        qz = tx * e1[1] - ty * e1[0]
        bv = (dx * qx + dy * qy + qz) * inv_det
        t = (e2[0] * qx + e2[1] * qy + e2[2] * qz) * inv_det

        hit = (
            (bu >= -BARY_EPS)
            & (bv >= -BARY_EPS)
            & (bu + bv <= 1.0 + BARY_EPS)
            & (t > T_MIN)
        )
        rng = np.where(hit, t, np.inf) * dir_norm[r0:r1, c0:c1]
        block = depth[r0:r1, c0:c1]
        np.minimum(block, rng, out=block)

    depth[depth > intrinsics.max_range] = np.inf
    if noise_sigma > 0.0:
        rng_gen = np.random.default_rng(noise_seed)
        noise = rng_gen.normal(0.0, noise_sigma, size=depth.shape)
        finite = np.isfinite(depth)
        depth[finite] = np.clip(depth[finite] + noise[finite], T_MIN, intrinsics.max_range)
    return DepthFrame(depths=depth, pose=pose, intrinsics=intrinsics)


# ---- Gaussian mixture EM ----------------------------------------------------


def _floor_covariance_one(cov: np.ndarray, floor: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def _log_gaussian(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    chol = np.linalg.cholesky(cov)
    d = points - mean
    sol = np.linalg.solve(chol, d.T)
    maha = np.einsum("ji,ji->i", sol, sol)
    log_det = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (3.0 * _LOG_2PI + log_det + maha)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def fit_gmm_loop(
    points: np.ndarray,
    t: int,
    seed: int,
    reg_floor: float,
) -> tuple[GmmModel, np.ndarray]:
    """EM with one Gaussian log-density and one M-step scatter per component."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    if t < 1:
        raise ValueError("component count must be >= 1")
    if n < t:
        raise InfeasibleModelError(f"{t} components but only {n} points")

    rng = np.random.default_rng(seed)
    means = _farthest_point_means(points, t, rng)
    base_cov = np.cov(points.T, bias=True) if n > 1 else np.zeros((3, 3))
    base_cov = _floor_covariance_one(np.atleast_2d(base_cov) / t, reg_floor)
    covs = np.repeat(base_cov[None, :, :], t, axis=0)
    weights = np.full(t, 1.0 / t)

    trace = []
    log_resp = None
    for _ in range(EM_MAX_ITER):
        # E-step
        log_prob = np.stack(
            [_log_gaussian(points, means[k], covs[k]) for k in range(t)], axis=1
        )
        weighted = log_prob + np.log(weights)
        ll = float(_logsumexp(weighted, axis=1).sum())
        log_resp = weighted - _logsumexp(weighted, axis=1)[:, None]
        resp = np.exp(log_resp)

        if trace and abs(ll - trace[-1]) < EM_TOL:
            trace.append(ll)
            break
        trace.append(ll)

        # M-step
        nk = resp.sum(axis=0) + 10.0 * np.finfo(float).eps
        weights = nk / nk.sum()
        means = (resp.T @ points) / nk[:, None]
        for k in range(t):
            d = points - means[k]
            scatter = (resp[:, k][:, None] * d).T @ d / nk[k]
            covs[k] = _floor_covariance_one(scatter, reg_floor)

    labels = np.argmax(log_resp, axis=1)
    model = GmmModel(
        weights=weights,
        means=means,
        covariances=covs,
        log_likelihood=trace[-1],
        ll_trace=np.array(trace),
    )
    return model, labels


def responsibilities(model: GmmModel, points: np.ndarray) -> np.ndarray:
    """Posterior component probabilities per point, rows summing to 1."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    log_prob = np.stack(
        [
            _log_gaussian(points, model.means[k], model.covariances[k])
            for k in range(model.n_components)
        ],
        axis=1,
    )
    weighted = log_prob + np.log(model.weights)
    return np.exp(weighted - _logsumexp(weighted, axis=1)[:, None])


# ---- minimum-volume enclosing ellipsoid ----------------------------------------


def todd_yildirim(points: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """MVEE dual weights by Frank-Wolfe and away steps (Todd & Yildirim 2007).

    With lifted points q_i = (p_i, 1), X(u) = sum u_i q_i q_i^T and
    m_i = q_i^T X^-1 q_i, each step moves weight toward argmax m or away
    from argmin m over the support (dropping that point when the line search
    would make its weight negative).  It stops once max m <= (1+eps)(d+1)
    and min m over the support >= (1-eps)(d+1) with eps = d*tol/(d+1), so
    the ellipsoid built from u has every point at form <= 1 + tol.  X^-1
    and m follow each step by a Sherman-Morrison rank-one update.

    Returns (u, steps); steps == MVEE_MAX_ITER means the cap was hit.
    """
    n, d = points.shape
    q = np.column_stack([points, np.ones(n)])
    lifted = d + 1.0
    eps = d * tol / lifted
    u = _kumar_yildirim_start(points)
    x_inv = np.linalg.inv(q.T * u @ q)
    m = np.einsum("ij,jk,ik->i", q, x_inv, q)
    for steps in range(MVEE_MAX_ITER):
        j = int(np.argmax(m))
        k = int(np.argmin(np.where(u > 0, m, np.inf)))
        up, down = m[j] / lifted - 1.0, 1.0 - m[k] / lifted
        if max(up, down) <= eps:
            return u, steps
        i = j if up > down else k
        kappa = m[i]
        step = (kappa - lifted) / (lifted * (kappa - 1.0))
        drop = i == k and step <= -u[k] / (1.0 - u[k])
        if drop:
            step = -u[k] / (1.0 - u[k])
        w = x_inv @ q[i]
        g = q @ w
        scale = step / (1.0 - step + step * kappa)
        x_inv = (x_inv - scale * np.outer(w, w)) / (1.0 - step)
        m = (m - scale * g * g) / (1.0 - step)
        u *= 1.0 - step
        u[i] = 0.0 if drop else u[i] + step
    return u, MVEE_MAX_ITER
