"""Projection-based viewpoint scoring, batched over views and ellipsoids.

`evaluate_all` scores N candidate views against M ellipsoids in one pass.
The camera matrices P = K [R|t] are stacked as (N,3,4) and the dual quadrics
Q* = Q^-1 as (M,4,4); one einsum forms every dual conic Phi* = P Q* P^T
(Hartley & Zisserman, Multiple View Geometry, sec. 8.3) and one batched
inverse gives the silhouette conics Phi = (Phi*)^-1.  Each conic's center,
semi-axes and orientation follow in closed form from its 2x2 block.

Per view, the ellipsoids are jointly depth-ranked by the camera-frame z of
their centers; the r-th nearest gets observability weight 0.5^r (the nearest
has rank 0, weight 1).  The list an ellipsoid arrives in decides its sign and
its tie-break class: a view's quality F is the weighted projected area of the
frontier ellipsoids minus that of the occupied ones, and at equal depth
occupied ranks before frontier, then the lower cluster index first.

Projected area is pi*a*b for an ellipse whose bounding box lies inside the
image and 0 for one whose bounding box lies outside it.  Only the pairs that
cross the image border are clipped (256-segment polygon, Sutherland-Hodgman,
shoelace); a rasterized pixel count is available for cross-checking.  A pair
contributes zero, but keeps its depth rank, when its center is at or behind
the principal plane, its dual conic is singular or non-finite, or its conic
is not a real ellipse (camera inside or tangent to the ellipsoid).
"""

from __future__ import annotations

import numpy as np

from .ellipsoid import Ellipsoid
from .geometry import CameraIntrinsics, Pose
from .views import CandidateView

ELLIPSE_SEGMENTS = 256


def _clip_polygon_axis(poly: np.ndarray, axis: int, bound: float, keep_less: bool) -> np.ndarray:
    """Sutherland-Hodgman clip against one axis-aligned half-plane (vectorized)."""
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
    # A crossing edge has its ends on either side of the bound, so its
    # interpolation never divides by zero.
    i, j = np.flatnonzero(crossing), nxt[crossing]
    t = (bound - vals[i]) / (vals[j] - vals[i])
    cross_pts = poly[i] + t[:, None] * (poly[j] - poly[i])

    # Per input vertex emit: the vertex itself (if inside), then the edge
    # crossing point (if its outgoing edge crosses the boundary).
    counts = inside.astype(int) + crossing.astype(int)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out = np.empty((int(counts.sum()), 2))
    out[starts[inside]] = poly[inside]
    out[starts[crossing] + inside[crossing]] = cross_pts
    return out


def clipped_ellipse_area(center, axes, orientation, intrinsics: CameraIntrinsics) -> float:
    """Area of an ellipse's 256-gon inside the image rectangle (px^2).

    The image spans [-0.5, width-0.5] x [-0.5, height-0.5] so that pixel
    centers sit at integer coordinates.
    """
    t = np.linspace(0.0, 2.0 * np.pi, ELLIPSE_SEGMENTS, endpoint=False)
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
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def rasterized_ellipse_area(conic: np.ndarray, intrinsics: CameraIntrinsics) -> float:
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
    m = conic[:2, :2]
    sign = 1.0 if np.trace(m) > 0 else -1.0
    return float(np.count_nonzero(sign * q <= 0.0))


def project(poses: list[Pose], ellipsoids: list[Ellipsoid], intrinsics: CameraIntrinsics):
    """Silhouette of every ellipsoid in every view, as arrays over (view, ellipsoid) pairs.

    Returns `(cam_z, conic, center, axes, area)` with shapes (N,M), (N,M,3,3),
    (N,M,2), (N,M,2) and (N,M): the camera-frame depth of each ellipsoid
    center, the scale-normalized conic with a positive definite 2x2 block,
    the ellipse center (u, v) and semi-axes (major first) in px, and its
    area inside the image in px^2.  Pairs that project to no real ellipse
    have NaN conic, center and axes and zero area.
    """
    rot = np.stack([p.rotation for p in poses])  # camera-to-world
    pos = np.stack([p.translation for p in poses])
    rot_t = rot.transpose(0, 2, 1)
    cameras = intrinsics.matrix @ np.concatenate([rot_t, -rot_t @ pos[:, :, None]], axis=2)
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
    for pair in zip(*np.nonzero(valid & ~inside & ~outside)):
        area[pair] = clipped_ellipse_area(center[pair], axes[pair], orientation[pair], intrinsics)
    return cam_z, conic, center, axes, area


def depth_weights(cam_z: np.ndarray, n_occupied: int, cluster_index: np.ndarray) -> np.ndarray:
    """Weight 0.5^rank of each ellipsoid in each view's joint depth order.

    `cam_z` is (N,M) over the occupied ellipsoids followed by the frontier
    ones, the first `n_occupied` columns being occupied.  Rank 0 is the
    nearest center; equal depths rank occupied before frontier, then the
    lower cluster index first.
    """
    klass = np.arange(cam_z.shape[1]) >= n_occupied
    order = np.lexsort(np.broadcast_arrays(cluster_index, klass, cam_z))
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(cam_z.shape[1]), axis=1)
    return 0.5**rank


def evaluate_all(
    candidates: list[CandidateView],
    occupied: list[Ellipsoid],
    frontier: list[Ellipsoid],
    intrinsics: CameraIntrinsics,
) -> np.ndarray:
    """F of every candidate: weighted frontier area minus weighted occupied area.

    Sets `score` on each candidate and returns the (N,) array of F in
    candidate order.
    """
    if not candidates:
        raise ValueError("evaluate_all requires candidates")
    ellipsoids = [*occupied, *frontier]
    n = len(occupied)
    scores = np.zeros(len(candidates))
    if ellipsoids:
        cam_z, _, _, _, area = project([v.pose for v in candidates], ellipsoids, intrinsics)
        mass = area * depth_weights(cam_z, n, np.array([e.cluster_index for e in ellipsoids]))
        scores = mass[:, n:].sum(axis=1) - mass[:, :n].sum(axis=1)
    for v, f in zip(candidates, scores):
        v.score = float(f)
    return scores
