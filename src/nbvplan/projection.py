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
image and 0 for one whose bounding box lies outside it.  The pairs that cross
the image border are approximated by a 256-segment polygon and cut to the
image rectangle in one masked array pass over all of them: by Green's
theorem, twice the area is the sum of x dy - y dx over the polygon edges
clipped to the rectangle (Liang-Barsky, only for the edges not wholly
inside) and over the stretch of each image side inside the polygon.  A pair
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


def _clipped_cross(x0, y0, x1, y1, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """x dy - y dx of each segment after Liang-Barsky clipping to the rectangle [lo, hi]."""
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = np.zeros_like(x0), np.ones_like(x0)
    keep = np.ones(x0.shape, dtype=bool)
    for start, d, low, high in ((x0, dx, lo[0], hi[0]), (y0, dy, lo[1], hi[1])):
        parallel = d == 0.0
        keep &= ~parallel | ((start >= low) & (start <= high))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_low, t_high = (low - start) / d, (high - start) / d
        ahead = d > 0.0
        t0 = np.where(parallel, t0, np.maximum(t0, np.where(ahead, t_low, t_high)))
        t1 = np.where(parallel, t1, np.minimum(t1, np.where(ahead, t_high, t_low)))
    keep &= t0 < t1
    a_x, a_y, b_x, b_y = x0 + t0 * dx, y0 + t0 * dy, x0 + t1 * dx, y0 + t1 * dy
    return np.where(keep, a_x * b_y - b_x * a_y, 0.0)


def _chord_length(pa, pb, qa, qb, level: float, low: float, high: float) -> np.ndarray:
    """Length within [low, high] of each polygon's chord on the line a = level.

    `pa`, `pb` (K,S) are the vertex coordinates across and along the line,
    `qa`, `qb` the same rolled to each edge's far end.  The half-open test
    counts a vertex lying exactly on the line once.
    """
    pair, i = np.nonzero((pa < level) != (qa < level))
    a0, b0 = pa[pair, i], pb[pair, i]
    hit = b0 + (level - a0) / (qa[pair, i] - a0) * (qb[pair, i] - b0)
    first = np.full(len(pa), np.inf)
    last = np.full(len(pa), -np.inf)
    np.minimum.at(first, pair, hit)
    np.maximum.at(last, pair, hit)
    return np.maximum(np.minimum(last, high) - np.maximum(first, low), 0.0)


def _border_area(center, axes, orientation, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Area inside the image of each ellipse's 256-gon (px^2), for (K,) ellipses.

    The image spans [-0.5, width-0.5] x [-0.5, height-0.5] so that pixel
    centers sit at integer coordinates.  Twice the area of the convex
    polygon cut to that rectangle is the boundary sum of x dy - y dx
    (Green's theorem): every polygon edge clipped to the rectangle, plus,
    for each image side, its coordinate times the stretch of that side
    inside the polygon.  The polygon runs counterclockwise, so the right
    and top sides count positive and the left and bottom sides negative.
    """
    t = np.linspace(0.0, 2.0 * np.pi, ELLIPSE_SEGMENTS, endpoint=False)
    c, s = np.cos(orientation)[:, None], np.sin(orientation)[:, None]
    ex, ey = axes[:, :1] * np.cos(t), axes[:, 1:] * np.sin(t)
    px, py = center[:, :1] + c * ex - s * ey, center[:, 1:] + s * ex + c * ey
    qx, qy = np.roll(px, -1, axis=1), np.roll(py, -1, axis=1)
    lo = np.array([-0.5, -0.5])
    hi = np.array([intrinsics.width - 0.5, intrinsics.height - 0.5])

    beyond = np.stack([px < lo[0], px > hi[0], py < lo[1], py > hi[1]])  # per vertex and side
    beyond_q = np.roll(beyond, -1, axis=2)
    whole = ~(beyond | beyond_q).any(axis=0)
    twice = np.where(whole, px * qy - qx * py, 0.0).sum(axis=1)
    # Only edges that are neither wholly inside nor wholly past one side need clipping.
    pair, i = np.nonzero(~whole & ~(beyond & beyond_q).any(axis=0))
    cut = _clipped_cross(px[pair, i], py[pair, i], qx[pair, i], qy[pair, i], lo, hi)
    twice += np.bincount(pair, weights=cut, minlength=len(px))
    for sign, level in ((-1.0, lo[0]), (1.0, hi[0])):
        twice += sign * level * _chord_length(px, py, qx, qy, level, lo[1], hi[1])
    for sign, level in ((-1.0, lo[1]), (1.0, hi[1])):
        twice += sign * level * _chord_length(py, px, qy, qx, level, lo[0], hi[0])
    return 0.5 * np.abs(twice)


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
    border = valid & ~inside & ~outside
    if border.any():
        area[border] = _border_area(center[border], axes[border], orientation[border], intrinsics)
    return cam_z, conic, center, axes, area


def depth_weights(cam_z: np.ndarray, n_occupied: int, cluster_index: np.ndarray) -> np.ndarray:
    """Weight 0.5^rank of each ellipsoid in each view's joint depth order.

    `cam_z` is (N,M) over the occupied ellipsoids followed by the frontier
    ones, the first `n_occupied` columns being occupied.  Rank 0 is the
    nearest center; equal depths rank occupied before frontier, then the
    lower cluster index first.

    The rank follows the centers alone, so it is discontinuous: two
    ellipsoids whose centers lie 0.1 mm apart in depth swap weights 1 and
    0.5 when one moves 0.2 mm, and F of a view seeing both can change sign
    (`test_depth_rank_swap_flips_sign`).  This is the paper's rule and is
    kept as it is.
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
