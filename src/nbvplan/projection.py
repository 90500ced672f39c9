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

Projected area is the exact area of the ellipse inside the image rectangle:
pi*a*b when its bounding box lies inside the image, 0 when the box lies
outside it, and for the pairs that cross the image border a closed form
computed in one array pass over all of them.  The affine map that takes the
ellipse to the unit disk takes the image to a parallelogram, and the disk's
area inside it is a sum of circular sectors and triangles, one to three per
parallelogram edge (`_border_area`).  The area is continuous as a
silhouette moves across an image side or corner.  A pair contributes zero,
but keeps its depth rank, when its center is at or behind the principal
plane, its dual conic is singular or non-finite, or its conic is not a real
ellipse (camera inside or tangent to the ellipsoid).
"""

from __future__ import annotations

import numpy as np

from .ellipsoid import Ellipsoid
from .geometry import CameraIntrinsics, Pose
from .views import CandidateView


def _border_area(center, axes, orientation, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Exact area of each ellipse inside the image (px^2), for (K,) ellipses.

    The image spans [-0.5, width-0.5] x [-0.5, height-0.5] so that pixel
    centers sit at integer coordinates.  Rotating by -orientation about the
    ellipse center and dividing by the semi-axes maps the ellipse to the
    unit disk and the image to a parallelogram with corners P_k, still
    counterclockwise.  Edge P_k -> P_k+1 runs inside the disk from p1 to p2
    (p1 = p2 where it misses), so the disk's area inside the parallelogram
    is the sum over the edges of sector(P_k, p1) + triangle(p1, p2) +
    sector(p2, P_k+1), where sector(u, v) = atan2(u x v, u . v) / 2 and
    triangle(u, v) = u x v / 2.  Scaling by a*b maps it back.
    """
    right, top = intrinsics.width - 0.5, intrinsics.height - 0.5
    du = np.array([-0.5, right, right, -0.5]) - center[:, :1]
    dv = np.array([-0.5, -0.5, top, top]) - center[:, 1:]
    c, s = np.cos(orientation)[:, None], np.sin(orientation)[:, None]
    px, py = (c * du + s * dv) / axes[:, :1], (c * dv - s * du) / axes[:, 1:]
    qx, qy = np.roll(px, -1, axis=1), np.roll(py, -1, axis=1)
    ex, ey = qx - px, qy - py
    # The edge's line meets the circle at t = foot -+ half.  By Lagrange's
    # identity the discriminant (P.e)^2 - |e|^2 (|P|^2 - 1) is
    # |e|^2 - (P x e)^2, which keeps its digits when |P| is large.
    length2 = ex * ex + ey * ey
    cross = px * ey - py * ex
    foot = -(px * ex + py * ey) / length2
    half = np.sqrt(np.maximum(length2 - cross * cross, 0.0)) / length2
    t1, t2 = np.clip(foot - half, 0.0, 1.0), np.clip(foot + half, 0.0, 1.0)
    ax, ay, bx, by = px + t1 * ex, py + t1 * ey, px + t2 * ex, py + t2 * ey
    twice = (
        np.arctan2(px * ay - py * ax, px * ax + py * ay)
        + (ax * by - ay * bx)
        + np.arctan2(bx * qy - by * qx, bx * qx + by * qy)
    ).sum(axis=1)
    # Where no edge enters the disk the sectors add up to a whole turn or to
    # nothing; rounding them off makes an ellipse that misses the image 0.
    missed = (t1 == t2).all(axis=1)
    twice = np.where(missed, 2.0 * np.pi * np.round(twice / (2.0 * np.pi)), twice)
    return np.maximum(0.5 * axes[:, 0] * axes[:, 1] * twice, 0.0)


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
