"""Projection-based viewpoint scoring, batched over views and ellipsoids.

`evaluate_all` scores N candidate views against M ellipsoids in one pass.
The camera matrices P = K [R|t] are stacked as (N,3,4) and the dual quadrics
Q* = Q^-1 as (M,4,4); two stacked matmuls form every dual conic
Phi* = P Q* P^T (Hartley & Zisserman, Multiple View Geometry, sec. 8.3).
The silhouette conic Phi = (Phi*)^-1 is built in closed form from the nine
cofactors of Phi*: their expansion along the first row is det Phi*, and
their transpose is the adjugate, Phi up to the factor 1/det that the
conic's normalization drops anyway.  The conics are formed in pixel
coordinates taken from the principal point, where a camera aimed at the
object sees it near the origin, so the cofactors lose fewer digits: on the
select benchmark's seed-3 snapshots the semi-axes agree with an
extended-precision evaluation to 1e-14 of the major axis, where an LU
inverse of the conics in pixel coordinates agreed to 5e-13.  Each conic's center, semi-axes and
bounding box follow in closed form from its entries; the orientation is
needed only where the silhouette crosses the image border.

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
from .geometry import CameraIntrinsics
from .views import Candidates, CandidateView, as_candidates


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


def project(
    rotations: np.ndarray, positions: np.ndarray, ellipsoids: list[Ellipsoid], intrinsics: CameraIntrinsics
):
    """Silhouette of every ellipsoid in every view, as arrays over (view, ellipsoid) pairs.

    The N views are given by their camera-to-world rotations (N,3,3) and
    camera centers (N,3).  Returns `(cam_z, conic, center, axes, area)`
    with shapes (N,M), (N,M,3,3), (N,M,2), (N,M,2) and (N,M): the
    camera-frame depth of each ellipsoid center, the conic in pixel
    coordinates (of arbitrary scale, with a positive definite 2x2 block),
    the ellipse center (u, v) and semi-axes (major first) in px, and its
    area inside the image in px^2.  Pairs that project to no real ellipse
    have NaN conic, center and axes and zero area.
    """
    rot_t = rotations.transpose(0, 2, 1)  # world-to-camera
    focal = np.diag([intrinsics.fx, intrinsics.fy, 1.0])  # K with the principal point at 0
    cameras = focal @ np.concatenate([rot_t, -rot_t @ positions[:, :, None]], axis=2)
    centers = np.array([e.center for e in ellipsoids])
    cam_z = np.einsum("nmj,nj->nm", centers[None] - positions[:, None], rotations[:, :, 2])
    # P Q*: one (3N,4) @ (4,4) product per ellipsoid; then (P Q*) P^T per pair
    dual = cameras.reshape(-1, 4) @ np.array([e.quadric_inv for e in ellipsoids])
    dual = dual.reshape(len(ellipsoids), len(positions), 3, 4) @ cameras.transpose(0, 2, 1)
    d00, d01, d02, d10, d11, d12, d20, d21, d22 = dual.reshape(*dual.shape[:2], 9).T  # each (N,M)

    # Invalid pairs run through the same arithmetic and are masked at the end.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c00, c01, c02 = d11 * d22 - d12 * d21, d12 * d20 - d10 * d22, d10 * d21 - d11 * d20
        c10, c11, c12 = d02 * d21 - d01 * d22, d00 * d22 - d02 * d20, d01 * d20 - d00 * d21
        c20, c21, c22 = d01 * d12 - d02 * d11, d02 * d10 - d00 * d12, d00 * d11 - d01 * d10
        det = d00 * c00 + d01 * c01 + d02 * c02
        valid = (cam_z > 0.0) & np.isfinite(det) & (np.abs(det) >= 1e-300)
        # The conic [[a, h, bu], [h, c, bv], [bu, bv, k]] is adj + adj^T = C + C^T,
        # the symmetrized inverse times det, scaled to a largest entry of 1 and
        # a 2x2 block of positive trace.
        entries = (2.0 * c00, c01 + c10, 2.0 * c11, c02 + c20, c12 + c21, 2.0 * c22)
        scale = np.where(entries[0] + entries[2] < 0, -1.0, 1.0) / np.maximum.reduce(np.abs(entries))
        a, h, c, bu, bv, k = (x * scale for x in entries)

        det_m = a * c - h * h
        u, v = (h * bv - c * bu) / det_m, (h * bu - a * bv) / det_m  # center about (cx, cy)
        f0 = k + bu * u + bv * v
        # not a hyperbola or parabola (det_m, a), not an imaginary ellipse (f0)
        valid &= (det_m > 0) & (a > 0) & (f0 < 0)
        big = 0.5 * (a + c) + np.hypot(0.5 * (a - c), h)  # eigenvalues: det_m / big <= big
        axes = np.sqrt(-f0[..., None] / np.stack([det_m / big, big], axis=-1))
        # half extents of the bounding box: sqrt(-f0 (M^-1)_uu), sqrt(-f0 (M^-1)_vv)
        half = np.sqrt(-f0[..., None] / det_m[..., None] * np.stack([c, a], axis=-1))

        # back to pixel coordinates: x = x_pixel - (cx, cy)
        cx, cy = intrinsics.cx, intrinsics.cy
        center = np.stack([u + cx, v + cy], axis=-1)
        pu, pv = bu - a * cx - h * cy, bv - h * cx - c * cy
        pk = k - (bu + pu) * cx - (bv + pv) * cy
        conic = np.stack([a, h, pu, h, c, pv, pu, pv, pk], axis=-1).reshape(*cam_z.shape, 3, 3)

    conic[~valid] = np.nan
    center[~valid] = np.nan
    axes[~valid] = np.nan
    far = np.array([intrinsics.width - 0.5, intrinsics.height - 0.5])
    inside = ((center - half) >= -0.5).all(axis=-1) & ((center + half) <= far).all(axis=-1)
    outside = ((center + half) <= -0.5).any(axis=-1) | ((center - half) >= far).any(axis=-1)
    area = np.where(inside, np.pi * axes[..., 0] * axes[..., 1], 0.0)
    border = valid & ~inside & ~outside
    if border.any():
        orientation = 0.5 * np.arctan2(-2.0 * h[border], c[border] - a[border])  # major axis vs +u
        area[border] = _border_area(center[border], axes[border], orientation, intrinsics)
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
    candidates: Candidates | list[CandidateView],
    occupied: list[Ellipsoid],
    frontier: list[Ellipsoid],
    intrinsics: CameraIntrinsics,
) -> np.ndarray:
    """F of every candidate: weighted frontier area minus weighted occupied area.

    Returns the (N,) array of F in candidate order.  A `Candidates` set's
    rotation and position arrays go to `project` as they are, and F is
    stored in its `scores`; a list of `CandidateView` records is stacked by
    `as_candidates` and each record's `score` is set.
    """
    if not candidates:
        raise ValueError("evaluate_all requires candidates")
    views = as_candidates(candidates)
    ellipsoids = [*occupied, *frontier]
    n = len(occupied)
    scores = np.zeros(len(views))
    if ellipsoids:
        cam_z, _, _, _, area = project(views.rotations, views.positions, ellipsoids, intrinsics)
        mass = area * depth_weights(cam_z, n, np.array([e.cluster_index for e in ellipsoids]))
        scores = mass[:, n:].sum(axis=1) - mass[:, :n].sum(axis=1)
    views.scores[:] = scores
    if views is not candidates:
        for v, f in zip(candidates, scores.tolist()):
            v.score = f
    return scores
