"""Projection-based viewpoint scoring.

Each ellipsoid is projected independently onto the image plane through its
dual quadric: Phi* = P Q^-1 P^T with P = K [R|t], and the silhouette conic is
Phi = (Phi*)^-1.  Ellipsoids are jointly depth-ranked by the camera-frame z
of their centers; the r-th nearest gets observability weight 0.5^r (nearest
has rank 0, weight 1).  A view's quality is the weighted projected area of
frontier ellipsoids minus that of occupied ones.

Projected area L is the analytic area of the conic's ellipse clipped to the
image rectangle (256-segment polygon, Sutherland-Hodgman, shoelace); a
rasterized pixel count is available for cross-checking.  Projections that
are not real ellipses (camera inside or tangent to the ellipsoid) and
centers at or behind the principal plane contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ellipsoid import Ellipsoid
from .geometry import CameraIntrinsics, Pose
from .views import CandidateView

ELLIPSE_SEGMENTS = 256
_KIND_ORDER = {"occupied": 0, "frontier": 1}


@dataclass
class ProjectedEllipse:
    conic: np.ndarray | None       # 3x3 homogeneous conic, None when invalid
    center: np.ndarray | None      # (u, v) px
    semi_axes: tuple[float, float] | None  # (a, b) px, major first
    orientation: float | None      # rad, major axis vs +u
    clipped_area: float            # px^2, inside the image rectangle
    valid: bool


@dataclass
class RankedEllipsoid:
    ellipsoid: Ellipsoid
    camera_z: float
    rank: int
    weight: float  # 0.5 ** rank


@dataclass
class ViewScore:
    f_value: float
    frontier_mass: float
    occupied_mass: float


def rank_ellipsoids(ellipsoids: list[Ellipsoid], pose: Pose) -> list[RankedEllipsoid]:
    """Joint depth order of all ellipsoid centers in camera coordinates.

    Rank 0 is the nearest (smallest camera z).  Equal depths break occupied
    before frontier, then by ascending cluster index.
    """
    if not ellipsoids:
        return []
    centers = np.array([e.center for e in ellipsoids])
    cam_z = pose.world_to_camera(centers)[:, 2]
    order = sorted(
        range(len(ellipsoids)),
        key=lambda i: (
            cam_z[i],
            _KIND_ORDER.get(ellipsoids[i].kind, 2),
            ellipsoids[i].cluster_index,
        ),
    )
    return [
        RankedEllipsoid(
            ellipsoid=ellipsoids[i],
            camera_z=float(cam_z[i]),
            rank=r,
            weight=0.5**r,
        )
        for r, i in enumerate(order)
    ]


def _conic_to_ellipse(phi: np.ndarray):
    """Decompose a conic into (center, semi-axes, orientation); None if not an ellipse."""
    m = phi[:2, :2]
    if np.trace(m) < 0:  # normalize sign so an ellipse has positive definite M
        phi = -phi
        m = phi[:2, :2]
    det_m = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det_m <= 0 or m[0, 0] <= 0:
        return None  # hyperbola or parabola
    b = phi[:2, 2]
    center = -np.linalg.solve(m, b)
    f0 = float(phi[2, 2] + b @ center)
    if f0 >= 0:
        return None  # imaginary ellipse (no real points)
    evals, evecs = np.linalg.eigh(m)
    axes = np.sqrt(-f0 / evals)  # descending (evals ascending)
    major_vec = evecs[:, 0]
    orientation = float(np.arctan2(major_vec[1], major_vec[0]))
    return center, (float(axes[0]), float(axes[1])), orientation


def _ellipse_polygon(center, axes, orientation, segments=ELLIPSE_SEGMENTS) -> np.ndarray:
    t = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    c, s = np.cos(orientation), np.sin(orientation)
    x = axes[0] * np.cos(t)
    y = axes[1] * np.sin(t)
    return np.column_stack([center[0] + c * x - s * y, center[1] + s * x + c * y])


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
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (bound - vals) / (vals[nxt] - vals)
    cross_pts = poly + t[:, None] * (poly[nxt] - poly)

    # Per input vertex emit: the vertex itself (if inside), then the edge
    # crossing point (if its outgoing edge crosses the boundary).
    counts = inside.astype(int) + crossing.astype(int)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out = np.empty((int(counts.sum()), 2))
    out[starts[inside]] = poly[inside]
    out[starts[crossing] + inside[crossing]] = cross_pts[crossing]
    return out


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clipped_ellipse_area(center, axes, orientation, intrinsics: CameraIntrinsics) -> float:
    """Ellipse area inside the image rectangle.

    The image spans [-0.5, width-0.5] x [-0.5, height-0.5] so that pixel
    centers sit at integer coordinates; fully inside ellipses take the exact
    pi*a*b path.
    """
    u0, u1 = -0.5, intrinsics.width - 0.5
    v0, v1 = -0.5, intrinsics.height - 0.5
    # conservative ellipse bbox: half extents of a rotated ellipse
    c, s = np.cos(orientation), np.sin(orientation)
    half_u = np.hypot(axes[0] * c, axes[1] * s)
    half_v = np.hypot(axes[0] * s, axes[1] * c)
    if (
        center[0] - half_u >= u0
        and center[0] + half_u <= u1
        and center[1] - half_v >= v0
        and center[1] + half_v <= v1
    ):
        return float(np.pi * axes[0] * axes[1])
    if (
        center[0] + half_u <= u0
        or center[0] - half_u >= u1
        or center[1] + half_v <= v0
        or center[1] - half_v >= v1
    ):
        return 0.0
    poly = _ellipse_polygon(center, axes, orientation)
    poly = _clip_polygon_axis(poly, 0, u0, keep_less=False)
    poly = _clip_polygon_axis(poly, 0, u1, keep_less=True)
    poly = _clip_polygon_axis(poly, 1, v0, keep_less=False)
    poly = _clip_polygon_axis(poly, 1, v1, keep_less=True)
    return _polygon_area(poly)


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


def project_ellipsoid(
    ellipsoid: Ellipsoid, pose: Pose, intrinsics: CameraIntrinsics
) -> ProjectedEllipse:
    """Dual-quadric projection of one ellipsoid onto the image plane."""
    cam_z = float(pose.world_to_camera(ellipsoid.center[None, :])[0, 2])
    if cam_z <= 0.0:
        return ProjectedEllipse(None, None, None, None, 0.0, valid=False)

    p = pose.projection_matrix(intrinsics)
    phi_star = p @ ellipsoid.quadric_inv @ p.T
    det = np.linalg.det(phi_star)
    if abs(det) < 1e-300 or not np.isfinite(det):
        return ProjectedEllipse(None, None, None, None, 0.0, valid=False)
    phi = np.linalg.inv(phi_star)
    phi = 0.5 * (phi + phi.T)
    # scale-normalize for well-conditioned downstream math
    scale = np.abs(phi).max()
    if scale > 0:
        phi = phi / scale

    parts = _conic_to_ellipse(phi)
    if parts is None:
        return ProjectedEllipse(None, None, None, None, 0.0, valid=False)
    center, axes, orientation = parts
    area = clipped_ellipse_area(center, axes, orientation, intrinsics)
    return ProjectedEllipse(
        conic=phi,
        center=center,
        semi_axes=axes,
        orientation=orientation,
        clipped_area=float(area),
        valid=True,
    )


def weighted_mass(ellipse: ProjectedEllipse, weight: float) -> float:
    """L_hat = L * W; invalid projections contribute zero."""
    if not (0.0 < weight <= 1.0):
        raise ValueError("weight must be in (0, 1]")
    if not ellipse.valid:
        return 0.0
    return ellipse.clipped_area * weight


def evaluate_view(
    view: CandidateView,
    occupied: list[Ellipsoid],
    frontier: list[Ellipsoid],
    intrinsics: CameraIntrinsics,
) -> ViewScore:
    """F = sum of weighted frontier projections minus weighted occupied ones."""
    ranked = rank_ellipsoids(list(occupied) + list(frontier), view.pose)
    f_mass = 0.0
    o_mass = 0.0
    for r in ranked:
        proj = project_ellipsoid(r.ellipsoid, view.pose, intrinsics)
        lhat = weighted_mass(proj, r.weight)
        if r.ellipsoid.kind == "frontier":
            f_mass += lhat
        else:
            o_mass += lhat
    score = ViewScore(f_value=f_mass - o_mass, frontier_mass=f_mass, occupied_mass=o_mass)
    view.score = score.f_value
    return score


def evaluate_all(
    candidates: list[CandidateView],
    occupied: list[Ellipsoid],
    frontier: list[Ellipsoid],
    intrinsics: CameraIntrinsics,
) -> list[ViewScore]:
    """Score every candidate; order preserved, results independent per view."""
    if not candidates:
        raise ValueError("evaluate_all requires candidates")
    return [evaluate_view(v, occupied, frontier, intrinsics) for v in candidates]
