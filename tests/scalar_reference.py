"""Scalar reference implementations that the batched code must reproduce.

`look_at`, `sample_candidates` and `assign_partitions` are the per-view
loops that `geometry.look_at_many` and the array pass in `views` replace;
the batched results must equal them bit for bit.  `clipped_ellipse_area`
clips one ellipse's 256-gon against the image rectangle with
Sutherland-Hodgman and sums the shoelace formula, the per-pair method that
the batched border clip in `projection.project` replaces.
`rasterized_ellipse_area` counts the pixels inside a conic, an independent
check on both.
"""

import numpy as np

from nbvplan.geometry import CameraIntrinsics, Pose
from nbvplan.projection import ELLIPSE_SEGMENTS
from nbvplan.views import _GOLDEN_ANGLE, CandidateView, SamplingConfig, _parallel_counts, _up_basis


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


def sample_candidates(config: SamplingConfig, center, radius: float) -> list[CandidateView]:
    center = np.asarray(center, dtype=float).reshape(3)
    lo, hi = config.polar_range
    polars = np.linspace(lo, hi, config.alpha)
    counts = _parallel_counts(polars, config.n_views)
    basis = _up_basis(config.up_axis)

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
            position = center + radius * (basis @ local)
            pose = look_at(position, center, config.up_axis)
            views.append(CandidateView(pose=pose, radius=radius, polar=polar, azimuth=azimuth))
    return views


def assign_partitions(views: list[CandidateView], beta: int) -> list[CandidateView]:
    width = 2.0 * np.pi / beta
    for v in views:
        v.partition_index = min(int(v.azimuth // width), beta - 1)
    return views


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


def clipped_ellipse_area(center, axes, orientation, intrinsics: CameraIntrinsics) -> float:
    """Area of an ellipse's 256-gon inside [-0.5, W-0.5] x [-0.5, H-0.5] (px^2)."""
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
