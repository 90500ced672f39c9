"""Synthetic depth camera: nearest-hit ray casting against a triangle mesh.

Each pixel's value is the Euclidean range (m) to the closest intersection of
its viewing ray with the mesh, +inf when nothing is hit within max_range.
The per-(ray, triangle) test is the parametric Moller-Trumbore form with a
1e-9 determinant epsilon.  A triangle is tested only against the pixels of
its screen box, the bounding box of its projected corners, which skips only
rays that provably miss; a triangle with a corner at or behind the camera
plane has an unbounded projection and is tested against the whole image.

No Python code runs per triangle.  A box taller than one pass allows is
cut into row bands (`_bands`).  Each box smaller than half a pass is padded
up to a size class (`_padded`), the boxes are grouped by padded shape, and
each group is tested in broadcast passes of shape (F, H, W): per-triangle
scalars are (F, 1, 1) and the ray-direction windows (F, 1, W) and
(F, H, 1).  A pass holds at most `_PASS_PAIRS` (triangle, pixel) pairs,
which bounds the temporaries.  Padded cells outside a triangle's own box get
NaN rays, which never hit.  The passes keep each pixel's nearest ray
parameter t (`np.minimum.at`), and after them each hit becomes its range
t * |d| once, by `CameraIntrinsics.ray_length`.  Every pair runs the same
float operations in the same order as a loop over one triangle at a time,
and a minimum does not depend on the order of its inputs.  All of a pixel's
hits share its |d| > 0, and rounded multiplication by it is monotone, so
the range of the nearest t is the nearest range: the image equals the
loop's bit for bit (`tests/scalar_reference.render_depth_loop`).
"""

from __future__ import annotations

import logging

import numpy as np

from .geometry import CameraIntrinsics, DepthFrame, Pose
from .mesh import TriangleMesh

DET_EPS = 1e-9       # Moller-Trumbore determinant cutoff
BARY_EPS = 1e-10     # inclusive edge margin so shared edges are hit from both sides
T_MIN = 1e-9         # reject hits at/behind the camera origin

_PASS_PAIRS = 1 << 14  # (triangle, pixel) pairs per broadcast pass

log = logging.getLogger("nbvplan")


def _octave(size: np.ndarray) -> np.ndarray:
    """floor(log2(size)) for integer sizes >= 1."""
    return np.frexp(size)[1] - 1


def _padded(size: np.ndarray, limit: int) -> np.ndarray:
    """Box sizes rounded up to their size class, at most `limit`.

    A class keeps the two leading binary digits of a size, two classes per
    octave: 1, 2, 3, 4, 6, 8, 12, 16, 24, ...
    """
    step = np.left_shift(1, np.maximum(_octave(size) - 1, 0))
    return np.minimum(-(-size // step) * step, limit)


def _screen_boxes(tri_cam: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Half-open pixel box (r0, r1, c0, c1) per camera-frame triangle (F, 3, 3).

    The box is clipped to the image and is empty (r0 >= r1 or c0 >= c1) when
    the triangle projects outside it.
    """
    h, w = intrinsics.height, intrinsics.width
    boxes = np.tile(np.array([0, h, 0, w]), (len(tri_cam), 1))
    bounded = (tri_cam[:, :, 2] > T_MIN).all(axis=1)
    tri = tri_cam[bounded]
    u = intrinsics.fx * tri[:, :, 0] / tri[:, :, 2] + intrinsics.cx
    v = intrinsics.fy * tri[:, :, 1] / tri[:, :, 2] + intrinsics.cy
    boxes[bounded, 0] = np.clip(np.floor(v.min(axis=1)), 0, h)
    boxes[bounded, 1] = np.clip(np.ceil(v.max(axis=1)) + 1, 0, h)
    boxes[bounded, 2] = np.clip(np.floor(u.min(axis=1)), 0, w)
    boxes[bounded, 3] = np.clip(np.ceil(u.max(axis=1)) + 1, 0, w)
    return boxes


def _bands(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each box (r0, r1, c0, c1) into row bands of at most `_PASS_PAIRS`
    pixels (one row at least).

    Returns each band's box and the index of the box it came from.  A full
    band is a power of two rows tall, which is its own size class.
    """
    width = boxes[:, 3] - boxes[:, 2]
    rows_per_band = np.left_shift(1, _octave(np.maximum(_PASS_PAIRS // width, 1)))
    n_bands = -(-(boxes[:, 1] - boxes[:, 0]) // rows_per_band)
    source = np.repeat(np.arange(len(boxes)), n_bands)
    band = np.arange(len(source)) - np.repeat(np.cumsum(n_bands) - n_bands, n_bands)
    out = boxes[source]
    out[:, 0] += band * rows_per_band[source]
    out[:, 1] = np.minimum(out[:, 0] + rows_per_band[source], out[:, 1])
    return out, source


def _hit_pass(tri: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moller-Trumbore for n triangles (n, 3, 3) against their ray windows.

    `dx` (n, 1, W) and `dy` (n, H, 1) are the rays' x and y directions
    (z = 1); a NaN direction never hits.  Returns the hit mask and the ray
    parameter t, both (n, H, W).  The in-place steps compute the same
    values as the expressions in their comments.
    """
    v0 = tri[:, 0, :, None, None]
    e1 = tri[:, 1, :, None, None] - v0
    e2 = tri[:, 2, :, None, None] - v0
    # pvec = cross(d, e2) with d = (dx, dy, 1)
    px = dy * e2[:, 2] - e2[:, 1]
    py = e2[:, 0] - dx * e2[:, 2]
    pz = dx * e2[:, 1] - dy * e2[:, 0]
    det = e1[:, 0] * px + e1[:, 1] * py
    tmp = np.multiply(e1[:, 2], pz)
    det += tmp                                       # det = e1 . pvec
    with np.errstate(divide="ignore"):
        inv_det = np.divide(1.0, det)
    inv_det[np.abs(det, out=tmp) <= DET_EPS] = np.nan

    tx, ty, tz = -v0[:, 0], -v0[:, 1], -v0[:, 2]  # tvec = origin - v0, origin = 0
    bu = np.add(tx * px, ty * py, out=tmp)
    bu += np.multiply(tz, pz, out=pz)
    bu *= inv_det                                    # bu = (tvec . pvec) / det
    # qvec = cross(tvec, e1)
    qx = ty * e1[:, 2] - tz * e1[:, 1]
    qy = tz * e1[:, 0] - tx * e1[:, 2]
    qz = tx * e1[:, 1] - ty * e1[:, 0]
    bv = np.add(dx * qx, dy * qy, out=pz)
    bv += qz
    bv *= inv_det                                    # bv = (d . qvec) / det
    t = np.multiply(e2[:, 0] * qx + e2[:, 1] * qy + e2[:, 2] * qz, inv_det, out=det)

    hit = bu >= -BARY_EPS
    hit &= bv >= -BARY_EPS
    hit &= np.add(bu, bv, out=bu) <= 1.0 + BARY_EPS
    hit &= t > T_MIN
    return hit, t


def render_depth(
    mesh: TriangleMesh,
    pose: Pose,
    intrinsics: CameraIntrinsics,
    noise_sigma: float = 0.0,
    noise_seed: int = 0,
) -> DepthFrame:
    """Render a range image from `pose`.  Deterministic for fixed inputs.

    The passes keep each pixel's nearest ray parameter t; each hit becomes
    range t * |d| once, before the `max_range` cut, which the module
    docstring shows is the nearest range.  `noise_sigma` > 0 adds Gaussian
    range noise (m) to hit pixels; the default 0 keeps rendering exact.
    """
    if not np.isfinite(mesh.vertices).all():
        raise ValueError("mesh vertices must be finite")
    h, w = intrinsics.height, intrinsics.width
    depth = np.full((h, w), np.inf)
    dir_x, dir_y = intrinsics.ray_axes()

    tri_cam = pose.world_to_camera(mesh.vertices)[mesh.triangles]  # (F, 3, 3)
    tri_cam = tri_cam[(tri_cam[:, :, 2] > T_MIN).any(axis=1)]
    n_front = len(tri_cam)
    boxes = _screen_boxes(tri_cam, intrinsics)
    on_screen = (boxes[:, 0] < boxes[:, 1]) & (boxes[:, 2] < boxes[:, 3])
    boxes, source = _bands(boxes[on_screen])
    tri_cam = tri_cam[on_screen][source]

    # A window that fills more than half a pass shares it with no other, so
    # it keeps its box's size.  Each window starts at its box, moved back to
    # fit in the image.
    box_h, box_w = boxes[:, 1] - boxes[:, 0], boxes[:, 3] - boxes[:, 2]
    win_h, win_w = _padded(box_h, h), _padded(box_w, w)
    alone = 2 * win_h * win_w > _PASS_PAIRS
    win_h[alone], win_w[alone] = box_h[alone], box_w[alone]
    row0 = np.minimum(boxes[:, 0], h - win_h)
    col0 = np.minimum(boxes[:, 2], w - win_w)
    order = np.lexsort((win_w, win_h))
    shape_changes = (np.diff(win_h[order]) != 0) | (np.diff(win_w[order]) != 0)
    groups = np.split(order, np.flatnonzero(shape_changes) + 1) if len(order) else []

    pairs = 0
    flat_depth = depth.reshape(-1)
    for group in groups:
        gh, gw = int(win_h[group[0]]), int(win_w[group[0]])
        rows = row0[group, None] + np.arange(gh)
        cols = col0[group, None] + np.arange(gw)
        # Padded cells outside a window's own box get NaN rays, which miss.
        box = boxes[group]
        dy = np.where((rows >= box[:, 0:1]) & (rows < box[:, 1:2]), dir_y[rows], np.nan)
        dx = np.where((cols >= box[:, 2:3]) & (cols < box[:, 3:4]), dir_x[cols], np.nan)
        step = max(1, _PASS_PAIRS // (gh * gw))
        for start in range(0, len(group), step):
            part = slice(start, start + step)
            hit, t = _hit_pass(tri_cam[group[part]], dx[part, None, :], dy[part, :, None])
            pairs += hit.size
            k = np.flatnonzero(hit)
            pix = ((rows[part] * w)[:, :, None] + cols[part, None, :]).reshape(-1)[k]
            np.minimum.at(flat_depth, pix, t.reshape(-1)[k])

    # Hit pixels' x and y in row-major order: a row's y once per hit in it.
    hit_pixels = np.isfinite(depth)
    hit_x = np.broadcast_to(dir_x, depth.shape)[hit_pixels]
    hit_y = np.repeat(dir_y, np.count_nonzero(hit_pixels, axis=1))
    depth[hit_pixels] *= intrinsics.ray_length(hit_x, hit_y)
    depth[depth > intrinsics.max_range] = np.inf
    finite = np.isfinite(depth)
    log.debug(
        "render_depth: %d triangles in front, %d groups, %d pairs tested, %d hit pixels",
        n_front, len(groups), pairs, np.count_nonzero(finite),
    )
    if noise_sigma > 0.0:
        rng_gen = np.random.default_rng(noise_seed)
        noise = rng_gen.normal(0.0, noise_sigma, size=depth.shape)
        depth[finite] = np.clip(depth[finite] + noise[finite], T_MIN, intrinsics.max_range)
    return DepthFrame(depths=depth, pose=pose, intrinsics=intrinsics)


def frame_to_points(frame: DepthFrame) -> np.ndarray:
    """World-space point per finite-depth pixel (N, 3), in row-major pixel order:
    the pixel's `CameraIntrinsics.pixel_rays` direction times its depth."""
    flat = np.flatnonzero(frame.hit_mask)
    rows, cols = np.divmod(flat, frame.intrinsics.width)
    depth = frame.depths.reshape(-1)[flat]
    return frame.pose.camera_to_world(frame.intrinsics.pixel_rays(rows, cols) * depth[:, None])
