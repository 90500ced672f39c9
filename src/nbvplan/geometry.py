"""Camera geometry primitives: intrinsics, rigid poses, look-at construction.

Coordinate conventions (OpenCV style): camera +x right, +y down, +z forward.
Pixel (row r, col c) has continuous image coordinates (u, v) = (c, r), so the
principal point (cx, cy) lies exactly on the pixel with those indices when
they are integers.  Poses are camera-to-world transforms.

`look_at_many` builds the rotations of a whole batch of views in one array
pass and checks them once, as an (N,3,3) stack, against the same test a
single `Pose` applies: every entry of R^T R - I within `ORTHONORMAL_TOL` and
det R within 1e-6 of +1.  It returns the checked stack; `look_at` wraps its
one row in a `Pose`.  Every dot product and norm is a stacked
(N,1,3) @ (N,3,1) matmul, which reduces each row exactly as `np.dot` does
one vector, so a batched rotation is bit-identical to the one the same view
gets on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ORTHONORMAL_TOL = 1e-9


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera parameters plus the sensor's working envelope.  Pixel
    (r, c) looks along d = (x, y, 1) from `ray_axes`, of length `ray_length`."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    max_range: float               # depth cutoff (m)
    working_distance: float = 0.4  # optimal standoff d_c (m)

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def ray_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis tables of the camera-frame ray direction (x, y, 1) through
        pixel (row r, col c): x = (c - cx)/fx per column, y = (r - cy)/fy per row."""
        return (
            (np.arange(self.width, dtype=float) - self.cx) / self.fx,
            (np.arange(self.height, dtype=float) - self.cy) / self.fy,
        )

    @staticmethod
    def ray_length(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The length rule: |d| of each direction d = (x, y, 1) from `ray_axes`."""
        return np.sqrt(x * x + y * y + 1.0)

    def pixel_rays(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Unit direction in camera coordinates through each (row, col) pixel.

        `rows` and `cols` are integer index arrays of any shapes that
        broadcast together, such as `np.indices` gives; the result has their
        shape plus a last axis of 3.  The direction (x, y, 1) is gathered
        from `ray_axes` and divided by its `ray_length`.
        """
        x_of, y_of = self.ray_axes()
        x, y = x_of[cols], y_of[rows]
        norm = self.ray_length(x, y)
        rays = np.empty(norm.shape + (3,))
        np.divide(x, norm, out=rays[..., 0])
        np.divide(y, norm, out=rays[..., 1])
        np.divide(1.0, norm, out=rays[..., 2])
        return rays


@dataclass(frozen=True)
class Pose:
    """Rigid camera-to-world transform H = [R | t]."""

    rotation: np.ndarray     # 3x3, orthonormal, det +1
    translation: np.ndarray  # 3-vector (m)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        _check_rotations(r[None])

    @property
    def optical_axis(self) -> np.ndarray:
        """Viewing direction (+z of the camera) in world coordinates."""
        return self.rotation[:, 2].copy()

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Map world points (N,3) into camera coordinates."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return (p - self.translation) @ self.rotation

    def camera_to_world(self, points: np.ndarray) -> np.ndarray:
        """Map camera-frame points (N,3) into world coordinates."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return p @ self.rotation.T + self.translation


def _check_rotations(rotations: np.ndarray) -> None:
    """Raise unless every (3,3) matrix of the stack is a proper rotation."""
    gram = rotations.transpose(0, 2, 1) @ rotations
    if not (np.abs(gram - np.eye(3)) <= ORTHONORMAL_TOL).all():
        raise ValueError("rotation is not orthonormal")
    x, y, z = rotations[:, :, 0], rotations[:, :, 1], rotations[:, :, 2]
    det = (np.cross(x, y) * z).sum(axis=1)  # the triple product (x cross y) . z
    if not (np.abs(det - 1.0) <= 1e-6).all():
        raise ValueError("rotation must have determinant +1")


def _checked_pose(rotation: np.ndarray, translation: np.ndarray) -> Pose:
    """A `Pose` around a rotation `_check_rotations` has already accepted."""
    pose = object.__new__(Pose)
    object.__setattr__(pose, "rotation", rotation)
    object.__setattr__(pose, "translation", translation)
    return pose


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (N,3) stacks (either may be one broadcast row)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def spherical_direction(polar, azimuth) -> np.ndarray:
    """Unit vectors (sin p cos a, sin p sin a, cos p), stacked on a new last axis.

    The polar angle p is measured from +z and the azimuth a in the x-y plane
    from +x toward +y; `polar` and `azimuth` broadcast against each other.
    """
    sin_polar = np.sin(polar)
    components = sin_polar * np.cos(azimuth), sin_polar * np.sin(azimuth), np.cos(polar)
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def look_at_many(positions: np.ndarray, target: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Camera-to-world rotations (N,3,3) at each row of `positions` (N,3), aimed at `target`.

    Roll is pinned so the in-image up direction is the projection of `up`
    onto the image plane; when a view is parallel to `up` the world x axis
    is used instead.  The stack is checked once, so a `Pose` around any of
    its rows needs no second check (`_checked_pose`).
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    target = np.asarray(target, dtype=float).reshape(3)
    up = np.asarray(up, dtype=float).reshape(3)

    forward = target - positions
    norm = np.sqrt(_dots(forward, forward))
    if (norm == 0.0).any():
        raise ValueError("camera position coincides with the look-at target")
    z = forward / norm[:, None]

    up_proj = up - _dots(up, z)[:, None] * z
    parallel = np.sqrt(_dots(up_proj, up_proj)) < 1e-8
    if parallel.any():
        fallback = np.array([1.0, 0.0, 0.0])
        zp = z[parallel]
        up_proj[parallel] = fallback - _dots(fallback, zp)[:, None] * zp
    up_proj /= np.sqrt(_dots(up_proj, up_proj))[:, None]

    y = -up_proj            # camera +y points down in the image
    x = np.cross(y, z)
    rotations = np.stack([x, y, z], axis=2)
    _check_rotations(rotations)
    return rotations


def look_at(position: np.ndarray, target: np.ndarray, up: np.ndarray) -> Pose:
    """Camera pose at `position` with +z aimed at `target` (see `look_at_many`)."""
    position = np.asarray(position, dtype=float).reshape(3)
    return _checked_pose(look_at_many(position[None], target, up)[0], position)


@dataclass
class DepthFrame:
    """Per-pixel range image (m).  Misses are stored as +inf."""

    depths: np.ndarray  # (height, width), finite values in (0, max_range]
    pose: Pose
    intrinsics: CameraIntrinsics

    hit_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        self.depths = np.asarray(self.depths, dtype=float)
        expected = (self.intrinsics.height, self.intrinsics.width)
        if self.depths.shape != expected:
            raise ValueError(f"depth image shape {self.depths.shape} != {expected}")
        self.hit_mask = np.isfinite(self.depths)
