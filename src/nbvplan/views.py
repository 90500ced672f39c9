"""Candidate viewpoint generation on a dynamically sized sampling sphere.

Views live on `alpha` equally spaced parallels of a partial sphere around
the bounding-box center, with per-parallel counts proportional to
circumference (largest-remainder rounding) and all optical axes aimed at the
center.  The world up axis is +z: polar angles are measured from it, and
azimuth lies in the x-y plane, counted from +x toward +y;
`geometry.spherical_direction` turns the two angles into a direction.  The
sphere radius is the camera working distance plus half the bounding-box
diagonal, so it tracks the box as the scan grows.

Every view's ring, azimuth, polar angle and position is computed in one array
pass, and `geometry.look_at_many` builds and checks all the rotations at
once; `assign_partitions` bins every azimuth with one array floor.  The
result is still one `CandidateView` per view, identical bit for bit to a
view built on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose, look_at_many, spherical_direction

UP = np.array([0.0, 0.0, 1.0])  # world up axis

# Polar extent per sampling mode, measured from the up axis; the hemisphere
# cap stays clear of the pole singularity and of grazing views near the equator.
POLAR_RANGES = {
    "hemisphere": (np.deg2rad(15.0), np.deg2rad(85.0)),
    "full_sphere": (np.deg2rad(15.0), np.deg2rad(165.0)),
}

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))  # per-parallel azimuth phase step


@dataclass
class SamplingConfig:
    mode: str = "full_sphere"          # a POLAR_RANGES key
    alpha: int = 8                     # parallel count
    n_views: int = 800                 # total candidates
    working_distance: float = 0.4      # d_c (m)

    def __post_init__(self):
        if self.mode not in POLAR_RANGES:
            raise ValueError(f"mode must be one of {tuple(POLAR_RANGES)}, got {self.mode!r}")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.n_views < self.alpha:
            raise ValueError(
                f"need at least one view per parallel: {self.n_views} candidates < alpha {self.alpha}"
            )

    @property
    def polar_range(self) -> tuple[float, float]:
        return POLAR_RANGES[self.mode]


@dataclass
class CandidateView:
    pose: Pose
    radius: float            # distance to the bbox center (m)
    polar: float             # rad, from the up axis
    azimuth: float           # rad, in [0, 2*pi)
    partition_index: int = -1
    score: float | None = None

    @property
    def position(self) -> np.ndarray:
        return self.pose.translation


def sampling_radius(bbox: tuple[np.ndarray, np.ndarray], working_distance: float) -> float:
    """R = d_c + half the bbox diagonal."""
    bmin, bmax = (np.asarray(b, dtype=float) for b in bbox)
    return float(working_distance + 0.5 * np.linalg.norm(bmax - bmin))


def _parallel_counts(polars: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder apportionment proportional to parallel circumference."""
    weights = np.sin(polars)
    weights = np.maximum(weights, 1e-12)
    quota = total * weights / weights.sum()
    counts = np.floor(quota).astype(int)
    remainder = total - counts.sum()
    order = np.argsort(-(quota - counts), kind="stable")  # ties -> lower index
    counts[order[:remainder]] += 1
    return counts


def sample_candidates(
    config: SamplingConfig, center: np.ndarray, radius: float
) -> list[CandidateView]:
    """Generate candidate views on the sampling sphere, all looking at `center`."""
    if radius <= 0:
        raise ValueError("sampling radius must be positive")
    center = np.asarray(center, dtype=float).reshape(3)
    lo, hi = config.polar_range
    polars = np.linspace(lo, hi, config.alpha)
    counts = _parallel_counts(polars, config.n_views)

    ring = np.repeat(np.arange(config.alpha), counts)
    count = counts[ring]
    k = np.arange(len(ring)) - np.repeat(np.cumsum(counts) - counts, counts)
    phase = (ring * _GOLDEN_ANGLE) % (2.0 * np.pi)
    azimuth = (phase + 2.0 * np.pi * k / count) % (2.0 * np.pi)
    polar = polars[ring]
    positions = center + radius * spherical_direction(polar, azimuth)
    poses = look_at_many(positions, center, UP)
    return [
        CandidateView(pose=pose, radius=radius, polar=p, azimuth=a)
        for pose, p, a in zip(poses, polar.tolist(), azimuth.tolist())
    ]


def assign_partitions(views: list[CandidateView], beta: int) -> list[CandidateView]:
    """Bin views into `beta` longitude sectors: floor(azimuth / (2*pi/beta))."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    width = 2.0 * np.pi / beta
    azimuth = np.array([v.azimuth for v in views], dtype=float)
    sector = np.minimum(azimuth // width, beta - 1).astype(int)
    for v, index in zip(views, sector.tolist()):
        v.partition_index = index
    return views
