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
result is one `Candidates` set, the only candidate type: the rotations,
positions, azimuths, sectors and scores of all views as parallel arrays,
which scoring and selection read and write whole.  Each row is identical
bit for bit to the view built on its own.  Indexing or iterating a set
gives `Candidate` handles onto its rows; a handle builds its view's `Pose`
only when `.pose` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import Pose, _checked_pose, look_at_many, spherical_direction

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


@dataclass(eq=False)
class Candidates:
    """N candidate views as parallel arrays, one row per view."""

    rotations: np.ndarray    # (N,3,3) camera-to-world, checked proper rotations
    positions: np.ndarray    # (N,3) camera centers (m)
    azimuth: np.ndarray      # (N,) rad, in [0, 2*pi)
    partition: np.ndarray    # (N,) longitude sector, -1 until assigned
    scores: np.ndarray       # (N,) view quality F, NaN until scored

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index: int) -> Candidate:
        return Candidate(self, range(len(self))[index])

    def __iter__(self):
        return map(partial(Candidate, self), range(len(self)))


class Candidate:
    """Row `index` of a `Candidates` set: its pose, position, sector and score."""

    __slots__ = ("candidates", "index")

    def __init__(self, candidates: Candidates, index: int):
        self.candidates = candidates
        self.index = index

    @property
    def pose(self) -> Pose:
        c, i = self.candidates, self.index
        return _checked_pose(c.rotations[i], c.positions[i])

    position = property(lambda self: self.candidates.positions[self.index])
    partition_index = property(lambda self: int(self.candidates.partition[self.index]))
    score = property(lambda self: float(self.candidates.scores[self.index]))


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


def sample_candidates(config: SamplingConfig, center: np.ndarray, radius: float) -> Candidates:
    """Generate candidate views on the sampling sphere, all looking at `center`."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    center = np.asarray(center, dtype=float).reshape(3)
    lo, hi = config.polar_range
    polars = np.linspace(lo, hi, config.alpha)
    counts = _parallel_counts(polars, config.n_views)

    ring = np.repeat(np.arange(config.alpha), counts)
    count = counts[ring]
    k = np.arange(len(ring)) - np.repeat(np.cumsum(counts) - counts, counts)
    phase = (ring * _GOLDEN_ANGLE) % (2.0 * np.pi)
    azimuth = (phase + 2.0 * np.pi * k / count) % (2.0 * np.pi)
    positions = center + radius * spherical_direction(polars[ring], azimuth)
    n = len(positions)
    return Candidates(
        rotations=look_at_many(positions, center, UP),
        positions=positions,
        azimuth=azimuth,
        partition=np.full(n, -1),
        scores=np.full(n, np.nan),
    )


def assign_partitions(candidates: Candidates, beta: int) -> Candidates:
    """Bin views into `beta` longitude sectors, floor(azimuth / (2*pi/beta)), in place."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    width = 2.0 * np.pi / beta
    candidates.partition[:] = np.minimum(candidates.azimuth // width, beta - 1)
    return candidates
