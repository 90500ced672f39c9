"""`harness.coverage` against a brute-force nearest-distance count."""

import numpy as np
import pytest

from nbvplan.harness import coverage

STEP = 2.0**-8  # lattice spacing, m; sums of its multiples are exact


def nearest_distances(model: np.ndarray, acquired: np.ndarray) -> np.ndarray:
    return np.sqrt(((model[:, None, :] - acquired[None, :, :]) ** 2).sum(axis=-1)).min(axis=1)


def brute_force_coverage(model: np.ndarray, acquired: np.ndarray, threshold: float) -> float:
    return np.count_nonzero(nearest_distances(model, acquired) <= threshold) / len(model)


@pytest.mark.parametrize("seed", range(5))
def test_points_at_the_threshold_count(seed):
    """Model and acquired points on a lattice, so that many nearest
    distances are exactly the threshold, one step, and others exceed it by
    the diagonal's factor sqrt(2) or more."""
    rng = np.random.default_rng(seed)
    model = rng.integers(0, 12, size=(400, 3)) * STEP
    acquired = rng.integers(0, 12, size=(150, 3)) * STEP
    d = nearest_distances(model, acquired)
    assert np.count_nonzero(d == STEP) > 0 and np.count_nonzero(d > STEP) > 0
    cov = coverage(model, acquired, threshold=STEP)
    assert cov == brute_force_coverage(model, acquired, STEP)
    # just below the lattice distance, the points one step away no longer count
    below = np.nextafter(STEP, 0.0)
    assert coverage(model, acquired, threshold=below) == brute_force_coverage(model, acquired, below) < cov


def test_random_points_match_brute_force():
    rng = np.random.default_rng(7)
    model = rng.uniform(-0.05, 0.05, size=(500, 3))
    acquired = rng.uniform(-0.05, 0.05, size=(1000, 3))
    assert coverage(model, acquired, 0.005) == brute_force_coverage(model, acquired, 0.005)


def test_empty_and_invalid_inputs():
    pts = np.zeros((3, 3))
    assert coverage(pts, np.empty((0, 3))) == 0.0
    assert coverage(np.empty((0, 3)), pts) == 0.0
    with pytest.raises(ValueError):
        coverage(pts, pts, threshold=0.0)
