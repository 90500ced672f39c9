"""`harness.coverage` against a brute-force nearest-distance count, and the
coverage `harness.run` tracks frame by frame against `harness.coverage`."""

import csv

import numpy as np
import pytest

from nbvplan import harness
from nbvplan.config import RunConfig
from nbvplan.harness import coverage
from nbvplan.mesh import load_mesh, sample_surface_points
from nbvplan.planner import run_iteration

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
    assert coverage(pts, np.empty((0, 3)), 0.005) == 0.0
    assert coverage(np.empty((0, 3)), pts, 0.005) == 0.0
    with pytest.raises(ValueError):
        coverage(pts, pts, threshold=0.0)


def test_nan_threshold_is_rejected():
    pts = np.zeros((3, 3))
    with pytest.raises(ValueError, match="threshold must be positive"):
        coverage(pts, pts, threshold=float("nan"))


@pytest.mark.parametrize("shape", ["torus", "l_prism"])
def test_run_coverage_equals_coverage_of_all_points(shape, mesh_dir, tmp_path, monkeypatch):
    """`run` queries each new frame's points with the samples not yet
    covered; every iteration's coverage equals `coverage` over every point
    acquired so far, and records.csv holds the same digits."""
    config = RunConfig(
        mesh=str(mesh_dir / f"{shape}.obj"), width=160, height=120, fx=145.0, fy=145.0,
        candidates=32, t_max=2, iterations=5, seed=3, out=str(tmp_path),
    )
    model = sample_surface_points(load_mesh(config.mesh), config.coverage_samples, seed=config.seed)
    expected = []

    def iterate_and_measure(state):
        chosen = run_iteration(state)
        expected.append(coverage(model, state.acquired_points, config.coverage_threshold))
        return chosen

    monkeypatch.setattr(harness, "run_iteration", iterate_and_measure)
    records, _ = harness.run(config)
    assert len(records) == 5
    assert [r.coverage for r in records] == expected
    assert expected[0] < expected[-1] < 1.0
    with open(tmp_path / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["coverage"] for r in rows] == [f"{c:.9f}" for c in expected]
