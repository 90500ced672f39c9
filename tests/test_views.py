import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from nbvplan.views import (
    SamplingConfig,
    _parallel_counts,
    as_candidates,
    assign_partitions,
    sample_candidates,
    sampling_radius,
)


def test_sampling_radius_unit_cube():
    bbox = (np.zeros(3), np.ones(3))
    assert sampling_radius(bbox, 0.4) == pytest.approx(0.4 + np.sqrt(3) / 2, abs=1e-9)


def test_sampling_radius_degenerate_box():
    bbox = (np.zeros(3), np.array([0.03, 0.03, 0.03]))
    d = np.linalg.norm([0.03, 0.03, 0.03])
    assert sampling_radius(bbox, 0.4) == pytest.approx(0.4 + d / 2)


def test_sampling_radius_linear_in_diagonal():
    b1 = (np.zeros(3), np.ones(3))
    b2 = (np.zeros(3), 2 * np.ones(3))
    d1 = np.sqrt(3)
    assert sampling_radius(b2, 0.4) - sampling_radius(b1, 0.4) == pytest.approx(d1 / 2)


def test_single_parallel_four_views():
    cfg = SamplingConfig(mode="hemisphere", alpha=1, n_views=4)
    views = sample_candidates(cfg, np.zeros(3), 1.0)
    assert len(views) == 4
    polars = {round(v.polar, 12) for v in views}
    assert len(polars) == 1
    az = sorted(v.azimuth for v in views)
    gaps = np.diff(az + [az[0] + 2 * np.pi])
    np.testing.assert_allclose(gaps, np.pi / 2, atol=1e-9)


def test_symmetric_parallels_split_evenly():
    # full-sphere polar range is symmetric about the equator, so with alpha=2
    # both rings have equal circumference and get N/2 views each
    cfg = SamplingConfig(mode="full_sphere", alpha=2, n_views=100)
    views = sample_candidates(cfg, np.zeros(3), 1.0)
    polars = np.array([v.polar for v in views])
    assert (polars == polars.min()).sum() == 50
    assert (polars == polars.max()).sum() == 50


def test_parallel_counts_sixty_one_twenty():
    counts = _parallel_counts(np.deg2rad([60.0, 120.0]), 100)
    np.testing.assert_array_equal(counts, [50, 50])


def test_paper_configuration_counts_and_radius():
    cfg = SamplingConfig(mode="full_sphere", alpha=8, n_views=800)
    center = np.array([0.1, -0.2, 0.05])
    r = 0.87
    views = sample_candidates(cfg, center, r)
    assert len(views) == 800
    for position in views.positions[::37]:
        assert np.linalg.norm(position - center) == pytest.approx(r, abs=1e-9)


def test_look_at_center_invariant():
    cfg = SamplingConfig(mode="hemisphere", alpha=4, n_views=64)
    center = np.array([0.05, 0.02, 0.1])
    views = sample_candidates(cfg, center, 0.7)
    for v in views:
        to_center = center - v.position
        d = np.linalg.norm(to_center)
        assert v.pose.optical_axis @ to_center == pytest.approx(d, abs=1e-9)
        # proper rotation
        r = v.pose.rotation
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


@given(
    alpha=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=12, max_value=900),
    mode=st.sampled_from(["hemisphere", "full_sphere"]),
)
@settings(max_examples=60, deadline=None)
def test_counts_sum_exactly(alpha, n, mode):
    if n < alpha:
        n = alpha
    cfg = SamplingConfig(mode=mode, alpha=alpha, n_views=n)
    views = sample_candidates(cfg, np.zeros(3), 1.0)
    assert len(views) == n


def test_partition_binning():
    cfg = SamplingConfig(mode="hemisphere", alpha=1, n_views=4)
    views = sample_candidates(cfg, np.zeros(3), 1.0)
    views.azimuth[:] = [np.deg2rad(10.0), np.deg2rad(100.0), np.deg2rad(350.0), 2 * np.pi - 1e-15]
    assert assign_partitions(views, 4) is views
    assert views[0].partition_index == 0
    assert views[1].partition_index == 1
    assert views[2].partition_index == 3
    assert 0 <= views[3].partition_index < 4


def test_partition_beta_one_disables_strategy():
    cfg = SamplingConfig(mode="full_sphere", alpha=4, n_views=40)
    views = assign_partitions(sample_candidates(cfg, np.zeros(3), 1.0), 1)
    assert all(v.partition_index == 0 for v in views)


@pytest.mark.parametrize("alpha", [1, 2, 4, 8])
def test_partitions_all_nonempty_when_dense(alpha):
    beta = 4
    cfg = SamplingConfig(mode="full_sphere", alpha=alpha, n_views=4 * alpha + 8)
    views = assign_partitions(sample_candidates(cfg, np.zeros(3), 1.0), beta)
    assert {v.partition_index for v in views} == set(range(beta))


def test_partition_coverage_default_config():
    for beta in (1, 2, 4, 8):
        cfg = SamplingConfig(mode="full_sphere", alpha=8, n_views=800)
        views = assign_partitions(sample_candidates(cfg, np.zeros(3), 1.0), beta)
        assert {v.partition_index for v in views} == set(range(beta))


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(mode="orbit")
    with pytest.raises(ValueError):
        SamplingConfig(alpha=0)
    with pytest.raises(ValueError):
        SamplingConfig(alpha=10, n_views=5)
    with pytest.raises(ValueError):
        sample_candidates(SamplingConfig(), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        assign_partitions([], 0)


def test_hemisphere_stays_above_cap():
    cfg = SamplingConfig(mode="hemisphere", alpha=8, n_views=200)
    views = sample_candidates(cfg, np.zeros(3), 1.0)
    for v in views:
        assert np.deg2rad(15) - 1e-12 <= v.polar <= np.deg2rad(85) + 1e-12
        assert v.position[2] > 0


@pytest.mark.parametrize("mode", ["hemisphere", "full_sphere"])
# The ids keep the names these rows had when the up axis was a parameter.
@pytest.mark.parametrize(
    "alpha, n",
    [
        pytest.param(1, 4, id="1-4-up0"),
        pytest.param(3, 37, id="3-37-up1"),
        pytest.param(8, 800, id="8-800-up2"),
        pytest.param(11, 900, id="11-900-up3"),
        pytest.param(5, 123, id="5-123-up4"),
    ],
)
def test_sampling_matches_scalar_bit_for_bit(mode, alpha, n):
    cfg = SamplingConfig(mode=mode, alpha=alpha, n_views=n)
    center = np.array([0.03, -0.11, 0.27])
    got = assign_partitions(sample_candidates(cfg, center, 0.83), 4)
    want = ref.assign_partitions(ref.sample_candidates(cfg, center, 0.83), 4)
    assert len(got) == len(want) == n
    assert got.rotations.shape == (n, 3, 3) and got.positions.shape == (n, 3)
    assert np.array_equal(got.positions, [v.position for v in want])
    assert np.array_equal(got.rotations, [v.pose.rotation for v in want])
    assert got.azimuth.tolist() == [v.azimuth for v in want]
    assert got.polar.tolist() == [v.polar for v in want]
    assert got.partition.tolist() == [v.partition_index for v in want]
    assert got.radius.tolist() == [0.83] * n
    # the handles read the same rows, and a Pose built from one is that view's
    for view, record in zip(got, want):
        assert np.array_equal(view.pose.rotation, record.pose.rotation)
        assert np.array_equal(view.pose.translation, record.pose.translation)
        assert (view.azimuth, view.polar, view.partition_index) == (
            record.azimuth, record.polar, record.partition_index
        )
    # stacking the records gives the set back, bit for bit
    stacked = as_candidates(want)
    for name in ("rotations", "positions", "radius", "polar", "azimuth", "partition"):
        assert np.array_equal(getattr(stacked, name), getattr(got, name)), name
    assert np.isnan(stacked.scores).all() and np.isnan(got.scores).all()
