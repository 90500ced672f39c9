import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from nbvplan.geometry import CameraIntrinsics, Pose, _check_rotations, look_at, look_at_many


def test_pose_rejects_off_diagonal_stretch_within_rtol():
    # |R^T R - I| reaches 8e-6 on the diagonal: far past the 1e-9 tolerance,
    # though within a relative 1e-5 of the identity's ones
    stretched = np.diag([1.0 + 4e-6, 1.0 - 4e-6, 1.0])
    with pytest.raises(ValueError, match="not orthonormal"):
        Pose(rotation=stretched, translation=np.zeros(3))


def test_pose_accepts_rounding_level_error():
    q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3)))
    q *= np.sign(np.linalg.det(q))
    Pose(rotation=q, translation=np.ones(3))


def test_pose_rejects_reflection_and_nan():
    with pytest.raises(ValueError, match="determinant"):
        Pose(rotation=np.diag([1.0, 1.0, -1.0]), translation=np.zeros(3))
    with pytest.raises(ValueError, match="not orthonormal"):
        Pose(rotation=np.full((3, 3), np.nan), translation=np.zeros(3))


def test_stack_check_rejects_one_reflection_or_stretch():
    # the triple product (x cross y) . z of each matrix is its determinant
    rng = np.random.default_rng(4)
    stack = np.array([np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(50)])
    stack *= np.sign(np.linalg.det(stack))[:, None, None]
    _check_rotations(stack)
    reflected = stack.copy()
    reflected[31] = -reflected[31]
    with pytest.raises(ValueError, match="determinant"):
        _check_rotations(reflected)
    stretched = stack.copy()
    stretched[17] = np.diag([1.0 + 4e-6, 1.0 - 4e-6, 1.0])
    with pytest.raises(ValueError, match="not orthonormal"):
        _check_rotations(stretched)


def test_look_at_many_checks_the_whole_stack():
    positions = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(ValueError, match="not orthonormal"):
        look_at_many(positions, np.zeros(3), [0, 0, 1])
    with pytest.raises(ValueError, match="coincides"):
        look_at_many(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.zeros(3), [0, 0, 1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, value",
    [
        ("fx", np.nan), ("fy", np.nan), ("fx", 0.0), ("fy", -1.0),
        ("max_range", np.nan), ("max_range", 0.0), ("max_range", -2.5),
    ],
)
def test_intrinsics_reject_a_focal_length_or_range_that_is_not_positive(name, value):
    valid = dict(fx=100.0, fy=100.0, cx=20.0, cy=15.0, width=40, height=30, max_range=2.5)
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        CameraIntrinsics(**{**valid, name: value})


@pytest.mark.parametrize("up", [[0.0, 0.0, 1.0], [0.3, -0.2, 0.9]])
def test_look_at_many_matches_scalar_bit_for_bit(up):
    rng = np.random.default_rng(8)
    target = np.array([0.1, -0.05, 0.2])
    up = np.asarray(up) / np.linalg.norm(up)
    positions = target + rng.normal(scale=0.6, size=(50, 3))
    positions[7] = target + 0.8 * up   # parallel to up: the x-axis fallback
    positions[9] = target - 0.5 * up   # antiparallel
    rotations = look_at_many(positions, target, up)
    assert rotations.shape == (50, 3, 3)
    for rotation, position in zip(rotations, positions):
        expected = ref.look_at(position, target, up)
        assert np.array_equal(rotation, expected.rotation)
        single = look_at(position, target, up)
        assert np.array_equal(single.rotation, expected.rotation)
        assert np.array_equal(single.translation, expected.translation)
    # looking straight down `up`, image up is world x projected onto the image
    for k in (7, 9):
        z = rotations[k][:, 2]
        image_up = np.array([1.0, 0.0, 0.0]) - z[0] * z
        np.testing.assert_allclose(-rotations[k][:, 1], image_up / np.linalg.norm(image_up))


@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    focal=st.tuples(st.floats(5.0, 900.0), st.floats(5.0, 900.0)),
    principal=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
)
@settings(max_examples=100, deadline=None)
def test_pixel_rays_match_the_stacked_norm(seed, size, focal, principal):
    """Rays gathered from the per-axis tables equal the stacked, normalized
    ((c - cx)/fx, (r - cy)/fy, 1) bit for bit: for fx != fy, fractional
    principal points, drawn 1-D index arrays and the (H, W) arrays of
    `np.indices`."""
    rng = np.random.default_rng(seed)
    (w, h), (fx, fy), (px, py) = size, focal, principal
    intr = CameraIntrinsics(fx=fx, fy=fy, cx=px * w, cy=py * h, width=w, height=h, max_range=5.0)
    rows, cols = rng.integers(0, h, 50), rng.integers(0, w, 50)
    got = intr.pixel_rays(rows, cols)
    assert got.shape == (50, 3)
    assert np.array_equal(got, ref.pixel_rays_stacked(intr, rows, cols))
    grid = np.indices((h, w))
    got = intr.pixel_rays(*grid)
    assert got.shape == (h, w, 3)
    assert np.array_equal(got, ref.pixel_rays_stacked(intr, *grid))
