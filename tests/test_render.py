import dataclasses
import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from nbvplan import render
from nbvplan.geometry import CameraIntrinsics, DepthFrame, Pose, look_at
from nbvplan.mesh import TriangleMesh
from nbvplan.render import frame_to_points, render_depth
from nbvplan.shapes import make_sphere
from scalar_reference import (
    frame_to_points_pixel_rays,
    point_to_mesh_distance,
    project_points,
    render_depth_loop,
)

# Power-of-two focal lengths make a vertex at x = (c - cx) / fx * z, with z a
# power of two, project exactly onto the pixel centre c.
SMALL = CameraIntrinsics(fx=32.0, fy=32.0, cx=20.0, cy=15.0, width=40, height=30, max_range=2.5)
UNEVEN = dataclasses.replace(SMALL, fy=31.3, cx=19.37, cy=14.81)
IDENTITY = Pose(rotation=np.eye(3), translation=np.zeros(3))


def sphere_at(center, radius, rings=48, segments=96):
    m = make_sphere(radius=radius, rings=rings, segments=segments)
    m.vertices = m.vertices + np.asarray(center, dtype=float)
    return m


def test_center_pixel_depth_on_axis(intrinsics, identity_pose):
    # unit sphere (radius 0.5) centered 1 m ahead: nearest surface at 0.5 m
    mesh = sphere_at([0, 0, 1.0], 0.5)
    frame = render_depth(mesh, identity_pose, intrinsics)
    assert frame.depths[240, 320] == pytest.approx(0.5, abs=1e-4)


def test_camera_facing_away_all_sentinel(intrinsics):
    mesh = sphere_at([0, 0, -2.0], 0.3)
    frame = render_depth(mesh, Pose(rotation=np.eye(3), translation=np.zeros(3)), intrinsics)
    assert np.count_nonzero(frame.hit_mask) == 0
    assert np.all(np.isinf(frame.depths))


def test_silhouette_disc_radius(intrinsics, identity_pose):
    # analytic hit-disc radius fx*a/sqrt(d^2-a^2) for a=0.1, d=1.0, fx=500
    mesh = sphere_at([0, 0, 1.0], 0.1, rings=96, segments=192)
    frame = render_depth(mesh, identity_pose, intrinsics)
    expected_r = 500.0 * 0.1 / np.sqrt(1.0 - 0.01)
    measured_r = np.sqrt(np.count_nonzero(frame.hit_mask) / np.pi)
    assert measured_r == pytest.approx(expected_r, abs=0.5)
    rows, cols = np.nonzero(frame.hit_mask)
    assert np.hypot(rows - 240, cols - 320).max() <= expected_r + 1.0


def test_max_range_cutoff(intrinsics, identity_pose):
    mesh = sphere_at([0, 0, 6.0], 0.5)  # beyond max_range=5
    frame = render_depth(mesh, identity_pose, intrinsics)
    assert np.count_nonzero(frame.hit_mask) == 0


def test_render_is_pure(intrinsics, identity_pose):
    mesh = sphere_at([0.02, -0.03, 0.9], 0.2)
    f1 = render_depth(mesh, identity_pose, intrinsics)
    f2 = render_depth(mesh, identity_pose, intrinsics)
    np.testing.assert_array_equal(f1.depths, f2.depths)


def test_frame_to_points_empty(intrinsics, identity_pose):
    frame = DepthFrame(
        depths=np.full((480, 640), np.inf), pose=identity_pose, intrinsics=intrinsics
    )
    assert frame_to_points(frame).shape == (0, 3)


def test_frame_to_points_principal_ray(intrinsics, identity_pose):
    depths = np.full((480, 640), np.inf)
    depths[240, 320] = 2.0
    frame = DepthFrame(depths=depths, pose=identity_pose, intrinsics=intrinsics)
    pts = frame_to_points(frame)
    np.testing.assert_allclose(pts, [[0.0, 0.0, 2.0]], atol=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    focal=st.tuples(st.floats(5.0, 900.0), st.floats(5.0, 900.0)),
    principal=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
    quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.hypot.reduce(q) > 0.1),
    hits=st.sampled_from(["holes", "none", "one", "all"]),
)
@settings(max_examples=150, deadline=None)
def test_frame_to_points_matches_pixel_rays(seed, size, focal, principal, quaternion, hits):
    """The per-axis tables give each hit pixel the point that its stacked,
    normalized `pixel_rays` direction gives, bit for bit and in the same
    order: for fx != fy, fractional principal points, drawn rotations and
    frames with inf holes, with no hit, with one hit and with every pixel a
    hit."""
    rng = np.random.default_rng(seed)
    (w, h), (fx, fy), (px, py) = size, focal, principal
    intr = CameraIntrinsics(fx=fx, fy=fy, cx=px * w, cy=py * h, width=w, height=h, max_range=5.0)
    rotation = Rotation.from_quat(quaternion).as_matrix()
    pose = Pose(rotation=rotation, translation=rng.uniform(-2.0, 2.0, 3))
    depths = rng.uniform(1e-3, 5.0, (h, w))
    if hits == "holes":
        depths[rng.random((h, w)) < 0.4] = np.inf
    elif hits == "none":
        depths[:] = np.inf
    elif hits == "one":
        keep = depths[rng.integers(h), rng.integers(w)]
        depths[:] = np.inf
        depths[rng.integers(h), rng.integers(w)] = keep
    frame = DepthFrame(depths=depths, pose=pose, intrinsics=intr)
    got = frame_to_points(frame)
    want = frame_to_points_pixel_rays(frame)
    assert got.shape == want.shape == (np.count_nonzero(frame.hit_mask), 3)
    assert np.array_equal(got, want)


def test_rendered_points_on_mesh_surface(intrinsics):
    mesh = sphere_at([0, 0, 0], 0.15)
    pose = look_at([0.5, 0.3, 0.4], [0, 0, 0], [0, 0, 1])
    frame = render_depth(mesh, pose, intrinsics)
    pts = frame_to_points(frame)
    assert len(pts) > 100
    sel = pts[:: max(1, len(pts) // 200)]
    assert point_to_mesh_distance(sel, mesh).max() < 1e-6


def test_backprojection_round_trip(intrinsics):
    mesh = sphere_at([0, 0, 0], 0.15)
    pose = look_at([0.0, -0.6, 0.25], [0, 0, 0], [0, 0, 1])
    frame = render_depth(mesh, pose, intrinsics)
    rows, cols = np.nonzero(frame.hit_mask)
    pts = frame_to_points(frame)
    uv, rng = project_points(pts, pose, intrinsics)
    np.testing.assert_allclose(uv[:, 0], cols, atol=0.5)
    np.testing.assert_allclose(uv[:, 1], rows, atol=0.5)
    np.testing.assert_allclose(rng, frame.depths[rows, cols], atol=1e-6)


def test_culled_rendering_matches_bruteforce():
    """The screen-space cull must not change any pixel vs the all-pairs scan."""
    intr = CameraIntrinsics(fx=60.0, fy=60.0, cx=40.0, cy=30.0, width=80, height=60, max_range=10.0)
    rng = np.random.default_rng(5)
    verts = rng.uniform(-0.5, 0.5, size=(30, 3)) + np.array([0, 0, 1.5])
    tris = rng.integers(0, 30, size=(40, 3))
    tris = tris[(tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2]) & (tris[:, 0] != tris[:, 2])]
    mesh = TriangleMesh(vertices=verts, triangles=tris)
    pose = Pose(rotation=np.eye(3), translation=np.zeros(3))
    frame = render_depth(mesh, pose, intr)

    # reference: every ray against every triangle, no culling, as one broadcast
    # Möller–Trumbore pass; `dot` reduces each 3-vector as `np.dot` does one
    def dot(a, b):
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]

    r, c = np.mgrid[0:60, 0:80]
    d = np.stack([(c - intr.cx) / intr.fx, (r - intr.cy) / intr.fy, np.ones((60, 80))], axis=-1)
    d = d[:, :, None, :]  # (60, 80, 1, 3) against F triangles
    corners = mesh.triangle_corners()
    v0, v1, v2 = corners[:, 0], corners[:, 1], corners[:, 2]
    e1, e2 = v1 - v0, v2 - v0
    pvec = np.cross(d, e2)
    det = dot(e1, pvec)
    tvec = -v0
    qvec = np.cross(tvec, e1)
    with np.errstate(divide="ignore", invalid="ignore"):  # det ~ 0 is masked below
        bu = dot(tvec, pvec) / det
        bv = dot(d, qvec) / det
        t = dot(e2, qvec) / det
        depth = t * np.sqrt(dot(d, d))
    hit = (np.abs(det) > 1e-9) & (bu >= -1e-10) & (bv >= -1e-10) & (bu + bv <= 1 + 1e-10) & (t > 1e-9)
    ref = np.where(hit, depth, np.inf).min(axis=-1)
    ref[ref > intr.max_range] = np.inf
    np.testing.assert_allclose(frame.depths, ref, rtol=1e-12, atol=1e-12)


def test_depth_noise_seeded(intrinsics, identity_pose):
    mesh = sphere_at([0, 0, 1.0], 0.2)
    f1 = render_depth(mesh, identity_pose, intrinsics, noise_sigma=0.002, noise_seed=9)
    f2 = render_depth(mesh, identity_pose, intrinsics, noise_sigma=0.002, noise_seed=9)
    f3 = render_depth(mesh, identity_pose, intrinsics)
    np.testing.assert_array_equal(f1.depths, f2.depths)
    hits = f3.hit_mask
    assert np.abs(f1.depths[hits] - f3.depths[hits]).max() > 1e-5
    assert np.array_equal(f1.hit_mask, f3.hit_mask)


def random_camera_mesh(seed: int, n_tris: int, on_centres: bool, flat: bool) -> TriangleMesh:
    """Triangles in camera coordinates around centres spread in front of,
    across and behind the camera plane, past the image edges and beyond
    `SMALL.max_range`, some of them degenerate or collinear."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform([-2.0, -1.5, -1.5], [2.0, 1.5, 4.0], size=(n_tris, 1, 3))
    sizes = rng.choice([0.01, 0.1, 0.5, 2.0], size=(n_tris, 1, 1))
    corners = centres + sizes * rng.uniform(-1.0, 1.0, size=(n_tris, 3, 3))
    if on_centres:
        # corners on pixel centres (some outside the image) at z in {0.5, 1, 2}
        z = rng.choice([0.5, 1.0, 2.0], size=(n_tris, 3))
        c = rng.integers(-5, SMALL.width + 5, size=(n_tris, 3))
        r = rng.integers(-5, SMALL.height + 5, size=(n_tris, 3))
        corners = np.stack([(c - SMALL.cx) / SMALL.fx * z, (r - SMALL.cy) / SMALL.fy * z, z], axis=-1)
    if flat:
        # collinear corners, and corners repeated within a triangle
        k = rng.choice([0.0, 0.5, 2.0], size=(n_tris, 1))
        corners[::2, 2] = corners[::2, 0] + k[::2] * (corners[::2, 1] - corners[::2, 0])
        corners[1::3, 1] = corners[1::3, 0]
    return TriangleMesh(vertices=corners.reshape(-1, 3), triangles=np.arange(3 * n_tris).reshape(-1, 3))


@given(
    seed=st.integers(0, 2**32 - 1),
    n_tris=st.integers(1, 40),
    on_centres=st.booleans(),
    flat=st.booleans(),
)
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("pass_pairs", [render._PASS_PAIRS, 8])
def test_grouped_render_matches_loop(pass_pairs, seed, n_tris, on_centres, flat):
    """Bit-identical to the per-triangle loop, which converts each hit to
    range before its minimum, also when a small pass cap cuts boxes into
    one-row bands and splits groups across passes: on an even camera and on
    one with fx != fy and a fractional principal point, with and without
    range noise."""
    mesh = random_camera_mesh(seed, n_tris, on_centres, flat)
    for camera in (SMALL, UNEVEN):
        for noise_sigma in (0.0, 0.002):
            with mock.patch.object(render, "_PASS_PAIRS", pass_pairs):
                depths = render_depth(mesh, IDENTITY, camera, noise_sigma, noise_seed=seed).depths
            expected = render_depth_loop(mesh, IDENTITY, camera, noise_sigma, noise_seed=seed).depths
            assert np.array_equal(depths, expected)


def test_random_meshes_reach_every_case():
    """The meshes of the test above include triangles across and wholly
    behind the camera plane, off-screen triangles and hits beyond
    max_range; on these, too, the two renderers agree."""
    hits_beyond_range = straddling = behind = off_screen = 0
    for seed in range(20):
        mesh = random_camera_mesh(seed, 40, on_centres=seed % 2 == 1, flat=seed % 3 == 0)
        z = mesh.triangle_corners()[:, :, 2]
        straddling += np.count_nonzero((z > 0).any(axis=1) & (z <= 0).any(axis=1))
        behind += np.count_nonzero((z <= 0).all(axis=1))
        boxes = render._screen_boxes(mesh.triangle_corners(), SMALL)
        off_screen += np.count_nonzero((boxes[:, 0] >= boxes[:, 1]) | (boxes[:, 2] >= boxes[:, 3]))
        far = render_depth(mesh, IDENTITY, dataclasses.replace(SMALL, max_range=100.0)).depths
        hits_beyond_range += np.count_nonzero(np.isfinite(far) & (far > SMALL.max_range))
        assert np.array_equal(render_depth(mesh, IDENTITY, SMALL).depths, render_depth_loop(mesh, IDENTITY, SMALL).depths)
    assert min(hits_beyond_range, straddling, behind, off_screen) > 0


def test_render_rejects_non_finite_vertices(intrinsics, identity_pose):
    mesh = sphere_at([0, 0, 1.0], 0.2, rings=4, segments=8)
    mesh.vertices[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        render_depth(mesh, identity_pose, intrinsics)


def test_render_logs_its_pass_at_debug(intrinsics, identity_pose, caplog):
    mesh = sphere_at([0, 0, 1.0], 0.2, rings=8, segments=16)
    mesh.vertices[:8, 2] -= 2.0  # one cap behind the camera
    with caplog.at_level(logging.DEBUG, logger="nbvplan"):
        frame = render_depth(mesh, identity_pose, intrinsics)
    [record] = [r for r in caplog.records if r.getMessage().startswith("render_depth:")]
    assert record.levelno == logging.DEBUG
    match = re.fullmatch(
        r"render_depth: (\d+) triangles in front, (\d+) groups, (\d+) pairs tested, (\d+) hit pixels",
        record.getMessage(),
    )
    in_front, groups, pairs, hits = map(int, match.groups())
    z = mesh.triangle_corners()[:, :, 2]
    assert in_front == np.count_nonzero((z > render.T_MIN).any(axis=1)) < mesh.n_triangles
    assert 1 <= groups <= in_front
    assert pairs >= hits == np.count_nonzero(frame.hit_mask) > 0
