import numpy as np
import pytest

from nbvplan.geometry import CameraIntrinsics, DepthFrame, Pose, look_at
from nbvplan.mesh import TriangleMesh
from nbvplan.render import frame_to_points, project_points, render_depth
from nbvplan.shapes import make_sphere
from scalar_reference import point_to_mesh_distance


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
    assert frame.n_hits == 0
    assert np.all(np.isinf(frame.depths))


def test_silhouette_disc_radius(intrinsics, identity_pose):
    # analytic hit-disc radius fx*a/sqrt(d^2-a^2) for a=0.1, d=1.0, fx=500
    mesh = sphere_at([0, 0, 1.0], 0.1, rings=96, segments=192)
    frame = render_depth(mesh, identity_pose, intrinsics)
    expected_r = 500.0 * 0.1 / np.sqrt(1.0 - 0.01)
    measured_r = np.sqrt(frame.n_hits / np.pi)
    assert measured_r == pytest.approx(expected_r, abs=0.5)
    rows, cols = np.nonzero(frame.hit_mask)
    assert np.hypot(rows - 240, cols - 320).max() <= expected_r + 1.0


def test_max_range_cutoff(intrinsics, identity_pose):
    mesh = sphere_at([0, 0, 6.0], 0.5)  # beyond max_range=5
    frame = render_depth(mesh, identity_pose, intrinsics)
    assert frame.n_hits == 0


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

    # reference: every ray against every triangle, no culling
    ref = np.full((60, 80), np.inf)
    corners = mesh.triangle_corners()
    for r in range(60):
        for c in range(80):
            d = np.array([(c - intr.cx) / intr.fx, (r - intr.cy) / intr.fy, 1.0])
            for v0, v1, v2 in corners:
                e1, e2 = v1 - v0, v2 - v0
                pvec = np.cross(d, e2)
                det = e1 @ pvec
                if abs(det) <= 1e-9:
                    continue
                tvec = -v0
                bu = (tvec @ pvec) / det
                qvec = np.cross(tvec, e1)
                bv = (d @ qvec) / det
                t = (e2 @ qvec) / det
                if bu >= -1e-10 and bv >= -1e-10 and bu + bv <= 1 + 1e-10 and t > 1e-9:
                    ref[r, c] = min(ref[r, c], t * np.linalg.norm(d))
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


def test_export_depths_sentinel_zero(intrinsics, identity_pose):
    mesh = sphere_at([0, 0, 1.0], 0.1)
    frame = render_depth(mesh, identity_pose, intrinsics)
    out = frame.export_depths()
    assert out[~frame.hit_mask].max() == 0.0
    assert np.all(out[frame.hit_mask] > 0)
