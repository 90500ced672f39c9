import warnings

import numpy as np
import pytest

from nbvplan.ellipsoid import Ellipsoid
from nbvplan.geometry import CameraIntrinsics, Pose, look_at
from nbvplan.projection import (
    clipped_ellipse_area,
    depth_weights,
    evaluate_all,
    project,
    rasterized_ellipse_area,
)
from nbvplan.views import CandidateView


def sphere_ell(center, radius, kind="frontier", index=0):
    return Ellipsoid(
        center=np.asarray(center, dtype=float),
        shape=np.eye(3) / radius**2,
        kind=kind,
        member_count=1,
        cluster_index=index,
    )


def make_view(position, target=(0, 0, 0)):
    pose = look_at(position, target, [0, 0, 1])
    return CandidateView(pose=pose, radius=float(np.linalg.norm(position)), polar=0.0, azimuth=0.0)


def project_one(ell, pose, intrinsics):
    """(cam_z, conic, center, axes, area) of a single (view, ellipsoid) pair."""
    return [x[0, 0] for x in project([pose], [ell], intrinsics)]


@pytest.fixture
def axis_view():
    # camera at origin looking along +z (world == camera frame)
    pose = Pose(rotation=np.eye(3), translation=np.zeros(3))
    return CandidateView(pose=pose, radius=1.0, polar=0.0, azimuth=0.0)


# ---- depth_weights -----------------------------------------------------------


def weights_of(occupied, frontier, pose, intrinsics):
    ells = occupied + frontier
    cam_z = project([pose], ells, intrinsics)[0]
    index = np.array([e.cluster_index for e in ells])
    return cam_z[0], depth_weights(cam_z, len(occupied), index)[0]


def test_rank_by_depth(axis_view, intrinsics):
    occ = [sphere_ell([0, 0, 0.5], 0.1, "occupied", 0), sphere_ell([0, 0, 1.0], 0.1, "occupied", 1)]
    fr = [sphere_ell([0, 0, 2.0], 0.1, "frontier", 0)]
    cam_z, weights = weights_of(occ, fr, axis_view.pose, intrinsics)
    assert list(cam_z) == [0.5, 1.0, 2.0]
    assert list(weights) == [1.0, 0.5, 0.25]


def test_rank_single(axis_view, intrinsics):
    _, weights = weights_of([], [sphere_ell([0, 0, 1], 0.1)], axis_view.pose, intrinsics)
    assert list(weights) == [1.0]


def test_rank_tie_break(axis_view, intrinsics):
    # equal depth: occupied before frontier, then ascending cluster index,
    # whatever the list order within a class
    occ = [
        sphere_ell([-0.2, 0, 1.0], 0.1, "occupied", 1),
        sphere_ell([0, 0.2, 1.0], 0.1, "occupied", 0),
    ]
    fr = [sphere_ell([0.2, 0, 1.0], 0.1, "frontier", 0)]
    _, weights = weights_of(occ, fr, axis_view.pose, intrinsics)
    assert list(weights) == [0.5, 1.0, 0.25]


def test_rank_weight_normalization():
    rng = np.random.default_rng(5)
    for m in (1, 2, 5, 11):
        cam_z = rng.uniform(0.5, 3.0, size=(4, m))
        weights = depth_weights(cam_z, m // 2, np.arange(m))
        np.testing.assert_allclose(weights.sum(axis=1), 2.0 - 0.5 ** (m - 1), atol=1e-12)
        ranks = np.log2(1.0 / weights)
        assert all(sorted(r) == list(range(m)) for r in ranks)
        # the nearest ellipsoid of each view weighs 1
        assert (weights[np.arange(4), cam_z.argmin(axis=1)] == 1.0).all()


# ---- project -----------------------------------------------------------------


def test_project_sphere_on_axis(axis_view, intrinsics):
    _, _, center, axes, area = project_one(sphere_ell([0, 0, 1.0], 0.1), axis_view.pose, intrinsics)
    expected_r = 500.0 * 0.1 / np.sqrt(1.0 - 0.01)
    np.testing.assert_allclose(center, [320.0, 240.0], atol=1e-6)
    assert axes[0] == pytest.approx(expected_r, rel=1e-9)
    assert axes[1] == pytest.approx(expected_r, rel=1e-9)
    assert area == pytest.approx(np.pi * expected_r**2, rel=1e-3)


def test_project_sphere_rasterization_crosscheck(axis_view, intrinsics):
    ell = sphere_ell([0.05, -0.04, 0.8], 0.08)
    _, conic, _, _, area = project_one(ell, axis_view.pose, intrinsics)
    assert area == pytest.approx(rasterized_ellipse_area(conic, intrinsics), rel=0.01)


def assert_invalid(pair):
    _, conic, center, axes, area = pair
    assert np.isnan(conic).all() and np.isnan(center).all() and np.isnan(axes).all()
    assert area == 0.0


def test_project_behind_camera_invalid(axis_view, intrinsics):
    assert_invalid(project_one(sphere_ell([0, 0, -1.0], 0.1), axis_view.pose, intrinsics))


def test_project_far_off_axis_clips_to_zero(axis_view, intrinsics):
    _, _, center, _, area = project_one(sphere_ell([5.0, 0, 1.0], 0.05), axis_view.pose, intrinsics)
    assert np.isfinite(center).all()
    assert area == 0.0


def test_project_camera_inside_invalid(axis_view, intrinsics):
    # camera inside the ellipsoid
    assert_invalid(project_one(sphere_ell([0, 0, 0.05], 0.5), axis_view.pose, intrinsics))


def test_project_singular_dual_conic_invalid(axis_view, intrinsics):
    # camera on the surface: the dual conic P Q* P^T is singular
    assert_invalid(project_one(sphere_ell([0, 0, 0.5], 0.5), axis_view.pose, intrinsics))


def test_projection_shrinks_with_distance(axis_view, intrinsics):
    ells = [sphere_ell([0, 0, z], 0.1) for z in (0.8, 1.0, 1.4, 2.0, 3.0)]
    areas = project([axis_view.pose], ells, intrinsics)[4][0]
    assert (areas > 0).all()
    assert all(a > b for a, b in zip(areas, areas[1:]))


def test_conic_consistency_on_silhouette():
    """Points on the tangency curve (polar plane of the camera center cut with
    the ellipsoid) must project onto the conic: |x^T Phi x| <= 1e-6 relative."""
    rng = np.random.default_rng(12)
    intr = CameraIntrinsics(fx=500, fy=480, cx=320, cy=240, width=640, height=480)
    checked = 0
    for trial in range(100):
        q_rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        axes = rng.uniform(0.05, 0.2, 3)
        shape = (q_rot / axes**2) @ q_rot.T
        center = rng.normal(scale=0.2, size=3) + [0, 0, 1.5]
        ell = Ellipsoid(center=center, shape=shape, kind="occupied", member_count=1)
        pose = look_at(rng.normal(scale=0.1, size=3), center, [0, 0, 1])
        conic = project_one(ell, pose, intr)[1]
        if np.isnan(conic).any():
            continue

        # polar plane of the camera center: pi = Q @ O_h
        o_h = np.append(pose.translation, 1.0)
        plane = ell.quadric @ o_h
        n_vec, d0 = plane[:3], plane[3]
        p0 = -d0 * n_vec / (n_vec @ n_vec)
        b1 = np.linalg.svd(n_vec[None, :])[2][1]
        b2 = np.cross(n_vec / np.linalg.norm(n_vec), b1)
        # restrict the quadric to the plane -> 2D conic in (s, t)
        def f(s, t):
            x = np.append(p0 + s * b1 + t * b2, 1.0)
            return x @ ell.quadric @ x
        # f(s,t) = A s^2 + B st + C t^2 + D s + E t + F, coefficients via
        # finite evaluation (exact for quadratics)
        f_const = f(0, 0)
        a_coef = (f(1, 0) + f(-1, 0)) / 2 - f_const
        c_coef = (f(0, 1) + f(0, -1)) / 2 - f_const
        d_coef = (f(1, 0) - f(-1, 0)) / 2
        e_coef = (f(0, 1) - f(0, -1)) / 2
        b_coef = (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / 4
        m2 = np.array([[a_coef, b_coef / 2], [b_coef / 2, c_coef]])
        sc = -np.linalg.solve(m2, [d_coef / 2, e_coef / 2])
        f0 = f(*sc)
        vals, vecs = np.linalg.eigh(m2)
        # real elliptical contact curve needs same-sign eigenvalues and
        # an opposite-sign value at the conic center
        if vals[0] * vals[1] <= 0 or -f0 / vals[0] <= 0:
            continue
        radii = np.sqrt(-f0 / vals)
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        st_pts = sc[:, None] + (vecs * radii) @ np.vstack([np.cos(theta), np.sin(theta)])
        pts3 = p0 + np.outer(st_pts[0], b1) + np.outer(st_pts[1], b2)

        p_mat = pose.projection_matrix(intr)
        img_h = (p_mat @ np.column_stack([pts3, np.ones(64)]).T).T
        img = img_h[:, :2] / img_h[:, 2:3]
        x_h = np.column_stack([img, np.ones(64)])
        residual = np.einsum("ij,jk,ik->i", x_h, conic, x_h)
        scale = np.abs(conic).max() * np.einsum("ij,ij->i", x_h, x_h)
        assert np.abs(residual / scale).max() < 1e-6
        checked += 1
    assert checked >= 80


# ---- evaluate_all -------------------------------------------------------------


def test_score_is_weighted_area_sum(axis_view, intrinsics):
    # three frontier spheres at distinct depths, one occupied in front
    occ = [sphere_ell([0.1, 0, 0.7], 0.05, "occupied")]
    places = [(0, 1.0), (-0.2, 1.3), (0.3, 1.6)]
    fr = [sphere_ell([x, 0.05, z], 0.08, "frontier", i) for i, (x, z) in enumerate(places)]
    areas = project([axis_view.pose], occ + fr, intrinsics)[4][0]
    f = evaluate_all([axis_view], occ, fr, intrinsics)
    expected = areas[1] * 0.5 + areas[2] * 0.25 + areas[3] * 0.125 - areas[0] * 1.0
    assert f[0] == pytest.approx(expected, rel=1e-12)


def test_evaluate_no_frontier_nonpositive(axis_view, intrinsics):
    occ = [sphere_ell([0, 0, 1.0], 0.1, "occupied")]
    f = evaluate_all([axis_view], occ, [], intrinsics)
    assert f[0] < 0
    assert axis_view.score == f[0]


def test_evaluate_single_frontier_full_weight(axis_view, intrinsics):
    fr = sphere_ell([0, 0, 1.0], 0.1, "frontier")
    f = evaluate_all([axis_view], [], [fr], intrinsics)
    assert f[0] == pytest.approx(project_one(fr, axis_view.pose, intrinsics)[4])


def test_occlusion_ordering_flips_sign(axis_view, intrinsics):
    # equal angular size: occupied at z=1 r=0.1, frontier at z=2 r=0.2
    occ = sphere_ell([0, 0, 1.0], 0.1, "occupied")
    fr = sphere_ell([0, 0, 2.0], 0.2, "frontier")
    l_area = project_one(occ, axis_view.pose, intrinsics)[4]
    f = evaluate_all([axis_view], [occ], [fr], intrinsics)[0]
    assert f == pytest.approx(l_area * 0.5 - l_area * 1.0, rel=1e-6)
    assert f < 0

    # swap the lists: frontier now in front -> positive
    f2 = evaluate_all([axis_view], [fr], [occ], intrinsics)[0]
    assert f2 == pytest.approx(l_area * 1.0 - l_area * 0.5, rel=1e-6)
    assert f2 > 0


def test_evaluate_all_pure(axis_view, intrinsics):
    occ = [sphere_ell([0.02, 0, 1.0], 0.1, "occupied")]
    fr = [sphere_ell([0, 0.05, 1.5], 0.12, "frontier")]
    a = evaluate_all([axis_view], occ, fr, intrinsics)
    b = evaluate_all([axis_view], occ, fr, intrinsics)
    assert a[0] == b[0]
    assert occ[0].center.tolist() == [0.02, 0, 1.0]


def test_evaluate_all_matches_sequential(intrinsics):
    rng = np.random.default_rng(3)
    occ = [sphere_ell(rng.normal(scale=0.1, size=3), 0.05, "occupied", i) for i in range(6)]
    fr = [sphere_ell(rng.normal(scale=0.1, size=3), 0.07, "frontier", i) for i in range(5)]
    views = [make_view(p) for p in rng.normal(scale=1.0, size=(40, 3)) + [0, 0, 2.0]]
    batch = evaluate_all(views, occ, fr, intrinsics)
    for v, f in zip(views, batch):
        fresh = CandidateView(pose=v.pose, radius=v.radius, polar=v.polar, azimuth=v.azimuth)
        assert evaluate_all([fresh], occ, fr, intrinsics)[0] == f  # bit-identical

    # order preserved and scores attached
    assert all(v.score == f for v, f in zip(views, batch))


def test_evaluate_all_no_ellipsoids(intrinsics):
    views = [make_view([0, 0, 2.0]), make_view([0, 2.0, 0.1])]
    scores = evaluate_all(views, [], [], intrinsics)
    assert scores.tolist() == [0.0, 0.0]
    assert all(v.score == 0.0 for v in views)


def test_evaluate_all_duplicates_identical(intrinsics):
    occ = [sphere_ell([0, 0, 1.0], 0.1, "occupied")]
    v1 = make_view([0, 0, 2.5])
    v2 = make_view([0, 0, 2.5])
    scores = evaluate_all([v1, v2], occ, [], intrinsics)
    assert scores[0] == scores[1]


def test_evaluate_all_requires_candidates(intrinsics):
    with pytest.raises(ValueError):
        evaluate_all([], [], [], intrinsics)


# ---- analytic vs rasterized area ----------------------------------------------


def test_clipped_area_matches_raster_high_res():
    intr = CameraIntrinsics(fx=900, fy=900, cx=512, cy=384, width=1024, height=768)
    pose = Pose(rotation=np.eye(3), translation=np.zeros(3))
    rng = np.random.default_rng(17)
    ells = []
    for _ in range(12):
        center = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2), 1.0])
        ells.append(sphere_ell(center, rng.uniform(0.08, 0.25)))
    _, conics, _, _, areas = project([pose], ells, intr)
    checked = 0
    for conic, area in zip(conics[0], areas[0]):
        if area < 5000:
            continue
        assert area == pytest.approx(rasterized_ellipse_area(conic, intr), rel=0.01)
        checked += 1
    assert checked >= 6


def test_clip_spanning_both_edges_is_silent(intrinsics):
    # axis-aligned ellipse wider than the image: edges parallel to the
    # left/right clip lines used to produce inf * 0
    center, axes = (320.0, 240.0), (1000.0, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        area = clipped_ellipse_area(center, axes, 0.0, intrinsics)
    conic = np.diag([1.0 / axes[0] ** 2, 1.0 / axes[1] ** 2, -1.0])
    shift = np.array([[1.0, 0.0, -center[0]], [0.0, 1.0, -center[1]], [0.0, 0.0, 1.0]])
    raster = rasterized_ellipse_area(shift.T @ conic @ shift, intrinsics)
    assert area == pytest.approx(raster, rel=0.01)
