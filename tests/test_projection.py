import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbvplan.ellipsoid import Ellipsoid
from nbvplan.geometry import CameraIntrinsics, Pose, look_at
from nbvplan.projection import _border_area, depth_weights, evaluate_all, project
from nbvplan.views import SamplingConfig, assign_partitions, sample_candidates
from scalar_reference import (
    POLYGON_SEGMENTS,
    CandidateView,
    clipped_ellipse_area,
    exact_ellipse_area,
    project_reference,
    projection_matrix,
    quadric,
    rasterized_ellipse_area,
    stack,
)


def sphere_ell(center, radius):
    return Ellipsoid(center=np.asarray(center, dtype=float), shape=np.eye(3) / radius**2, member_count=1)


def make_view(position, target=(0, 0, 0)):
    return CandidateView(pose=look_at(position, target, [0, 0, 1]))


def project_poses(poses, ellipsoids, intrinsics):
    """`project` of the views at these poses."""
    rotations = np.array([p.rotation for p in poses])
    return project(rotations, np.array([p.translation for p in poses]), ellipsoids, intrinsics)


def project_one(ell, pose, intrinsics):
    """(cam_z, conic, center, axes, area) of a single (view, ellipsoid) pair."""
    return [x[0, 0] for x in project_poses([pose], [ell], intrinsics)]


@pytest.fixture
def axis_view():
    # camera at origin looking along +z (world == camera frame)
    return CandidateView(pose=Pose(rotation=np.eye(3), translation=np.zeros(3)))


# ---- depth_weights -----------------------------------------------------------


def weights_of(occupied, frontier, pose, intrinsics):
    cam_z = project_poses([pose], occupied + frontier, intrinsics)[0]
    return cam_z[0], depth_weights(cam_z)[0]


def test_rank_by_depth(axis_view, intrinsics):
    occ = [sphere_ell([0, 0, 0.5], 0.1), sphere_ell([0, 0, 1.0], 0.1)]
    fr = [sphere_ell([0, 0, 2.0], 0.1)]
    cam_z, weights = weights_of(occ, fr, axis_view.pose, intrinsics)
    assert list(cam_z) == [0.5, 1.0, 2.0]
    assert list(weights) == [1.0, 0.5, 0.25]


def test_rank_single(axis_view, intrinsics):
    _, weights = weights_of([], [sphere_ell([0, 0, 1], 0.1)], axis_view.pose, intrinsics)
    assert list(weights) == [1.0]


def test_rank_tie_break(axis_view, intrinsics):
    # equal depth: occupied before frontier, then list order within a class;
    # a nearer frontier ellipsoid still ranks first
    occ = [sphere_ell([-0.2, 0, 1.0], 0.1), sphere_ell([0, 0.2, 1.0], 0.1)]
    fr = [sphere_ell([0.2, 0, 1.0], 0.1), sphere_ell([0, -0.2, 0.9], 0.1), sphere_ell([0, 0, 1.0], 0.1)]
    _, weights = weights_of(occ, fr, axis_view.pose, intrinsics)
    assert list(weights) == [0.5, 0.25, 0.125, 1.0, 0.0625]
    _, weights = weights_of(occ[::-1], fr[::-1], axis_view.pose, intrinsics)
    assert list(weights) == [0.5, 0.25, 0.125, 1.0, 0.0625]


@pytest.mark.parametrize("depths", [(1.0, 2.0), (0.5, 1.0, 1.5)])
def test_rank_ties_follow_the_column_order(depths):
    """Each row ranks as Python's sort by (depth, column) does, on rows long
    enough (48 columns) that an unstable sort reorders equal depths."""
    cam_z = np.random.default_rng(11).choice(depths, size=(8, 48))
    for row, weights in zip(cam_z, depth_weights(cam_z)):
        order = sorted(range(len(row)), key=lambda j: (row[j], j))
        want = np.empty(len(row))
        want[order] = 0.5 ** np.arange(len(row))
        assert np.array_equal(weights, want)


def test_rank_weight_normalization():
    rng = np.random.default_rng(5)
    for m in (1, 2, 5, 11):
        cam_z = rng.uniform(0.5, 3.0, size=(4, m))
        weights = depth_weights(cam_z)
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
    areas = project_poses([axis_view.pose], ells, intrinsics)[4][0]
    assert (areas > 0).all()
    assert all(a > b for a, b in zip(areas, areas[1:]))


def test_conic_consistency_on_silhouette():
    """Points on the tangency curve (polar plane of the camera center cut with
    the ellipsoid) must project onto the conic: |x^T Phi x| <= 1e-6 relative."""
    rng = np.random.default_rng(12)
    intr = CameraIntrinsics(fx=500, fy=480, cx=320, cy=240, width=640, height=480, max_range=2.0)
    checked = 0
    for trial in range(100):
        q_rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        axes = rng.uniform(0.05, 0.2, 3)
        shape = (q_rot / axes**2) @ q_rot.T
        center = rng.normal(scale=0.2, size=3) + [0, 0, 1.5]
        ell = Ellipsoid(center=center, shape=shape, member_count=1)
        pose = look_at(rng.normal(scale=0.1, size=3), center, [0, 0, 1])
        conic = project_one(ell, pose, intr)[1]
        if np.isnan(conic).any():
            continue

        # polar plane of the camera center: pi = Q @ O_h
        o_h = np.append(pose.translation, 1.0)
        q = quadric(ell)
        plane = q @ o_h
        n_vec, d0 = plane[:3], plane[3]
        p0 = -d0 * n_vec / (n_vec @ n_vec)
        b1 = np.linalg.svd(n_vec[None, :])[2][1]
        b2 = np.cross(n_vec / np.linalg.norm(n_vec), b1)
        # restrict the quadric to the plane -> 2D conic in (s, t)
        def f(s, t):
            x = np.append(p0 + s * b1 + t * b2, 1.0)
            return x @ q @ x
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

        p_mat = projection_matrix(pose, intr)
        img_h = (p_mat @ np.column_stack([pts3, np.ones(64)]).T).T
        img = img_h[:, :2] / img_h[:, 2:3]
        x_h = np.column_stack([img, np.ones(64)])
        residual = np.einsum("ij,jk,ik->i", x_h, conic, x_h)
        scale = np.abs(conic).max() * np.einsum("ij,ij->i", x_h, x_h)
        assert np.abs(residual / scale).max() < 1e-6
        checked += 1
    assert checked >= 80


# ---- closed form vs the LAPACK reference -------------------------------------

SENSOR = CameraIntrinsics(fx=580.0, fy=580.0, cx=319.5, cy=239.5, width=640, height=480, max_range=2.0)

# Rotations whose rows are signed unit axes: with the camera at the origin
# and dyadic semi-axes every product in the dual conic is exact.
AXIS_ROTATIONS = [
    m for m in (
        np.diag(signs)[list(perm)]
        for perm in itertools.permutations(range(3))
        for signs in itertools.product([1.0, -1.0], repeat=3)
    )
    if np.linalg.det(m) > 0
]


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q * np.sign(np.linalg.det(q))


def random_pair(rng, kind, intrinsics):
    """A (pose, ellipsoid) pair of one kind.

    "front" and "border": the whole ellipsoid 1.5 to 6 major semi-axes in
    front of the camera, its center anywhere within +-0.8 of the depth
    sideways or projected onto an image side; "behind": the same
    behind the camera; "inside": the camera inside; "surface": the camera
    exactly on the surface, at the pole of an axis-aligned ellipsoid.
    """
    if kind == "surface":
        rotation = AXIS_ROTATIONS[rng.integers(len(AXIS_ROTATIONS))]
        axes = rng.choice([0.125, 0.25, 0.5, 1.0], 3)
        center, shape = rotation @ [0.0, 0.0, axes[2]], rotation @ np.diag(axes**-2.0) @ rotation.T
        pose = Pose(rotation=rotation, translation=np.zeros(3))
    else:
        axes = rng.uniform(0.02, 0.2) * rng.uniform(1.0, 2.0, 3)
        orient = random_rotation(rng)
        shape = (orient / axes**2) @ orient.T
        pose = Pose(rotation=random_rotation(rng), translation=rng.uniform(-1.0, 1.0, 3))
        z = axes.max() * rng.uniform(1.5, 6.0)
        local = np.array([rng.uniform(-0.8, 0.8) * z, rng.uniform(-0.8, 0.8) * z, z])
        if kind == "border":
            uv = rng.uniform(-0.5, [intrinsics.width - 0.5, intrinsics.height - 0.5])
            side = rng.integers(2)
            uv[side] = rng.choice([-0.5, (intrinsics.width, intrinsics.height)[side] - 0.5])
            local[:2] = (uv - [intrinsics.cx, intrinsics.cy]) / [intrinsics.fx, intrinsics.fy] * z
        elif kind == "behind":
            local = -local
        elif kind == "inside":
            u = rng.normal(size=3)
            local = -orient @ (axes * u / np.linalg.norm(u) * rng.uniform(0.0, 0.95)) @ pose.rotation
        center = pose.camera_to_world(local)[0]
    ell = Ellipsoid(center=center, shape=shape, member_count=1)
    return pose, ell


@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["front", "border", "behind", "inside", "surface"]), min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_project_matches_lapack_reference(seed, kinds):
    """The cofactor conics give the pairs the LAPACK path makes valid, and
    the same ellipses to 1e-12 relative: centers and semi-axes against the
    ellipse's size, areas against pi a b, so that a sliver inside the image
    is held to the digits of the whole ellipse.  Pairs are scored in one
    batch and compared on the diagonal; no numpy warning may be raised."""
    rng = np.random.default_rng(seed)
    poses, ells = zip(*(random_pair(rng, kind, SENSOR) for kind in kinds))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [np.diagonal(x, axis1=0, axis2=1).T for x in project_poses(poses, ells, SENSOR)]
    want = [np.diagonal(x, axis1=0, axis2=1).T for x in project_reference(poses, ells, SENSOR)]
    cam_z, _, center, axes, area = got
    ref_z, _, ref_center, ref_axes, ref_area = want
    np.testing.assert_array_equal(cam_z, ref_z)
    valid = np.isfinite(ref_axes[:, 0])
    np.testing.assert_array_equal(np.isfinite(axes[:, 0]), valid)
    assert valid.tolist() == [kind in ("front", "border") for kind in kinds]
    assert (area[~valid] == 0.0).all()
    size = np.abs(ref_center[valid]).max(axis=1) + ref_axes[valid, 0]
    assert (np.abs(center[valid] - ref_center[valid]).max(axis=1) <= 1e-12 * size).all()
    np.testing.assert_allclose(axes[valid], ref_axes[valid], rtol=1e-12, atol=0)
    full = np.pi * ref_axes[valid, 0] * ref_axes[valid, 1]
    assert (np.abs(area[valid] - ref_area[valid]) <= 1e-12 * full).all()


# ---- evaluate_all -------------------------------------------------------------


def test_score_is_weighted_area_sum(axis_view, intrinsics):
    # three frontier spheres at distinct depths, one occupied in front
    occ = [sphere_ell([0.1, 0, 0.7], 0.05)]
    places = [(0, 1.0), (-0.2, 1.3), (0.3, 1.6)]
    fr = [sphere_ell([x, 0.05, z], 0.08) for x, z in places]
    areas = project_poses([axis_view.pose], occ + fr, intrinsics)[4][0]
    f = evaluate_all(stack([axis_view]), occ, fr, intrinsics)
    expected = areas[1] * 0.5 + areas[2] * 0.25 + areas[3] * 0.125 - areas[0] * 1.0
    assert f[0] == pytest.approx(expected, rel=1e-12)


def test_evaluate_no_frontier_nonpositive(axis_view, intrinsics):
    occ = [sphere_ell([0, 0, 1.0], 0.1)]
    views = stack([axis_view])
    f = evaluate_all(views, occ, [], intrinsics)
    assert f[0] < 0
    assert views.scores[0] == f[0]


def test_evaluate_single_frontier_full_weight(axis_view, intrinsics):
    fr = sphere_ell([0, 0, 1.0], 0.1)
    f = evaluate_all(stack([axis_view]), [], [fr], intrinsics)
    assert f[0] == pytest.approx(project_one(fr, axis_view.pose, intrinsics)[4])


def test_occlusion_ordering_flips_sign(axis_view, intrinsics):
    # equal angular size: occupied at z=1 r=0.1, frontier at z=2 r=0.2
    occ = sphere_ell([0, 0, 1.0], 0.1)
    fr = sphere_ell([0, 0, 2.0], 0.2)
    l_area = project_one(occ, axis_view.pose, intrinsics)[4]
    f = evaluate_all(stack([axis_view]), [occ], [fr], intrinsics)[0]
    assert f == pytest.approx(l_area * 0.5 - l_area * 1.0, rel=1e-6)
    assert f < 0

    # swap the lists: frontier now in front -> positive
    f2 = evaluate_all(stack([axis_view]), [fr], [occ], intrinsics)[0]
    assert f2 == pytest.approx(l_area * 1.0 - l_area * 0.5, rel=1e-6)
    assert f2 > 0


def test_evaluate_all_pure(axis_view, intrinsics):
    occ = [sphere_ell([0.02, 0, 1.0], 0.1)]
    fr = [sphere_ell([0, 0.05, 1.5], 0.12)]
    a = evaluate_all(stack([axis_view]), occ, fr, intrinsics)
    b = evaluate_all(stack([axis_view]), occ, fr, intrinsics)
    assert a[0] == b[0]
    assert occ[0].center.tolist() == [0.02, 0, 1.0]


def test_evaluate_all_matches_sequential(intrinsics):
    rng = np.random.default_rng(3)
    occ = [sphere_ell(rng.normal(scale=0.1, size=3), 0.05) for _ in range(6)]
    fr = [sphere_ell(rng.normal(scale=0.1, size=3), 0.07) for _ in range(5)]
    views = stack([make_view(p) for p in rng.normal(scale=1.0, size=(40, 3)) + [0, 0, 2.0]])
    batch = evaluate_all(views, occ, fr, intrinsics)
    for v, f in zip(views, batch):
        alone = stack([CandidateView(pose=v.pose)])
        assert evaluate_all(alone, occ, fr, intrinsics)[0] == f  # bit-identical

    # order preserved and scores stored in the set
    assert np.array_equal(views.scores, batch)


def test_evaluate_all_on_a_set_equals_its_records_bit_for_bit(intrinsics):
    """A sampled set and the set stacked from records of its rows hand
    `project` the same arrays, so they get the same F, stored in each
    set's `scores` and read back through its handles."""
    rng = np.random.default_rng(5)
    occ = [sphere_ell(rng.normal(scale=0.08, size=3), 0.05) for _ in range(4)]
    fr = [sphere_ell(rng.normal(scale=0.08, size=3), 0.09) for _ in range(3)]
    sampling = SamplingConfig(mode="full_sphere", alpha=6, n_views=150)
    cands = assign_partitions(sample_candidates(sampling, [0.01, -0.02, 0.03], 0.45), 4)
    records = stack([CandidateView(pose=v.pose, partition_index=v.partition_index) for v in cands])
    got = evaluate_all(cands, occ, fr, intrinsics)
    want = evaluate_all(records, occ, fr, intrinsics)
    assert np.array_equal(got, want)
    assert np.array_equal(cands.scores, want) and np.array_equal(records.scores, want)
    assert [v.score for v in cands] == want.tolist()
    assert np.ptp(want) > 0


def test_evaluate_all_no_ellipsoids(intrinsics):
    views = stack([make_view([0, 0, 2.0]), make_view([0, 2.0, 0.1])])
    scores = evaluate_all(views, [], [], intrinsics)
    assert scores.tolist() == [0.0, 0.0]
    assert views.scores.tolist() == [0.0, 0.0]


def test_evaluate_all_duplicates_identical(intrinsics):
    occ = [sphere_ell([0, 0, 1.0], 0.1)]
    v1 = make_view([0, 0, 2.5])
    v2 = make_view([0, 0, 2.5])
    scores = evaluate_all(stack([v1, v2]), occ, [], intrinsics)
    assert scores[0] == scores[1]


def test_evaluate_all_requires_candidates(intrinsics):
    with pytest.raises(ValueError):
        evaluate_all(stack([]), [], [], intrinsics)


# ---- analytic vs rasterized area ----------------------------------------------


def test_clipped_area_matches_raster_high_res():
    intr = CameraIntrinsics(fx=900, fy=900, cx=512, cy=384, width=1024, height=768, max_range=2.0)
    pose = Pose(rotation=np.eye(3), translation=np.zeros(3))
    rng = np.random.default_rng(17)
    ells = []
    for _ in range(12):
        center = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2), 1.0])
        ells.append(sphere_ell(center, rng.uniform(0.08, 0.25)))
    _, conics, _, _, areas = project_poses([pose], ells, intr)
    checked = 0
    for conic, area in zip(conics[0], areas[0]):
        if area < 5000:
            continue
        assert area == pytest.approx(rasterized_ellipse_area(conic, intr), rel=0.01)
        checked += 1
    assert checked >= 6


def border_area(center, axes, orientation, intrinsics):
    """Closed-form area of one ellipse inside the image, failing on any numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _border_area(
            np.array([center], dtype=float), np.array([axes], dtype=float),
            np.array([orientation], dtype=float), intrinsics,
        )[0]


def random_ellipses(seed, k):
    """(center, axes, orientation) of k ellipses, most of them crossing a 640x480 image's border."""
    rng = np.random.default_rng(seed)
    center = np.column_stack([rng.uniform(-250, 890, k), rng.uniform(-250, 730, k)])
    major = rng.uniform(3.0, 800.0, k)
    axes = np.column_stack([major, major * rng.uniform(0.02, 1.0, k)])
    return center, axes, rng.uniform(-np.pi / 2, np.pi / 2, k)


def test_clip_spanning_both_edges_is_silent(intrinsics):
    # axis-aligned ellipse wider than the image: its sides parallel to the
    # ellipse's axes must not produce inf * 0 or 0 / 0
    center, axes = (320.0, 240.0), (1000.0, 100.0)
    area = border_area(center, axes, 0.0, intrinsics)
    assert area == pytest.approx(exact_ellipse_area(center, axes, 0.0, intrinsics), rel=1e-9)
    conic = np.diag([1.0 / axes[0] ** 2, 1.0 / axes[1] ** 2, -1.0])
    shift = np.array([[1.0, 0.0, -center[0]], [0.0, 1.0, -center[1]], [0.0, 0.0, 1.0]])
    raster = rasterized_ellipse_area(shift.T @ conic @ shift, intrinsics)
    assert area == pytest.approx(raster, rel=0.01)


def test_batched_clip_matches_scalar_reference(intrinsics):
    center, axes, orientation = random_ellipses(21, 600)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _border_area(center, axes, orientation, intrinsics)
    want = np.array([
        exact_ellipse_area(c, a, o, intrinsics) for c, a, o in zip(center, axes, orientation)
    ])
    crossing = (want > 0) & (want < np.pi * axes[:, 0] * axes[:, 1] * (1 - 1e-9))
    assert crossing.sum() > 300
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


@pytest.mark.parametrize(
    "center, axes, orientation, expected",
    [
        ((320.0, 240.0), (2000.0, 1500.0), 0.4, 640.0 * 480.0),  # contains the image
        ((320.0, 240.0), (1000.0, 100.0), 0.0, None),            # spans left and right
        ((300.0, 240.0), (60.0, 900.0), 0.1, None),              # spans top and bottom
        ((639.5, 479.5), (50.0, 30.0), 0.3, None),               # cuts one corner
        ((-10.0, -8.0), (25.0, 20.0), -0.7, None),               # cuts the opposite corner
        ((400.0, 400.0), (60.0, 79.5), 0.0, np.pi * 60.0 * 79.5),  # tangent to y = H-0.5
    ],
)
def test_batched_clip_special_cases(center, axes, orientation, expected, intrinsics):
    area = border_area(center, axes, orientation, intrinsics)
    assert area == pytest.approx(exact_ellipse_area(center, axes, orientation, intrinsics), rel=1e-9)
    if expected is not None:
        assert area == pytest.approx(expected, rel=1e-12)


def test_clip_exact_halves_and_whole_image(intrinsics):
    right, top = intrinsics.width - 0.5, intrinsics.height - 0.5
    axes = (100.0, 70.0)
    for orientation in (0.0, 0.3, -1.1, np.pi / 2):
        # an image side through the center leaves half the ellipse, by symmetry
        for center in ((right, 240.0), (-0.5, 200.0), (320.0, top), (300.0, -0.5)):
            area = border_area(center, axes, orientation, intrinsics)
            assert area == pytest.approx(0.5 * np.pi * axes[0] * axes[1], rel=1e-12)
        # an ellipse containing the image covers all of it
        area = border_area((320.0, 240.0), (2000.0, 600.0), orientation, intrinsics)
        assert area == pytest.approx(intrinsics.width * intrinsics.height, rel=1e-12)
    # an axis-aligned ellipse centered on a corner keeps a quarter
    area = border_area((right, top), axes, 0.0, intrinsics)
    assert area == pytest.approx(0.25 * np.pi * axes[0] * axes[1], rel=1e-12)


def test_exact_area_exceeds_the_256gon_by_its_deficit_at_most(intrinsics):
    # The inscribed polygon lies inside the ellipse, so the exact area inside
    # the image is at least the polygon's, and exceeds it by at most the
    # polygon's deficit (1 - n/(2 pi) sin(2 pi/n)) pi a b = 1.004e-4 pi a b.
    center, axes, orientation = random_ellipses(23, 400)
    got = _border_area(center, axes, orientation, intrinsics)
    polygon = np.array([
        clipped_ellipse_area(c, a, o, intrinsics) for c, a, o in zip(center, axes, orientation)
    ])
    full = np.pi * axes[:, 0] * axes[:, 1]
    deficit = 1.0 - POLYGON_SEGMENTS / (2.0 * np.pi) * np.sin(2.0 * np.pi / POLYGON_SEGMENTS)
    assert deficit == pytest.approx(1.004e-4, rel=1e-3)
    drift = got - polygon
    rounding = 1e-12 * got
    assert (drift >= -rounding).all()
    assert (drift <= deficit * full + rounding).all()
    assert (drift / full).max() == pytest.approx(deficit, rel=1e-6)  # an ellipse inside the image


def test_area_is_continuous_across_a_side_and_a_corner(intrinsics):
    # Slide an ellipse outward across the right side and across the top-right
    # corner in 0.01 px steps.  The area never grows, and each step removes at
    # most the step times the ellipse's widest chord.
    axes, orientation, step = (40.0, 25.0), 0.5, 0.01
    right, top = intrinsics.width - 0.5, intrinsics.height - 0.5
    offsets = np.arange(-80.0, 80.0, step)
    for start, direction in (((right, 240.0), (1.0, 0.0)), ((right, top), (0.6, 0.8))):
        center = np.asarray(start) + np.outer(offsets, direction)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            area = _border_area(
                center, np.tile(axes, (len(offsets), 1)), np.full(len(offsets), orientation),
                intrinsics,
            )
        assert area[0] == pytest.approx(np.pi * axes[0] * axes[1], rel=1e-12)
        assert area[-1] == 0.0
        change = np.diff(area)
        assert (change <= 1e-9 * area[0]).all()
        assert (-change <= 2.0 * axes[0] * step * (1 + 1e-9)).all()


@pytest.mark.parametrize("toward", [(0.639, 0.0), (0.639, 0.479)])
def test_projected_area_is_exact_across_a_side_and_a_corner(toward, axis_view, intrinsics):
    # A sphere moves out along the ray through the right side's middle, or
    # through the top-right corner, until its silhouette leaves the image.
    # Every pair, inside, crossing the border or outside, has the exact
    # area, so the area does not jump where the silhouette's bounding box
    # first touches the border.
    spheres = [sphere_ell([*(s * np.array(toward)), 1.0], 0.05) for s in np.linspace(0.6, 1.4, 801)]
    _, conics, centers, axes, areas = project_poses([axis_view.pose], spheres, intrinsics)
    want = []
    for conic, center, ab in zip(conics[0], centers[0], axes[0]):
        orientation = 0.5 * np.arctan2(-2.0 * conic[0, 1], conic[1, 1] - conic[0, 0])
        want.append(exact_ellipse_area(center, ab, orientation, intrinsics))
    np.testing.assert_allclose(areas[0], want, rtol=1e-9, atol=0)
    assert areas[0, 0] == np.pi * axes[0, 0, 0] * axes[0, 0, 1] and areas[0, -1] == 0.0


# ---- depth-rank discontinuity ------------------------------------------------


def test_depth_rank_swap_flips_sign(axis_view, intrinsics):
    # Two equal spheres side by side whose centres lie 0.1 mm apart in depth.
    # Moving the frontier one 0.2 mm toward the camera swaps their weights
    # 1 and 0.5, and F jumps from about -A/2 to +A/2 for an area change of
    # about 4e-4 relative: the centre-depth rank is discontinuous.
    occ = sphere_ell([-0.1, 0.0, 1.0], 0.05)
    area = project_one(occ, axis_view.pose, intrinsics)[4]
    scores = []
    for z in (1.0001, 0.9999):
        fr = sphere_ell([0.1, 0.0, z], 0.05)
        _, weights = weights_of([occ], [fr], axis_view.pose, intrinsics)
        scores.append(evaluate_all(stack([axis_view]), [occ], [fr], intrinsics)[0])
        assert list(weights) == ([1.0, 0.5] if z > 1.0 else [0.5, 1.0])
    assert scores[0] == pytest.approx(-0.5 * area, rel=1e-3)
    assert scores[1] == pytest.approx(0.5 * area, rel=1e-3)
