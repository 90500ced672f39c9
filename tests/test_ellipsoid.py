import logging
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_reference import MVEE_MAX_ITER, fit_gmm_loop, mvee, mvee_input, quadric, responsibilities, todd_yildirim
from test_gmm_pinned import INPUTS as GMM_PINNED_INPUTS
from test_gmm_pinned import REG_FLOOR as GMM_REG_FLOOR
from test_mvee_pinned import INPUTS as PINNED_INPUTS
from test_mvee_pinned import TOL as PINNED_TOL

from nbvplan import ellipsoid
from nbvplan.ellipsoid import (
    Ellipsoid,
    InfeasibleModelError,
    bic,
    fit_gmm,
    fit_mvee,
    refit_all,
    select_components,
)
from nbvplan.voxel import VoxelGrid, VoxelState


def mixture_sample(rng, means, sigma, n_per):
    parts = [m + sigma * rng.normal(size=(n_per, 3)) for m in means]
    return np.vstack(parts)


# ---- fit_gmm ----------------------------------------------------------------


def test_gmm_degenerate_single_point():
    pts = np.tile([1.0, 2.0, 3.0], (100, 1))
    model, labels = fit_gmm(pts, t=1, seed=0, reg_floor=0.01)
    np.testing.assert_allclose(model.means[0], [1.0, 2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(model.covariances[0], 0.01 * np.eye(3), atol=1e-12)
    assert np.all(labels == 0)


def test_gmm_separated_clusters_recovered():
    rng = np.random.default_rng(1)
    sigma = 0.05
    n_per = 1000
    means = [np.zeros(3), np.array([10 * sigma, 0, 0])]
    pts = mixture_sample(rng, means, sigma, n_per)
    model, labels = fit_gmm(pts, t=2, seed=4, reg_floor=1e-8)
    order = np.argsort(model.means[:, 0])
    got = model.means[order]
    np.testing.assert_allclose(got[0], means[0], atol=0.1 * sigma)
    np.testing.assert_allclose(got[1], means[1], atol=0.1 * sigma)
    # with 10-sigma separation EM means coincide with per-cluster sample means
    np.testing.assert_allclose(got[0], pts[:n_per].mean(axis=0), atol=1e-6)
    np.testing.assert_allclose(got[1], pts[n_per:].mean(axis=0), atol=1e-6)
    # labels pure per true cluster
    first, second = labels[:n_per], labels[n_per:]
    assert len(set(first.tolist())) == 1
    assert len(set(second.tolist())) == 1
    assert first[0] != second[0]


def test_gmm_infeasible_raises():
    with pytest.raises(InfeasibleModelError):
        fit_gmm(np.zeros((2, 3)), t=3, seed=0, reg_floor=1e-6)


@pytest.mark.parametrize("seed", range(20))
def test_gmm_loglik_monotone(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, 5))
    pts = mixture_sample(rng, rng.uniform(-1, 1, (t, 3)), 0.2, 60)
    model, _ = fit_gmm(pts, t=t, seed=seed, reg_floor=1e-6)
    diffs = np.diff(model.ll_trace)
    assert np.all(diffs >= -1e-9)


def test_gmm_responsibilities_normalized():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(150, 3))
    model, _ = fit_gmm(pts, t=3, seed=5, reg_floor=1e-6)
    resp = responsibilities(model, pts)
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-9)
    assert abs(model.weights.sum() - 1.0) < 1e-9


def test_gmm_covariance_floor_holds():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(80, 3)) * np.array([1.0, 1e-6, 1e-6])  # nearly collinear
    floor = 1e-4
    model, _ = fit_gmm(pts, t=2, seed=1, reg_floor=floor)
    for cov in model.covariances:
        assert np.linalg.eigvalsh(cov).min() >= floor - 1e-12


def assert_fits_equal(got, want):
    (model, labels), (ref_model, ref_labels) = got, want
    for name in ("weights", "means", "covariances", "ll_trace"):
        assert np.array_equal(getattr(model, name), getattr(ref_model, name)), name
    assert model.log_likelihood == ref_model.log_likelihood
    assert np.array_equal(labels, ref_labels)


def lattice_points(layout: str, n: int, rng: np.random.Generator, res: float) -> np.ndarray:
    """n distinct voxel centres in a random box, one plane of them, or one
    voxel centre repeated n times."""
    if layout == "repeated":
        return np.tile((rng.integers(-5, 5, 3) + 0.5) * res, (n, 1))
    depth = 1 if layout == "coplanar" else int(rng.integers(1, 9))
    side = int(np.ceil(np.sqrt(n / depth))) + int(rng.integers(0, 4))
    ijk = np.stack(np.meshgrid(np.arange(side), np.arange(side), np.arange(depth), indexing="ij"), -1)
    ijk = rng.permutation(ijk.reshape(-1, 3))[:n]
    return (ijk + rng.integers(-5, 5, 3) + 0.5) * res


@given(
    layout=st.sampled_from(["block", "coplanar", "repeated"]),
    n=st.integers(1, 500),
    t_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    res=st.sampled_from([0.01, 0.03]),
)
@example(layout="block", n=1, t_frac=0.0, seed=0, res=0.03)
@example(layout="repeated", n=40, t_frac=1.0, seed=1, res=0.03)
@example(layout="coplanar", n=120, t_frac=0.5, seed=2, res=0.03)
@example(layout="block", n=500, t_frac=1.0, seed=3, res=0.03)
@settings(max_examples=40, deadline=None)
def test_gmm_equals_the_per_component_loop(layout, n, t_frac, seed, res):
    """The array EM step gives the per-component loop's fit bit for bit, for
    1 to min(10, N) components on lattice inputs of 1 to 500 points."""
    rng = np.random.default_rng(seed)
    pts = lattice_points(layout, n, rng, res)
    t = 1 + int(t_frac * (min(10, n) - 1))
    floor = (res / 4.0) ** 2
    got = fit_gmm(pts, t, seed=seed, reg_floor=floor)
    assert_fits_equal(got, fit_gmm_loop(pts, t, seed=seed, reg_floor=floor))


@pytest.mark.parametrize("name", sorted(GMM_PINNED_INPUTS))
def test_gmm_equals_the_per_component_loop_on_pinned_inputs(name):
    """Every T of the pinned sweeps, about half of which stop at the
    EM_MAX_ITER cap."""
    pts = GMM_PINNED_INPUTS[name]()
    capped = 0
    for t in range(1, min(10, len(pts)) + 1):
        got = fit_gmm(pts, t, seed=t, reg_floor=GMM_REG_FLOOR)
        assert_fits_equal(got, fit_gmm_loop(pts, t, seed=t, reg_floor=GMM_REG_FLOOR))
        capped += len(got[0].ll_trace) == ellipsoid.EM_MAX_ITER
    assert capped > 0 or name == "frontier_cloud"


def test_gmm_logs_each_fit_at_debug(caplog):
    pts = np.random.default_rng(4).normal(size=(60, 3))
    with caplog.at_level(logging.DEBUG, logger="nbvplan"):
        fit_gmm(pts, t=2, seed=0, reg_floor=1e-6)
    [record] = [r for r in caplog.records if r.getMessage().startswith("fit_gmm:")]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "60 points" in message and "2 components" in message and "steps" in message


def test_gmm_debug_line_names_a_cap_hit(monkeypatch, caplog):
    monkeypatch.setattr(ellipsoid, "EM_MAX_ITER", 2)
    pts = np.random.default_rng(4).normal(size=(60, 3))
    with caplog.at_level(logging.DEBUG, logger="nbvplan"):
        model, _ = fit_gmm(pts, t=3, seed=0, reg_floor=1e-6)
    assert len(model.ll_trace) == 2
    [record] = [r for r in caplog.records if r.getMessage().startswith("fit_gmm:")]
    assert "2 steps (hit the cap)" in record.getMessage()


# ---- bic / select_components -------------------------------------------------


def test_bic_direct_substitution():
    # k ln(n) - 2 ln L; with T=1 components k = 9
    model, _ = fit_gmm(np.random.default_rng(0).normal(size=(50, 3)), t=1, seed=0, reg_floor=1e-6)
    model.log_likelihood = -200.0
    assert bic(model, 100) == pytest.approx(9 * np.log(100) + 400.0, abs=1e-9)
    # ln(1) = 0 -> BIC = -2 ln L regardless of k
    assert bic(model, 1) == pytest.approx(400.0, abs=1e-12)


def test_bic_k_linearity():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(60, 3))
    m1, _ = fit_gmm(pts, t=1, seed=0, reg_floor=1e-6)
    m2, _ = fit_gmm(pts, t=2, seed=0, reg_floor=1e-6)
    m2.log_likelihood = m1.log_likelihood  # same likelihood, k grows by 10
    assert bic(m2, 60) - bic(m1, 60) == pytest.approx(10 * np.log(60), abs=1e-9)


def test_select_single_blob():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(300, 3)) * 0.05
    t_star, model, _ = select_components(pts, t_max=10, seed=0, reg_floor=1e-8)
    assert t_star == 1


def test_select_three_blobs():
    rng = np.random.default_rng(5)
    sigma = 0.05
    means = [np.zeros(3), np.array([10 * sigma, 0, 0]), np.array([0, 10 * sigma, 0])]
    pts = mixture_sample(rng, means, sigma, 150)
    t_star, _, _ = select_components(pts, t_max=10, seed=0, reg_floor=1e-8)
    assert t_star == 3


def test_select_clamps_to_point_count():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    t_star, _, _ = select_components(pts, t_max=10, seed=0, reg_floor=1e-6)
    assert t_star in (1, 2)


def test_select_deterministic():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(200, 3))
    a = select_components(pts, t_max=6, seed=11, reg_floor=1e-6)
    b = select_components(pts, t_max=6, seed=11, reg_floor=1e-6)
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1].means, b[1].means)
    np.testing.assert_array_equal(a[2], b[2])


# ---- fit_mvee ---------------------------------------------------------------


def test_mvee_cube_corners_gives_sphere():
    corners = np.array(
        [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float
    )
    ell = fit_mvee(corners)
    np.testing.assert_allclose(ell.center, 0.0, atol=1e-6)
    np.testing.assert_allclose(ell.shape, np.eye(3) / 3.0, atol=1e-4)


def test_mvee_identical_points_inflated_ball():
    pts = np.tile([0.5, -0.2, 0.1], (7, 1))
    r = 0.015
    ell = fit_mvee(pts, inflation_radius=r)
    np.testing.assert_allclose(ell.center, [0.5, -0.2, 0.1], atol=1e-9)
    np.testing.assert_allclose(ell.shape, np.eye(3) / r**2, rtol=1e-3, atol=1e-3 / r**2)


def test_mvee_degenerate_without_radius_raises():
    """A degenerate cluster needs a positive finite inflation radius; any
    other raises a ValueError naming it, with no numpy warning first."""
    pts = np.tile([0.0, 0.0, 0.0], (5, 1))
    for radius in [None, np.nan, np.inf, 0.0, -1.0]:
        with warnings.catch_warnings(), pytest.raises(ValueError, match="inflation_radius"):
            warnings.simplefilter("error")
            fit_mvee(pts, inflation_radius=radius)


def test_mvee_empty_raises():
    with pytest.raises(ValueError):
        fit_mvee(np.empty((0, 3)))


def random_containing_ellipsoid_volumes(points, rng, count):
    """Volumes of `count` random candidate ellipsoids, each scaled to just
    contain the points.  The draws are taken candidate by candidate, so a
    sequence of calls consumes `rng` as one candidate per call would."""
    draws = [
        (rng.normal(size=(3, 3)), rng.uniform(0.3, 3.0, 3), rng.normal(scale=0.05, size=3))
        for _ in range(count)
    ]
    gauss, scales, offsets = (np.array(x) for x in zip(*draws))
    q, _ = np.linalg.qr(gauss)
    a = (q * (1.0 / scales**2)[:, None, :]) @ q.transpose(0, 2, 1)
    d = points - (points.mean(axis=0) + offsets)[:, None, :]
    worst = np.einsum("cij,cjk,cik->ci", d, a, d).max(axis=1)
    a = a / worst[:, None, None]
    return 4.0 / 3.0 * np.pi / np.sqrt(np.linalg.det(a))


@pytest.mark.parametrize("n_points,seed", [(50, 0), (8, 1), (5, 2), (8, 3)])
def test_mvee_containment_and_volume_vs_randomized_oracle(n_points, seed):
    """fit_mvee contains every point; the reference MVEE that bounds its
    volume elsewhere is no larger than the best of 100,000 random
    containing ellipsoids."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_points, 3))
    assert fit_mvee(pts).form(pts).max() <= 1.0 + 1e-12

    # 100,000 candidates in chunks that keep the (count, n, 3) offsets small
    best = min(random_containing_ellipsoid_volumes(pts, rng, 10_000).min() for _ in range(10))
    assert mvee(pts, 1e-4).volume <= best * 1.01


def test_mvee_quadric_consistency():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(30, 3))
    ell = fit_mvee(pts)
    # random surface points: x = c + A^(-1/2) u with |u| = 1
    vals, vecs = np.linalg.eigh(ell.shape)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    u = rng.normal(size=(100, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    surface = ell.center + u @ inv_sqrt
    x_h = np.column_stack([surface, np.ones(100)])
    q = quadric(ell)
    residual = np.einsum("ij,jk,ik->i", x_h, q, x_h)
    assert np.abs(residual).max() <= 1e-8 * np.linalg.norm(q)


def test_ellipsoid_quadric_block_structure():
    a = np.diag([4.0, 1.0, 0.25])
    c = np.array([0.5, -1.0, 2.0])
    ell = Ellipsoid(center=c, shape=a, member_count=3)
    q = quadric(ell)
    np.testing.assert_allclose(q[:3, :3], a)
    np.testing.assert_allclose(q[:3, 3], -a @ c)
    np.testing.assert_allclose(q[3, 3], c @ a @ c - 1.0)
    np.testing.assert_allclose(q @ ell.quadric_inv, np.eye(4), atol=1e-9)


# ---- refit_all ---------------------------------------------------------------


def blob_centers(with_frontier=False):
    """Occupied and Frontier voxel centers of a 3 cm grid holding a 5^3
    Occupied blob and, if asked, a Frontier slab beside it."""
    grid = VoxelGrid(origin=np.zeros(3), resolution=0.03, dims=(20, 20, 20))
    g3 = grid.grid3d()
    g3[4:9, 4:9, 4:9] = VoxelState.OCCUPIED
    if with_frontier:
        g3[4:9, 4:9, 12:16] = VoxelState.FRONTIER
    return tuple(
        grid.voxel_centers(grid.unflat(grid.indices_in_state(s)))
        for s in (VoxelState.OCCUPIED, VoxelState.FRONTIER)
    )


def test_refit_blob_no_frontier():
    e_o, e_f = refit_all(*blob_centers(), 0.03, t_max=5, seed=0)
    assert len(e_o) >= 1
    assert e_f == []


def test_refit_requires_occupied():
    with pytest.raises(ValueError):
        refit_all(np.empty((0, 3)), np.empty((0, 3)), 0.03, t_max=5, seed=0)


def test_refit_containment_sweep():
    occupied, frontier = blob_centers(with_frontier=True)
    e_o, e_f = refit_all(occupied, frontier, 0.03, t_max=6, seed=3)
    assert len(e_f) >= 1
    for kind, centers, ells in (("occupied", occupied, e_o), ("frontier", frontier, e_f)):
        forms = np.min([e.form(centers) for e in ells], axis=0)
        assert forms.max() <= 1.0 + 1e-12, kind
    assert sum(e.member_count for e in e_o) == len(occupied)


def _cluster(kind: str, rng) -> np.ndarray:
    if kind == "random":
        return rng.normal(0.3, 0.05, (60, 3))
    if kind == "coplanar":
        u, v = np.meshgrid(np.arange(7) * 0.03, np.arange(5) * 0.03)
        return np.stack([u.ravel(), v.ravel(), np.full(u.size, 0.12)], axis=1)
    return rng.normal(0.0, 1.0, (1, 3))


def per_cluster_fits(centers, resolution, t_max, seed):
    """`fit_mvee` of each of a class's clusters, in ascending label order."""
    if len(centers) == 0:
        return []
    _, _, labels = select_components(centers, t_max=t_max, seed=seed, reg_floor=(resolution / 4.0) ** 2)
    return [fit_mvee(centers[labels == k], inflation_radius=resolution / 2.0) for k in np.unique(labels)]


def assert_same_ellipsoids(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.member_count == w.member_count
        assert np.array_equal(g.center, w.center) and np.array_equal(g.shape, w.shape)


@pytest.mark.parametrize("occupied_kind", ["random", "coplanar", "one point"])
@pytest.mark.parametrize("frontier_kind", ["random", "coplanar", "one point", "none"])
def test_refit_at_one_component_needs_no_sweep(occupied_kind, frontier_kind):
    """At t_max = 1 each class is one cluster: refit_all gives the ellipsoids
    a one-component sweep's labels give, without fitting a mixture."""
    rng = np.random.default_rng(7)
    occupied = _cluster(occupied_kind, rng)
    frontier = _cluster(frontier_kind, rng) if frontier_kind != "none" else np.empty((0, 3))
    resolution, seed = 0.03, 5
    want_o = per_cluster_fits(occupied, resolution, 1, seed * 2)
    want_f = per_cluster_fits(frontier, resolution, 1, seed * 2 + 1)

    def no_mixture(*args, **kwargs):
        raise AssertionError("fit_gmm called at t_max = 1")

    with mock.patch.object(ellipsoid, "fit_gmm", no_mixture):
        e_o, e_f = refit_all(occupied, frontier, resolution, t_max=1, seed=seed)
    assert [len(e_o), len(e_f)] == [1, int(frontier_kind != "none")]
    assert_same_ellipsoids(e_o, want_o)
    assert_same_ellipsoids(e_f, want_f)


def test_refit_lists_each_class_in_cluster_order():
    """Above one component, each class's list holds one fit per cluster in
    ascending label order: the order the scorer breaks depth ties by."""
    grid = VoxelGrid(origin=np.zeros(3), resolution=0.03, dims=(20, 20, 20))
    g3 = grid.grid3d()
    g3[2:6, 2:6, 2:6] = g3[13:17, 13:17, 13:17] = VoxelState.OCCUPIED
    g3[2:6, 13:17, 2:5] = g3[13:17, 2:6, 15:18] = VoxelState.FRONTIER
    occupied, frontier = (
        grid.voxel_centers(grid.unflat(grid.indices_in_state(s)))
        for s in (VoxelState.OCCUPIED, VoxelState.FRONTIER)
    )
    resolution, t_max, seed = 0.03, 3, 4
    e_o, e_f = refit_all(occupied, frontier, resolution, t_max=t_max, seed=seed)
    assert len(e_o) >= 2 and len(e_f) >= 2
    assert_same_ellipsoids(e_o, per_cluster_fits(occupied, resolution, t_max, seed * 2))
    assert_same_ellipsoids(e_f, per_cluster_fits(frontier, resolution, t_max, seed * 2 + 1))


# ---- moment ellipsoid --------------------------------------------------------


def voxel_cluster(layout: str, n: int, rng: np.random.Generator, res: float) -> np.ndarray:
    """Centres of a cluster of up to n distinct voxels: spanning 3-D, in one
    lattice plane, on one lattice line, or a single voxel."""
    if layout == "single":
        ijk = np.zeros((1, 3), dtype=np.int64)
    elif layout == "collinear":
        ijk = np.outer(rng.permutation(n), [1, *rng.integers(-2, 3, 2)])
    else:
        ijk = rng.integers(0, int(rng.integers(2, 9)), (n, 3))
        if layout == "coplanar":
            ijk[:, 2] = 0
        else:  # a voxel and its three face neighbours span 3-D
            ijk = np.vstack([np.eye(4, 3, -1, dtype=np.int64), ijk])
    return (np.unique(ijk, axis=0) + rng.integers(-5, 5, 3) + 0.5) * res


@given(
    layout=st.sampled_from(["full", "coplanar", "collinear", "single"]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    res=st.sampled_from([0.01, 0.03]),
)
@example(layout="full", n=1, seed=0, res=0.03)
@example(layout="full", n=300, seed=1, res=0.01)
@example(layout="coplanar", n=2, seed=2, res=0.03)
@example(layout="collinear", n=1, seed=3, res=0.01)
@settings(max_examples=60, deadline=None)
def test_mvee_holds_every_member_with_the_farthest_on_the_surface(layout, n, seed, res):
    """Every member lies inside the moment ellipsoid.  A full-rank cluster is
    fit as it is: centred on its mean, with its farthest member on the
    surface.  Flat, linear and one-voxel clusters are inflated first."""
    pts = voxel_cluster(layout, n, np.random.default_rng(seed), res)
    ell = fit_mvee(pts, inflation_radius=res / 2)
    forms = ell.form(pts)
    assert forms.max() <= 1.0 + 1e-12
    assert ell.member_count == len(pts)
    if layout == "full":
        assert abs(forms.max() - 1.0) <= 1e-12
        np.testing.assert_array_equal(ell.center, pts.mean(axis=0))


# ---- reference MVEE ----------------------------------------------------------


def assert_certificate(points, tol, u):
    """Todd & Yildirim's epsilon-certificate for weights u, recomputed with a
    fresh inverse of X(u)."""
    n, d = points.shape
    eps = d * tol / (d + 1)
    q = np.column_stack([points, np.ones(n)])
    m = np.einsum("ij,jk,ik->i", q, np.linalg.inv(q.T * u @ q), q)
    assert np.all(u >= 0) and u.sum() == pytest.approx(1.0, abs=1e-12)
    assert m.max() <= (1 + eps) * (d + 1) * (1 + 1e-9)
    assert m[u > 0].min() >= (1 - eps) * (d + 1) * (1 - 1e-9)


@pytest.mark.parametrize("name", sorted(PINNED_INPUTS))
def test_mvee_converges_with_certificate(name):
    """The reference MVEE that test_mvee_pinned pins converges on each of
    these inputs, where the capped Khachiyan loop stopped at its cap."""
    build, inflation = PINNED_INPUTS[name]
    points = mvee_input(build(), inflation)
    u, steps = todd_yildirim(points, PINNED_TOL)
    assert steps < MVEE_MAX_ITER
    assert_certificate(points, PINNED_TOL, u)
