"""Voxel-cluster ellipsoid fitting.

Occupied and frontier voxel centers are clustered with a full-covariance
Gaussian mixture trained by EM, the component count is picked by BIC, and
each hard-assigned cluster is wrapped in its moment ellipsoid: the
members' mean and covariance, scaled so that the farthest member lies on
the surface.  Each ellipsoid is held both as a center/shape-matrix pair and
as a homogeneous 4x4 dual quadric.

Each EM step works on all components at once as (t, ...) arrays: one
batched Cholesky factorization and one batched solve against the factors
give every component's log-density, and one batched matmul gives every
M-step scatter.  The (N, t)
log-probabilities are copied row-major before the log-sum-exp and the
responsibility sums, so those reductions add in the same order as a
per-component loop would, and the fit is bit-identical to one.
EM keeps every covariance's eigenvalues at or above a floor by clipping the
M-step scatter eigenvalues.  Clipping is the constrained M-step maximizer,
so the log-likelihood stays non-decreasing, which plain diagonal loading
does not guarantee.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

EM_TOL = 1e-6       # |delta ln L| convergence threshold
EM_MAX_ITER = 200
_LOG_2PI = np.log(2.0 * np.pi)

log = logging.getLogger("nbvplan")


class InfeasibleModelError(ValueError):
    """Requested more mixture components than there are points."""


@dataclass
class GmmModel:
    weights: np.ndarray        # (T,) mixing weights, sum to 1
    means: np.ndarray          # (T, 3)
    covariances: np.ndarray    # (T, 3, 3) symmetric, eigenvalues >= reg floor
    log_likelihood: float
    ll_trace: np.ndarray       # per-iteration ln L, non-decreasing

    @property
    def n_components(self) -> int:
        return len(self.weights)


@dataclass
class Ellipsoid:
    """Surface {x : (x-c)^T A (x-c) = 1} with its homogeneous dual quadric."""

    center: np.ndarray      # (3,)
    shape: np.ndarray       # (3, 3) symmetric positive definite (1/m^2)
    member_count: int
    quadric_inv: np.ndarray = field(init=False)  # dual quadric Q* = Q^-1

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(3)
        a = np.asarray(self.shape, dtype=float).reshape(3, 3)
        a = 0.5 * (a + a.T)
        self.center = c
        self.shape = a
        q = np.empty((4, 4))  # the quadric: X^T Q X = 0 on the surface
        q[:3, :3] = a
        q[:3, 3] = -a @ c
        q[3, :3] = -a @ c
        q[3, 3] = c @ a @ c - 1.0
        self.quadric_inv = np.linalg.inv(q)

    def form(self, points: np.ndarray) -> np.ndarray:
        """(x-c)^T A (x-c) per point; <= 1 means inside."""
        d = np.atleast_2d(points) - self.center
        return np.einsum("ij,jk,ik->i", d, self.shape, d)

    @property
    def volume(self) -> float:
        return 4.0 / 3.0 * np.pi / np.sqrt(np.linalg.det(self.shape))


# ---- Gaussian mixture via EM ------------------------------------------------


def _farthest_point_means(points: np.ndarray, t: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic-for-seed farthest-point seeding of component means."""
    first = int(rng.integers(len(points)))
    chosen = [first]
    d2 = np.einsum("ij,ij->i", points - points[first], points - points[first])
    for _ in range(1, t):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        cand = np.einsum("ij,ij->i", points - points[nxt], points - points[nxt])
        d2 = np.minimum(d2, cand)
    return points[chosen].copy()


def _floor_covariance(cov: np.ndarray, floor: float) -> np.ndarray:
    """Clip eigenvalues of each (..., 3, 3) matrix from below; the
    constrained M-step optimum."""
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, floor)
    return (vecs * vals[..., None, :]) @ vecs.swapaxes(-1, -2)


def fit_gmm(
    points: np.ndarray,
    t: int,
    seed: int,
    reg_floor: float,
) -> tuple[GmmModel, np.ndarray]:
    """EM fit of a `t`-component full-covariance mixture in 3D.

    Initialization: farthest-point means, shared sample covariance scaled by
    1/t, uniform weights.  Returns the model and each point's hard component
    label.  Raises InfeasibleModelError when t > len(points).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    if t < 1:
        raise ValueError("component count must be >= 1")
    if n < t:
        raise InfeasibleModelError(f"{t} components but only {n} points")

    rng = np.random.default_rng(seed)
    means = _farthest_point_means(points, t, rng)
    base_cov = np.cov(points.T, bias=True) if n > 1 else np.zeros((3, 3))
    covs = np.repeat(_floor_covariance(base_cov / t, reg_floor)[None], t, axis=0)
    weights = np.full(t, 1.0 / t)

    trace = []
    for _ in range(EM_MAX_ITER):
        # E-step: (t, 3, N) whitened offsets, then row-major (N, t) log terms
        chol = np.linalg.cholesky(covs)
        sol = np.linalg.solve(chol, (points - means[:, None]).transpose(0, 2, 1))
        maha = np.einsum("kji,kji->ki", sol, sol)
        log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        log_prob = -0.5 * (3.0 * _LOG_2PI + log_det[:, None] + maha)
        weighted = np.ascontiguousarray(log_prob.T) + np.log(weights)
        top = weighted.max(axis=1, keepdims=True)
        log_norm = top + np.log(np.exp(weighted - top).sum(axis=1, keepdims=True))
        ll = float(log_norm.sum())
        log_resp = weighted - log_norm
        resp = np.exp(log_resp)

        if trace and abs(ll - trace[-1]) < EM_TOL:
            trace.append(ll)
            break
        trace.append(ll)

        # M-step: every component's weighted scatter in one batched matmul
        nk = resp.sum(axis=0) + 10.0 * np.finfo(float).eps
        weights = nk / nk.sum()
        means = (resp.T @ points) / nk[:, None]
        d = points - means[:, None]
        scatter = (resp.T[:, :, None] * d).transpose(0, 2, 1) @ d / nk[:, None, None]
        covs = _floor_covariance(scatter, reg_floor)

    log.debug(
        "fit_gmm: %d points, %d components, %d steps%s",
        n, t, len(trace), " (hit the cap)" if len(trace) >= EM_MAX_ITER else "",
    )
    model = GmmModel(
        weights=weights,
        means=means,
        covariances=covs,
        log_likelihood=trace[-1],
        ll_trace=np.array(trace),
    )
    return model, np.argmax(log_resp, axis=1)


def bic(model: GmmModel, n: int) -> float:
    """k*ln(n) - 2*ln(L) with k = 10*T - 1 (3 mean + 6 covariance + 1 weight
    per component, minus the sum-to-one weight constraint)."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    k = 10 * model.n_components - 1
    return k * np.log(n) - 2.0 * model.log_likelihood


def select_components(
    points: np.ndarray,
    t_max: int,
    seed: int,
    reg_floor: float,
) -> tuple[int, GmmModel, np.ndarray]:
    """Fit T = 1..min(t_max, N) and keep the smallest-BIC model and labels.

    Ties break toward fewer components; per-T fits use seeds derived from
    `seed` so the whole search is reproducible.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(points) == 0:
        raise ValueError("select_components requires points")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    n = len(points)
    best = None
    for t in range(1, min(t_max, n) + 1):
        model, labels = fit_gmm(points, t, seed=seed + t, reg_floor=reg_floor)
        score = bic(model, n)
        if best is None or score < best[0] - 1e-12:
            best = (score, t, model, labels)
    _, t_star, model, labels = best
    return t_star, model, labels


# ---- enclosing ellipsoid of one cluster -------------------------------------


def _inflate_degenerate(points: np.ndarray, radius: float) -> np.ndarray:
    """Add +-radius offsets along each axis per point (rank repair)."""
    offsets = np.vstack([np.eye(3), -np.eye(3)]) * radius
    return (points[:, None, :] + offsets[None, :, :]).reshape(-1, 3)


def _points_rank(points: np.ndarray) -> int:
    if len(points) < 2:
        return 0
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    scale = sv[0] if sv[0] > 0 else 1.0
    return int(np.count_nonzero(sv > 1e-9 * max(scale, 1.0)))


def fit_mvee(points: np.ndarray, inflation_radius: float | None = None) -> Ellipsoid:
    """Moment ellipsoid of a point set, scaled so that it just encloses it.

    The shape is A = S^-1 / max_i (x_i - mu)^T S^-1 (x_i - mu), with mu and
    S the points' mean and covariance: the farthest point lies on the
    surface and every point has form <= 1, exactly rather than to a
    tolerance.  Degenerate inputs (fewer than 4 points or affine rank < 3)
    are first inflated by +-inflation_radius offsets along each axis; without
    a positive finite radius they raise.  The fit is not the minimum-volume
    enclosing ellipsoid the name says: the name stays because the benchmark
    wraps `fit_mvee` by name, and a revision of the benchmark may rename it.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("fit_mvee requires at least one point")

    work = pts
    if len(work) < 4 or _points_rank(work) < 3:
        if inflation_radius is None or not (np.isfinite(inflation_radius) and inflation_radius > 0):
            raise ValueError(
                f"degenerate point set: inflation_radius must be positive and finite to repair rank, got {inflation_radius}"
            )
        work = _inflate_degenerate(work, inflation_radius)

    center = work.mean(axis=0)
    d = work - center
    a_mat = np.linalg.inv(d.T @ d / len(work))
    a_mat = a_mat / np.einsum("ij,jk,ik->i", d, a_mat, d).max()
    return Ellipsoid(center=center, shape=a_mat, member_count=len(pts))


# ---- full refit of both voxel classes ---------------------------------------


def refit_all(
    occupied: np.ndarray,
    frontier: np.ndarray,
    resolution: float,
    t_max: int,
    seed: int,
) -> tuple[list[Ellipsoid], list[Ellipsoid]]:
    """Cluster the Occupied and Frontier voxel centers, (N, 3) each, and fit each cluster.

    Returns (occupied ellipsoids, frontier ellipsoids), each in cluster
    order (ascending label), the order the scorer breaks depth ties by; the
    frontier list is empty when `frontier` is.  The covariance floor and the
    degeneracy inflation radius derive from the voxel size `resolution`.  At
    `t_max` 1 each class is one cluster, the labels a one-component sweep
    gives, and no mixture is fit.
    """
    if len(occupied) == 0:
        raise ValueError("refit_all requires at least one Occupied voxel")
    reg_floor = (resolution / 4.0) ** 2
    inflation = resolution / 2.0

    def fit_class(centers: np.ndarray, sub: int) -> list[Ellipsoid]:
        if len(centers) == 0:
            return []
        if t_max == 1:  # one component leaves BIC nothing to choose
            labels = np.zeros(len(centers), dtype=np.int64)
        else:
            _, _, labels = select_components(
                centers, t_max=t_max, seed=seed * 2 + sub, reg_floor=reg_floor
            )
        return [fit_mvee(centers[labels == k], inflation_radius=inflation) for k in np.unique(labels)]

    return fit_class(occupied, 0), fit_class(frontier, 1)
