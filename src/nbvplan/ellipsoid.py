"""Voxel-cluster ellipsoid fitting.

Occupied and frontier voxel centers are clustered with a full-covariance
Gaussian mixture trained by EM, the component count is picked by BIC, and
each hard-assigned cluster is wrapped in a minimum-volume enclosing
ellipsoid expressed both as a center/shape-matrix pair and as a homogeneous
4x4 dual quadric.  The MVEE is solved in its dual, max log det X(u) over
weights u on the points, by a fully corrective active-set method (Todd,
Minimum-Volume Ellipsoids, SIAM 2016, ch. 3; Sun & Freund, Oper. Res.
2004): from Kumar & Yildirim's start, damped Newton steps optimize the
weights of the current support, and once the support is optimal a
Frank-Wolfe step adds the point farthest outside, until Todd & Yildirim's
epsilon-certificate holds for the requested tolerance.

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
MVEE_MAX_ITER = 5000  # the largest measured voxel-cluster fit took 51 steps
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


# ---- minimum-volume enclosing ellipsoid -------------------------------------


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


def _kumar_yildirim_start(points: np.ndarray) -> np.ndarray:
    """Weights 1/(2d) on the extreme pair of points along d directions.

    Each direction after the first (the x axis) is orthogonal to the
    differences of the pairs already chosen, so the 2d points span the space
    whenever the input does (Kumar & Yildirim, JOTA 2005).
    """
    n, d = points.shape
    chosen: list[int] = []
    direction = np.eye(d)[0]
    for k in range(d):
        proj = points @ direction
        chosen += [int(np.argmax(proj)), int(np.argmin(proj))]
        if k + 1 < d:
            diffs = points[chosen[0::2]] - points[chosen[1::2]]
            direction = np.linalg.svd(diffs)[2][k + 1]
    return np.bincount(chosen, minlength=n) / (2.0 * d)


def _newton_direction(mat: np.ndarray) -> np.ndarray:
    """Weight change of one Newton step on log det X(u) over the support.

    `mat` is M = Q X^-1 Q^T over the support's lifted points: its diagonal
    m is the gradient and M∘M the negated Hessian, so the step solves
    [M∘M 1; 1^T 0][delta; lambda] = [m; 0], which keeps sum(u) = 1.  M∘M
    has rank at most (d+1)(d+2)/2, and less when the support lies on more
    than one quadric, as a box's corners do.  The system is consistent even
    then (m = (M∘M)u and 1 is in the range), so when LU fails or returns a
    solution that does not solve it (a near-singular pivot can blow up the
    null-space part), the least-squares solution is taken.
    """
    k = len(mat)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = mat * mat
    kkt[k, k] = 0.0
    rhs = np.append(mat.diagonal(), 0.0)
    try:
        sol = np.linalg.solve(kkt, rhs)
        if np.abs(kkt @ sol - rhs).max() <= 1e-9 * rhs.max():
            return sol[:k]
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]


def _mvee_weights(points: np.ndarray, tol: float) -> tuple[np.ndarray, int, int]:
    """MVEE dual weights by Newton steps on the support (fully corrective).

    With lifted points q_i = (p_i, 1), X(u) = sum u_i q_i q_i^T and
    m_i = q_i^T X^-1 q_i.  While the support S = {i : u_i > 0} fails
    (1-eps)(d+1) <= m_i <= (1+eps)(d+1), a damped Newton step (length
    1/(1+decrement)) moves its weights, cut short by a ratio test that drops
    the first weight to reach zero.  Once S passes, the point of largest m
    joins by one Frank-Wolfe step with exact line search.  It stops when
    max m <= (1+eps)(d+1) as well, with eps = d*tol/(d+1), so the ellipsoid
    built from u has every point at form <= 1 + tol.

    Returns (u, steps, added): steps counts Newton and Frank-Wolfe steps
    together, added the Frank-Wolfe ones; steps == MVEE_MAX_ITER means the
    cap was hit.
    """
    n, d = points.shape
    q = np.column_stack([points, np.ones(n)])
    lifted = d + 1.0
    eps = d * tol / lifted
    hi, lo = (1.0 + eps) * lifted, (1.0 - eps) * lifted
    u = _kumar_yildirim_start(points)
    steps = added = 0
    while steps < MVEE_MAX_ITER:
        s = np.flatnonzero(u)
        qs = q[s]
        x_inv = np.linalg.inv(qs.T * u[s] @ qs)
        mat = qs @ x_inv @ qs.T
        ms = mat.diagonal()
        if ms.max() <= hi and ms.min() >= lo:
            m = np.einsum("ij,jk,ik->i", q, x_inv, q)
            j = int(np.argmax(m))
            if m[j] <= hi:
                return u, steps, added
            step = (m[j] - lifted) / (lifted * (m[j] - 1.0))
            u *= 1.0 - step
            u[j] += step
            added += 1
        else:
            delta = _newton_direction(mat)
            t = 1.0 / (1.0 + np.sqrt(max(ms @ delta, 0.0)))
            shrinking = np.flatnonzero(delta < 0)
            ratio = -u[s[shrinking]] / delta[shrinking]
            first = np.argmin(ratio) if ratio.size else None
            drop = first is not None and ratio[first] <= t
            if drop:
                t = ratio[first]
            u[s] = np.maximum(u[s] + t * delta, 0.0)
            if drop:
                u[s[shrinking[first]]] = 0.0
        steps += 1
    return u, steps, added


def fit_mvee(
    points: np.ndarray,
    tol: float = 1e-3,
    inflation_radius: float | None = None,
) -> Ellipsoid:
    """Minimum-volume enclosing ellipsoid of a point set.

    Degenerate inputs (fewer than 4 points or affine rank < 3) are inflated by
    +-inflation_radius offsets along each axis before fitting; without a
    radius such inputs raise.  All original points satisfy
    (x-c)^T A (x-c) <= 1 + tol in the result.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("fit_mvee requires at least one point")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    work = pts
    if len(work) < 4 or _points_rank(work) < 3:
        if inflation_radius is None or inflation_radius <= 0:
            raise ValueError(
                "degenerate point set: supply inflation_radius to repair rank"
            )
        work = _inflate_degenerate(work, inflation_radius)

    # Only convex-hull vertices can carry weight; pre-reducing keeps the
    # iteration cheap on big voxel clusters.
    if len(work) > 32:
        from scipy.spatial import ConvexHull, QhullError

        try:
            work = work[np.sort(ConvexHull(work).vertices)]
        except QhullError:
            pass  # near-degenerate input: fit the full set

    u, steps, added = _mvee_weights(work, tol)
    center = work.T @ u
    scatter = (work.T * u) @ work - np.outer(center, center)
    a_mat = np.linalg.inv(scatter) / 3.0
    if steps >= MVEE_MAX_ITER:
        log.warning("fit_mvee hit its %d-step cap on %d points", MVEE_MAX_ITER, len(work))
    log.debug(
        "fit_mvee: %d points, %d fitted after hull reduction, %d Newton steps, %d Frank-Wolfe steps",
        len(pts), len(work), steps - added, added,
    )
    d = pts - center
    worst = np.einsum("ij,jk,ik->i", d, a_mat, d).max()
    if worst > 1.0 + tol:
        a_mat = a_mat / worst  # containment guarantee for every input point
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
    degeneracy inflation radius derive from the voxel size `resolution`; each
    MVEE is fit to `fit_mvee`'s default tolerance.  At `t_max` 1 each class
    is one cluster, the labels a one-component sweep gives, and no mixture is
    fit.
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
