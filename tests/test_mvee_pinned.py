"""Pinned fit_mvee results on voxel-cluster inputs: a solver swap must not
grow them.

The expected centres and volumes were recorded from the capped Khachiyan
loop that preceded the away-step solver; that loop stopped at its iteration
cap on all three inputs and rescaled the result by its worst point.  Each
case asserts containment of every input point, a volume no larger than the
recorded one (to the fit tolerance), and a centre within 1 mm.
"""

import numpy as np
import pytest

from nbvplan.ellipsoid import fit_mvee

RES = 0.01  # voxel size, m
TOL = 1e-3


def voxel_block(half: int, offset=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Centres of a (2*half)^3 block of RES voxels around `offset`."""
    ax = (np.arange(-half, half) + 0.5) * RES
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.column_stack([x.ravel(), y.ravel(), z.ravel()]) + np.asarray(offset)


def sphere_shell() -> np.ndarray:
    """Voxels within half a voxel of a 7 cm sphere off the origin."""
    center = np.array([0.12, -0.05, 0.3])
    pts = voxel_block(9, center)
    return pts[np.abs(np.linalg.norm(pts - center, axis=1) - 0.07) < RES / 2]


def l_prism_face_patch() -> np.ndarray:
    """Voxels within half a voxel of a tilted plane, cut to an L shape."""
    normal = np.array([1.0, 0.4, 0.2])
    normal /= np.linalg.norm(normal)
    u = np.cross(normal, [0.0, 0.0, 1.0])
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    pts = voxel_block(9)
    a, b = pts @ u, pts @ v
    in_l = ((a < -0.02) | (b < -0.02)) & (np.abs(a) < 0.08) & (np.abs(b) < 0.08)
    return pts[(np.abs(pts @ normal) <= RES / 2) & in_l]


def three_voxels() -> np.ndarray:
    """Coplanar voxel centres: rank-deficient, repaired by inflation."""
    return np.array([[0.005, 0.005, 0.005], [0.015, 0.005, 0.005], [0.025, 0.015, 0.005]])


# name -> (builder, inflation radius)
INPUTS = {
    "sphere_shell": (sphere_shell, None),
    "l_prism_face_patch": (l_prism_face_patch, None),
    "three_voxels": (three_voxels, RES / 2),
}

# name -> (centre, volume) recorded from the capped Khachiyan loop
PINNED = {
    "sphere_shell": ([0.1199980477863617, -0.04997375561520224, 0.2999872910071476], 0.0017005966025025667),
    "l_prism_face_patch": ([-0.008829680986037574, 0.014312671549804565, 0.01457455106889156], 0.00033986852193742634),
    "three_voxels": ([0.015150886122738275, 0.008466411064351231, 0.004998638920145065], 3.8128343922823605e-06),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_fit_mvee_pinned(name):
    build, inflation = INPUTS[name]
    pts = build()
    ell = fit_mvee(pts, tol=TOL, inflation_radius=inflation)
    center, volume = PINNED[name]
    assert ell.form(pts).max() <= 1.0 + TOL
    assert ell.volume <= volume * (1.0 + TOL)
    np.testing.assert_allclose(ell.center, center, rtol=0, atol=1e-3)
