"""Pinned select_components results on voxel-lattice inputs.

The expected component count T*, hard labels and component means were
recorded from the per-component EM loop that the array EM step replaced.
The inputs are voxel centres at the default 3 cm resolution, fitted with
the covariance floor `refit_all` uses, (resolution / 4)^2, at the default
`t_max` of 10.  Labels are stored one digit per point.
"""

import numpy as np
import pytest

from nbvplan.ellipsoid import select_components

RES = 0.03  # voxel size, m
T_MAX = 10
SEED = 5
REG_FLOOR = (RES / 4.0) ** 2


def voxel_block(half: int, offset=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Centres of a (2*half)^3 block of RES voxels around `offset`."""
    ax = (np.arange(-half, half) + 0.5) * RES
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.column_stack([x.ravel(), y.ravel(), z.ravel()]) + np.asarray(offset)


def sphere_shell() -> np.ndarray:
    """Voxels within half a voxel of a 12 cm sphere off the origin."""
    center = np.array([0.03, -0.06, 0.09])
    pts = voxel_block(6, center)
    return pts[np.abs(np.linalg.norm(pts - center, axis=1) - 0.12) < RES / 2]


def l_prism_face_patch() -> np.ndarray:
    """Voxels within half a voxel of a tilted plane, cut to an L shape."""
    normal = np.array([1.0, 0.4, 0.2])
    normal /= np.linalg.norm(normal)
    u = np.cross(normal, [0.0, 0.0, 1.0])
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    pts = voxel_block(8)
    a, b = pts @ u, pts @ v
    in_l = ((a < -0.06) | (b < -0.06)) & (np.abs(a) < 0.21) & (np.abs(b) < 0.21)
    return pts[(np.abs(pts @ normal) <= RES / 2) & in_l]


def frontier_cloud() -> np.ndarray:
    """Ten scattered voxels, the size of a late-scan Frontier class."""
    ijk = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 1], [6, 5, 1],
         [5, 6, 2], [-4, 3, 0], [-4, 4, 0], [2, -5, 3], [2, -5, 4]]
    )
    return (ijk + 0.5) * RES


INPUTS = {
    "sphere_shell": sphere_shell,
    "l_prism_face_patch": l_prism_face_patch,
    "frontier_cloud": frontier_cloud,
}

# name -> (T*, labels, means)
PINNED = {
    "frontier_cloud": (
        4,
        "3330002211",
        [
            [0.17499999999999985, 0.17499999999999985, 0.05499999999999995],
            [0.07499999999999991, -0.13499999999999987, 0.11999999999999986],
            [-0.10499999999999989, 0.11999999999999986, 0.014999999999999982],
            [0.02499999999999998, 0.02499999999999998, 0.014999999999999989],
        ],
    ),
    "l_prism_face_patch": (
        2,
        (
            "0100001000111101111111111000000000111001111111111111111111000000000000"
            "1111111111111100000000000001100000000000"
        ),
        [
            [-0.011327934395892584, -0.04097447562423889, 0.13779902391357116],
            [-0.04529683295075274, 0.13317622692424366, -0.039083440871821924],
        ],
    ),
    "sphere_shell": (
        6,
        (
            "0222222222222222222222220000000323423342232222222221000003434343434111"
            "1100000300334343434344134111110000034033434343434411411111000003434343"
            "434111110555555555455344534541111111555555555555555555555551"
        ),
        [
            [0.013156814014063755, -0.15458472910729315, 0.07214821830813357],
            [0.04684339138726535, 0.03458471210038412, 0.10785146067062698],
            [-0.06404051657363127, -0.04122643425985204, 0.08282169148327835],
            [0.01992174457337138, -0.08000043893575484, 0.18635784012824122],
            [0.04008206375999704, -0.040002079872214456, -0.006356954723717753],
            [0.12404117881513135, -0.07877396856787006, 0.09718233543375153],
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_select_components_pinned(name):
    pts = INPUTS[name]()
    t_star, model, assignment = select_components(pts, t_max=T_MAX, seed=SEED, reg_floor=REG_FLOOR)
    labels = getattr(assignment, "labels", assignment)  # a bare array or a holder of one
    want_t, want_labels, want_means = PINNED[name]
    assert t_star == want_t
    np.testing.assert_array_equal(labels, [int(c) for c in want_labels])
    np.testing.assert_allclose(model.means, want_means, rtol=0, atol=1e-12)
