"""SHA-256 digests of the point-cloud and mesh writers' output.

Recorded from the per-row f-string writers; any rewrite of `save_ply_points`
or `save_obj` must write the same bytes.  The cloud has more rows than one
write chunk and includes -0.0, tiny negatives that round to -0.000000,
halves at the sixth decimal, nan, +inf and -inf.
"""

import hashlib

import numpy as np
import pytest

from nbvplan.mesh import save_obj, save_ply_points
from nbvplan.shapes import make_shape

CLOUD_DIGESTS = {
    "points": "2dbefe14393ac8766ae639f8b36e457a86d66d48d638a7e98e52db8663792593",
    "states": "8bce080b466a4b274d1b5de2ee1d2c8b3415aed3f53353c0c1ccc637a8b8af30",
}
EMPTY_CLOUD_DIGEST = "734b97debd28969f7864ca820deb349c6cd8c2ff4dd5798796ef9d5cae7ab753"
OBJ_DIGESTS = {
    "sphere": "323d9a18b8bd918a35bb788d8e1aa22d8f2c0478e8aacf52026a78868a3c8a08",
    "cube": "c5bedbee5ad6ff8f96ffc71ce23400f7cdbf7420beb077998282a96921d56868",
    "torus": "b352d6bd019af301dfdf55715d4644f0a2cace756d848c052e835a3d4bdd7a6a",
    "l_prism": "58969f9aa0745371313f1bbe9b3098ba38ff30a879168873ce5dd4cee8bd2760",
    "u_prism": "1d8f5585baf9cd1f56446eef54fccc8d28f0163837eea3159c9d59998489cacc",
}


def _cloud():
    rng = np.random.default_rng(5)
    points = rng.normal(scale=0.3, size=(70000, 3))
    points[:4000] *= 10.0 ** rng.integers(-9, 9, size=(4000, 1))
    special = np.array([
        [-0.0, 0.0, -0.0],
        [np.nan, np.inf, -np.inf],
        [-1e-9, -4e-7, 5e-7],
        [0.0000005, 1.0000005, -2.5e-7],
        [1e300, -1e300, 123456789.123456789],
    ])
    points = np.concatenate([special, points, special])
    states = rng.integers(0, 5, size=len(points)).astype(np.uint8)
    return points, states


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("with_states", [False, True], ids=["points", "states"])
def test_save_ply_points_bytes_are_pinned(tmp_path, with_states):
    points, states = _cloud()
    path = tmp_path / "cloud.ply"
    save_ply_points(str(path), points, states=states if with_states else None)
    assert _digest(path) == CLOUD_DIGESTS["states" if with_states else "points"]


def test_save_ply_points_empty_cloud_is_pinned(tmp_path):
    path = tmp_path / "empty.ply"
    save_ply_points(str(path), np.empty((0, 3)))
    assert _digest(path) == EMPTY_CLOUD_DIGEST


@pytest.mark.parametrize("name", sorted(OBJ_DIGESTS))
def test_save_obj_bytes_are_pinned(tmp_path, name):
    path = tmp_path / f"{name}.obj"
    save_obj(str(path), make_shape(name))
    assert _digest(path) == OBJ_DIGESTS[name]
