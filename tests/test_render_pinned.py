"""Pinned depth images of the builtin shapes: a renderer rewrite must keep
every pixel bit for bit.

The digests are SHA-256 of `depths.tobytes()` at 640x480, recorded from the
renderer that ran one Moller-Trumbore block per triangle.  Each shape is
seen from three fixed poses: an oblique view at about 0.7 m, a close view
at about 0.35 m, and a camera beside the object looking past it, so that
some triangles straddle the principal plane and some lie wholly behind the
camera.  One more frame pins the seeded range noise.
"""

import hashlib

import numpy as np
import pytest

from nbvplan.geometry import look_at
from nbvplan.render import render_depth
from nbvplan.shapes import make_shape

UP = np.array([0.0, 0.0, 1.0])
ORIGIN = np.zeros(3)

# name -> (position, target)
POSES = {
    "oblique": ([0.5, 0.3, 0.4], ORIGIN),
    "close": ([0.0, -0.35, 0.05], ORIGIN),
    "beside": ([-0.1, -0.2, 0.03], [1.0, -0.1, 0.02]),
}

# (shape, pose) -> digest of depths.tobytes()
PINNED = {
    ("cube", "beside"): "63ffdb006e8c0e86ecfb0260d3d20d6c315030da35246ecffe61826b704b7f69",
    ("cube", "close"): "c8d77001f1e34f07759d8480525e6805a00989bfc2442d913f483389f052335b",
    ("cube", "oblique"): "6ab4f263eb95758b55f998fab83f8caa4a471a92a2085ba1b88cf7c41ace6140",
    ("l_prism", "beside"): "309a7df576a57fe919bf0855afe2cdbd29aa8b773be16eb9c0a1fdf33de4942b",
    ("l_prism", "close"): "3630504ab14f45ef00e1827c048311bab00debdd9452bbcc64fd9f941f69a2c8",
    ("l_prism", "oblique"): "2cbcb1eed4855fb0cfee084856b112bbf2d62ba2a3ddafc50970d1d3667c27df",
    ("sphere", "beside"): "74cb84e192133292cabbf13af03887cec30b77317f41be054f562813b29cfc31",
    ("sphere", "close"): "72eedd242d315b3e5d552457e279e5e82ff4000acae71e796db6d29a82a7fae9",
    ("sphere", "oblique"): "5302ba5739a6342a6fa9cd0e5f52da972aeec4ab2d2d7875ef9334bc4f80df41",
    ("torus", "beside"): "f44bf1fe3396451e51037a0c079cf7d990604327dac0796e8ee8b77ab99bb5c2",
    ("torus", "close"): "6311708b203a305954c1931babc7e81c382c2c83872988d2c8420bfacf8731ce",
    ("torus", "oblique"): "23142fa5f478a91ef88bdd5e272010d5a056f51f8ba7f83107535c7bef4a74b9",
    ("u_prism", "beside"): "4e17e5ebf1b210e078f354c7602363a1e0f9cd32e406baa73753614a5b203ca9",
    ("u_prism", "close"): "9e4e891dd44ac8ddda64dee747bb431cbb6a013da326317af883e204f1213400",
    ("u_prism", "oblique"): "04961ba4bd596dd68500568615091efe0f6fd4eba83e3fd300e02e9d46c0a30f",
}
# sphere, oblique, noise_sigma=0.002, noise_seed=11
PINNED_NOISY = "0815b5f398776481fdaa203dbea2d70ca1fd336cdc3838761b4e266188c3a6d2"


def digest(depths: np.ndarray) -> str:
    return hashlib.sha256(depths.tobytes()).hexdigest()


@pytest.mark.parametrize("shape, pose", sorted(PINNED))
def test_render_pinned(shape, pose, intrinsics):
    position, target = POSES[pose]
    frame = render_depth(make_shape(shape), look_at(position, target, UP), intrinsics)
    assert frame.depths.dtype == np.float64 and frame.depths.shape == (480, 640)
    assert digest(frame.depths) == PINNED[(shape, pose)]


def test_render_pinned_with_noise(intrinsics):
    position, target = POSES["oblique"]
    pose = look_at(position, target, UP)
    frame = render_depth(make_shape("sphere"), pose, intrinsics, noise_sigma=0.002, noise_seed=11)
    assert digest(frame.depths) == PINNED_NOISY
