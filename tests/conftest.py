import numpy as np
import pytest

from nbvplan.geometry import CameraIntrinsics, Pose
from nbvplan.mesh import save_obj
from nbvplan.shapes import make_shape


@pytest.fixture
def intrinsics():
    return CameraIntrinsics(
        fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480,
        max_range=5.0,
    )


@pytest.fixture
def identity_pose():
    return Pose(rotation=np.eye(3), translation=np.zeros(3))


@pytest.fixture(scope="session")
def mesh_dir(tmp_path_factory):
    """OBJ files for every builtin shape, written once per session."""
    d = tmp_path_factory.mktemp("meshes")
    for name in ("sphere", "cube", "torus", "l_prism", "u_prism"):
        save_obj(str(d / f"{name}.obj"), make_shape(name))
    return d
