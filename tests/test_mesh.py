import re

import numpy as np
import pytest

from nbvplan.mesh import (
    EmptyMeshError,
    MeshFormatError,
    load_mesh,
    sample_surface_points,
    save_obj,
    save_ply_points,
)
from nbvplan.shapes import make_cube, make_shape, make_sphere, make_torus
from scalar_reference import point_to_mesh_distance

UNIT_CUBE_OBJ = """\
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 4 3
f 1 3 2
f 5 6 7
f 5 7 8
f 1 2 6
f 1 6 5
f 3 4 8
f 3 8 7
f 2 3 7
f 2 7 6
f 4 1 5
f 4 5 8
"""


def test_load_obj_unit_cube(tmp_path):
    path = tmp_path / "cube.obj"
    path.write_text(UNIT_CUBE_OBJ)
    mesh = load_mesh(str(path))
    assert len(mesh.vertices) == 8
    assert mesh.n_triangles == 12


def test_obj_quad_fan_triangulation(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_mesh(str(path))
    assert mesh.n_triangles == 2
    np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2], [0, 2, 3]])


def test_obj_slash_indices_and_negative(tmp_path):
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 -1/3/3\n")
    mesh = load_mesh(str(path))
    assert mesh.n_triangles == 1
    np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2]])


def test_truncated_obj_raises_with_line(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(str(path))
    assert ":2:" in str(err.value)


def test_truncated_ply_raises(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 4\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 2\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n"
    )
    with pytest.raises(MeshFormatError):
        load_mesh(str(path))


@pytest.mark.parametrize("element", ["vertex", "face"])
@pytest.mark.parametrize("count", ["abc", "-1", "2.5"])
def test_bad_ply_element_count_raises_with_line(tmp_path, element, count):
    counts = {"vertex": "3", "face": "1", element: count}
    path = tmp_path / "bad.ply"
    path.write_text(
        f"ply\nformat ascii 1.0\nelement vertex {counts['vertex']}\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"element face {counts['face']}\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    )
    line = 3 if element == "vertex" else 7
    message = f"{path}:{line}: {element} count must be a non-negative integer, got '{count}'"
    with pytest.raises(MeshFormatError, match=re.escape(message)):
        load_mesh(str(path))


PLY_HEADER_START = "ply\nformat ascii 1.0\n"
PLY_VERTEX = "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
PLY_FACE = "element face 1\nproperty list uchar int vertex_indices\n"
PLY_EDGE = "element edge 2\nproperty int vertex1\nproperty int vertex2\n"


def test_ply_face_element_before_vertex(tmp_path):
    path = tmp_path / "face_first.ply"
    path.write_text(PLY_HEADER_START + PLY_FACE + PLY_VERTEX + "end_header\n3 0 1 2\n0 0 0\n1 0 0\n0 1 0\n")
    mesh = load_mesh(str(path))
    np.testing.assert_array_equal(mesh.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2]])


def test_ply_other_element_lines_are_skipped(tmp_path):
    path = tmp_path / "edges.ply"
    body = "0 0 0\n1 0 0\n0 1 0\n0 1\n1 2\n3 0 1 2\n"
    path.write_text(PLY_HEADER_START + PLY_VERTEX + PLY_EDGE + PLY_FACE + "end_header\n" + body)
    mesh = load_mesh(str(path))
    np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2]])

    # Errors still name the line: the bad face is file line 18, after the edges.
    path.write_text(PLY_HEADER_START + PLY_VERTEX + PLY_EDGE + PLY_FACE + "end_header\n"
                    + body.replace("3 0 1 2", "3 0 1"))
    with pytest.raises(MeshFormatError, match=re.escape(f"{path}:18: bad face vertex count")):
        load_mesh(str(path))


@pytest.mark.parametrize(
    "suffix, text",
    [
        ("obj", "f 1 2 3\n"),
        ("ply", "ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\nproperty float y\n"
                "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
                "end_header\n3 0 1 2\n"),
    ],
    ids=["obj", "ply"],
)
def test_faces_without_vertices_are_out_of_range_in_both_formats(tmp_path, suffix, text):
    path = tmp_path / f"faces.{suffix}"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match="face index out of vertex range"):
        load_mesh(str(path))


PLY_TRIANGLE_HEADER = PLY_HEADER_START + PLY_VERTEX + PLY_FACE + "end_header\n"


OUT_OF_RANGE = {  # file name: (text, line of the bad face)
    # OBJ index 0 is no vertex, even when more vertices follow.
    "zero.obj": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\nv 1 1 0\n", 4),
    "past_last.obj": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n# c\nf 1 2 4\n", 6),
    "negative.obj": ("v 0 0 0\nv 1 0 0\nf 1 2 -3\nv 0 1 0\n", 3),
    "past_last.ply": (PLY_TRIANGLE_HEADER + "0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n", 13),
    "negative.ply": (PLY_TRIANGLE_HEADER + "0 0 0\n1 0 0\n0 1 0\n4 0 1 2 -1\n", 13),
}
NON_FINITE = {  # file name: (text, line of the bad vertex)
    "nan.obj": ("v 0 0 0\nv 1 nan 0\nv 0 1 0\nf 1 2 3\n", 2),
    "inf.obj": ("v 0 0 0\nv 1 0 0\nv 0 1 -inf\nf 1 2 3\n", 3),
    "overflow.obj": ("v 1e400 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", 1),
    "nan.ply": (PLY_TRIANGLE_HEADER + "0 0 0\n1 0 NaN\n0 1 0\n3 0 1 2\n", 11),
    "inf.ply": (PLY_TRIANGLE_HEADER + "0 0 0\n1 0 0\ninf 1 0\n3 0 1 2\n", 12),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_face_index_names_the_face_line(tmp_path, name):
    text, line = OUT_OF_RANGE[name]
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=re.escape(f"{path}:{line}: face index out of vertex range")):
        load_mesh(str(path))


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_vertex_is_rejected_at_its_line(tmp_path, name):
    text, line = NON_FINITE[name]
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=re.escape(f"{path}:{line}: non-finite vertex coordinate")):
        load_mesh(str(path))


def test_empty_mesh_raises(tmp_path):
    path = tmp_path / "empty.obj"
    path.write_text("# nothing here\n")
    with pytest.raises(EmptyMeshError):
        load_mesh(str(path))


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_mesh("/nonexistent/mesh.obj")


def test_unsupported_extension(tmp_path):
    path = tmp_path / "mesh.stl"
    path.write_text("solid x\n")
    with pytest.raises(MeshFormatError):
        load_mesh(str(path))


def test_ply_round_trip(tmp_path):
    mesh = make_cube(0.2)
    lines = ["ply", "format ascii 1.0", f"element vertex {len(mesh.vertices)}",
             "property float x", "property float y", "property float z",
             f"element face {mesh.n_triangles}",
             "property list uchar int vertex_indices", "end_header"]
    for v in mesh.vertices:
        lines.append(f"{v[0]} {v[1]} {v[2]}")
    for t in mesh.triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    path = tmp_path / "cube.ply"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_mesh(str(path))
    assert len(loaded.vertices) == len(mesh.vertices)
    assert loaded.n_triangles == mesh.n_triangles
    np.testing.assert_allclose(loaded.vertices, mesh.vertices)


def test_degenerate_faces_dropped(tmp_path):
    path = tmp_path / "degen.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 1 2\nf 1 2 2\n")
    mesh = load_mesh(str(path))
    assert mesh.n_triangles == 1


def test_small_faces_are_kept(tmp_path):
    """Faces are dropped by shape, not size: a 2.5 cm sphere with 0.4 mm
    rings keeps every face through `save_obj` and `load_mesh`."""
    mesh = make_sphere(0.025, 200, 400)
    path = tmp_path / "small_sphere.obj"
    save_obj(str(path), mesh)
    assert load_mesh(str(path)).n_triangles == mesh.n_triangles == 159_200


def test_obj_save_load_round_trip(tmp_path):
    mesh = make_torus()
    path = tmp_path / "t.obj"
    save_obj(str(path), mesh)
    loaded = load_mesh(str(path))
    assert loaded.n_triangles == mesh.n_triangles
    np.testing.assert_allclose(loaded.vertices, mesh.vertices, atol=1e-8)


def test_save_ply_points_readable(tmp_path):
    pts = np.array([[0.0, 0.5, 1.0], [1.5, 2.0, -3.0]])
    path = tmp_path / "cloud.ply"
    save_ply_points(str(path), pts, states=[2, 4])
    text = path.read_text().splitlines()
    assert text[0] == "ply"
    assert "element vertex 2" in text
    assert "property int state" in text
    assert text[-1].endswith(" 4")


def test_save_ply_points_rejects_a_state_count_that_differs(tmp_path):
    with pytest.raises(ValueError, match="1 states for 2 points"):
        save_ply_points(str(tmp_path / "cloud.ply"), np.zeros((2, 3)), states=[2])


def test_sample_surface_points_on_surface_and_deterministic():
    mesh = make_sphere(radius=0.15)
    pts_a = sample_surface_points(mesh, 500, seed=11)
    pts_b = sample_surface_points(mesh, 500, seed=11)
    np.testing.assert_array_equal(pts_a, pts_b)
    dist = point_to_mesh_distance(pts_a[:100], mesh)
    assert dist.max() < 1e-9


def test_sample_surface_area_weighting():
    # a mesh of two triangles with 99:1 area ratio; sampling should track area
    import nbvplan.mesh as mm

    verts = np.array([[0, 0, 0], [9.9, 0, 0], [0, 2, 0], [10, 0, 0], [10.1, 0, 0], [10, 0.2, 0]], dtype=float)
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    mesh = mm.TriangleMesh(vertices=verts, triangles=tris)
    pts = sample_surface_points(mesh, 4000, seed=0)
    frac_small = np.mean(pts[:, 0] >= 9.95)
    assert frac_small < 0.01


# non-default sizes: the save_obj digests pin only the default meshes
OTHER_SIZES = {
    "sphere_2x3": lambda: make_sphere(0.1, rings=2, segments=3),
    "sphere_5x7": lambda: make_sphere(0.05, rings=5, segments=7),
    "torus_3x3": lambda: make_torus(0.1, 0.04, n_major=3, n_minor=3),
    "torus_7x5": lambda: make_torus(0.2, 0.03, n_major=7, n_minor=5),
}


@pytest.mark.parametrize("name", ["sphere", "cube", "torus", "l_prism", "u_prism", *OTHER_SIZES])
def test_builtin_shapes_are_clean(name):
    mesh = OTHER_SIZES[name]() if name in OTHER_SIZES else make_shape(name)
    assert mesh.n_triangles > 0
    assert mesh.triangle_areas().min() > 1e-10
    # watertight: every edge shared by exactly two triangles
    edges = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    assert set(edges.values()) == {2}
    # oriented: each directed edge occurs once, so the two triangles on an
    # edge traverse it in opposite directions
    directed = np.stack([mesh.triangles, np.roll(mesh.triangles, -1, axis=1)], axis=-1)
    assert len(np.unique(directed.reshape(-1, 2), axis=0)) == 3 * mesh.n_triangles
    # outward: the signed volume, a sum of corner triple products, is positive
    v0, v1, v2 = mesh.triangle_corners().transpose(1, 0, 2)
    assert (v0 * np.cross(v1, v2)).sum() / 6.0 > 0
