"""The array mesh loaders against the per-line reference loaders.

Generated OBJ and PLY files must load to the same vertices, bit for bit,
and the same triangles, or raise the same exception with the same message.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_reference import load_obj_lines, load_ply_lines

from nbvplan.mesh import _load_obj, _load_ply

SEPARATORS = st.sampled_from([" ", " ", "\t", "  ", " \t "])
NEWLINES = st.sampled_from(["\n", "\n", "\r\n"])
COORDS = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False).map(repr),
    st.sampled_from(["0", "-0", "-0.0", "1e-3", "+2", "1_0", "7"]),
)
BAD_COORDS = st.sampled_from(["nan", "inf", "-inf", "1e500", "abc", "1,5", "0x1", "1/2", "."])
BAD_INDICES = st.sampled_from(
    ["x", "/1", "1.5", "", "0", "-1", "9", "-9", "99999999999999999999", "-99999999999999999999"]
)


def _maybe(draw, rate, good, bad):
    """A draw from `bad` with probability `rate` percent, else from `good`."""
    return draw(bad) if draw(st.integers(0, 99)) < rate else draw(good)


def _join(draw, tokens):
    if draw(st.booleans()):
        return draw(SEPARATORS).join(tokens)
    return "".join(draw(SEPARATORS) + t for t in tokens) + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def obj_text(draw):
    """OBJ text; with a bad-token rate of 0 every face index is in range."""
    rate = draw(st.sampled_from([0, 0, 2, 10]))
    kind = st.sampled_from(["v", "v", "v", "f", "f", "other", "comment", "blank"])
    kinds = draw(st.lists(kind, min_size=4, max_size=30))
    n_vertices = kinds.count("v")
    lines = []
    for kind in kinds:
        if kind == "v":
            n = _maybe(draw, rate, st.just(3), st.sampled_from([2, 4]))
            lines.append(_join(draw, ["v"] + [_maybe(draw, rate, COORDS, BAD_COORDS) for _ in range(n)]))
        elif kind == "f":
            before = sum(line.split()[:1] == ["v"] for line in lines)
            valid = st.integers(1, max(n_vertices, 1))
            if before:
                valid |= st.integers(-before, -1)
            corners = []
            for _ in range(_maybe(draw, rate, st.integers(3, 6), st.just(2))):
                i = _maybe(draw, rate, valid.map(str), BAD_INDICES)
                corners.append(draw(st.sampled_from(["{}", "{}", "{}/1", "{}//2", "{}/1/2"])).format(i))
            lines.append(_join(draw, ["f"] + corners))
        elif kind == "other":
            tag = draw(st.sampled_from(["vt", "vn", "o", "g", "s", "usemtl", "V", "F"]))
            lines.append(_join(draw, [tag] + draw(st.lists(COORDS, max_size=3))))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# v 1 2 3", "  #f 1 2 3", "#v"])))
        else:
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
    return "".join(line + draw(NEWLINES) for line in lines)


@st.composite
def ply_text(draw):
    """PLY text with vertex, face and other elements in any order."""
    rate = draw(st.sampled_from([0, 0, 2, 10]))
    elements = ["vertex", "face"] + draw(st.lists(st.sampled_from(["edge", "material"]), max_size=2))
    elements = draw(st.permutations(elements))
    counts = {name: draw(st.integers(0, 8)) for name in elements}
    counts["vertex"] = max(counts["vertex"], 1)
    extra_props = draw(st.lists(st.sampled_from(["nx", "s"]), max_size=2))
    vertex_props = draw(st.permutations(["x", "y", "z"] + extra_props))
    index = st.integers(0, counts["vertex"] - 1).map(str)
    header = ["ply", "format ascii 1.0", "comment generated"]
    body = []
    for name in elements:
        header.append(f"element {name} {counts[name]}")
        if name == "vertex":
            header += [f"property float {p}" for p in vertex_props]
        elif name == "face":
            header.append("property list uchar int vertex_indices")
        else:
            header += ["property int vertex1", "property int vertex2"]
        for _ in range(counts[name]):
            if name == "vertex":
                n = _maybe(draw, rate, st.just(len(vertex_props)), st.integers(0, 6))
                row = [_maybe(draw, rate, COORDS, BAD_COORDS) for _ in range(n)]
            elif name == "face":
                k = draw(st.integers(3, 5))
                extra = _maybe(draw, rate, st.just(0), st.sampled_from([-1, 1]))
                row = [_maybe(draw, rate, st.just(str(k)), st.integers(-2, 6).map(str))]
                row += [_maybe(draw, rate, index, BAD_INDICES) for _ in range(k + extra)]
            else:
                row = [str(draw(st.integers(0, 8))) for _ in range(2)]
            body.append(_join(draw, row))
    header.append("end_header")
    if draw(st.integers(0, 99)) < rate:
        body = body[: draw(st.integers(0, len(body)))]
    return "".join(line + draw(NEWLINES) for line in header + body)


def _outcome(load, path):
    try:
        mesh = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return mesh.vertices.shape, mesh.vertices.tobytes(), mesh.triangles.tolist()


def _check_equal(tmp_path, suffix, text, array_load, line_load):
    path = tmp_path / f"m.{suffix}"
    path.write_bytes(text.encode())
    assert _outcome(array_load, str(path)) == _outcome(line_load, str(path))


@given(text=obj_text())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_obj_loader_equals_the_per_line_loader(tmp_path, text):
    _check_equal(tmp_path, "obj", text, _load_obj, load_obj_lines)


@given(text=ply_text())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ply_loader_equals_the_per_line_loader(tmp_path, text):
    _check_equal(tmp_path, "ply", text, _load_ply, load_ply_lines)
