"""Triangle mesh I/O and sampling.

Supported inputs are ASCII OBJ (v/f records, polygons fan-triangulated) and
ASCII PLY with vertex/face elements in either order; the lines of any other
element are skipped.  Units are assumed to be meters.
Faces whose corners repeat or are collinear are dropped at load time,
whatever the face's size.  A malformed file raises
MeshFormatError naming the file and the line of the first bad record.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

_SLASH_TAIL = re.compile(r"/\S*")
_INT64 = np.iinfo(np.int64)


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed; carries file line context."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class EmptyMeshError(ValueError):
    """Raised when a parsed mesh contains no usable triangles."""


@dataclass
class TriangleMesh:
    vertices: np.ndarray   # (V, 3) float, meters
    triangles: np.ndarray  # (F, 3) int, indices into vertices

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size and self.triangles.max() >= len(self.vertices):
            raise ValueError("triangle index out of range")
        if self.triangles.size and self.triangles.min() < 0:
            raise ValueError("negative triangle index")

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_corners(self) -> np.ndarray:
        """Corner positions per face, shape (F, 3, 3)."""
        return self.vertices[self.triangles]

    def triangle_areas(self) -> np.ndarray:
        tris = self.triangle_corners()
        cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)


def _read_records(path, lines, first_line, parse, record_error):
    """`parse(tokens, starts, counts)` over `lines`, in array passes.

    `tokens` holds the `str.split()` tokens of all lines as one object
    array; line k has `counts[k]` of them from `starts[k]`.  `parse` raises
    ValueError when a count, conversion or finiteness check fails; the lines
    are then checked one at a time by `record_error(parts)`, which returns
    the message for a bad line or None, and the first bad line (file line
    `first_line` + k) is raised as a MeshFormatError.
    """
    parts = list(map(str.split, lines))
    counts = np.fromiter(map(len, parts), np.int64, len(parts))
    tokens = np.array(list(chain.from_iterable(parts)), dtype=object)
    try:
        return parse(tokens, np.cumsum(counts) - counts, counts)
    except ValueError:
        for k, words in enumerate(parts):
            message = record_error(words)
            if message:
                raise MeshFormatError(path, first_line + k, message) from None
        raise


def _ranges(begin: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The concatenated `np.arange(b, b + n)` for each b, n."""
    offsets = np.cumsum(length) - length
    return np.repeat(begin - offsets, length) + np.arange(length.sum())


def _ints(tokens: np.ndarray) -> np.ndarray:
    """Tokens as int64 by `int()`, which raises ValueError on a bad token.

    Values past the int64 range are clipped to it, which still leaves them
    outside any vertex range.
    """
    try:
        return tokens.astype(np.int64)
    except OverflowError:
        return np.array([min(max(int(t), _INT64.min), _INT64.max) for t in tokens], dtype=np.int64)


def _coords(tokens: np.ndarray) -> np.ndarray:
    """Tokens as float64 by `float()`; ValueError on a bad or non-finite one."""
    coords = tokens.astype(float)
    if not np.isfinite(coords).all():
        raise ValueError("non-finite vertex coordinate")
    return coords


def _fan(index: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Fan triangles of polygons whose `n` corners follow each other in `index`.

    Polygon k with corners c0..c(n-1) gives (c0, ci, ci+1) for i = 1..n-2,
    in polygon order.
    """
    first = np.cumsum(n) - n
    mid = _ranges(first + 1, n - 2)
    return np.stack([index[np.repeat(first, n - 2)], index[mid], index[mid + 1]], axis=1)


def _build_mesh(path: str, vertices: np.ndarray, triangles: np.ndarray, lines: np.ndarray) -> TriangleMesh:
    """Check the triangles against the vertices, then drop degenerate faces.

    `lines` holds the file line of each triangle's face, which an
    out-of-range index names.
    """
    if not len(triangles):
        raise EmptyMeshError(f"{path}: no triangles found")
    bad = ((triangles < 0) | (triangles >= len(vertices))).any(axis=1)
    if bad.any():
        raise MeshFormatError(path, int(lines[bad.argmax()]), "face index out of vertex range")
    corners = vertices[triangles]
    e1, e2 = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    cross = np.cross(e1, e2)
    # |e1 x e2| = |e1| |e2| sin(corner angle): a sine at rounding level
    # (1e-12 here) means repeated or collinear corners, at any scale.
    cross_sq, e1_sq, e2_sq = (np.einsum("ij,ij->i", x, x) for x in (cross, e1, e2))
    keep = cross_sq > 1e-24 * e1_sq * e2_sq
    return TriangleMesh(vertices=vertices, triangles=triangles[keep])


def _obj_record_error(parts: list[str]) -> str | None:
    """Why one OBJ line cannot be read, or None."""
    if not parts or parts[0] not in ("v", "f"):
        return None
    if parts[0] == "v":
        if len(parts) < 4:
            return "vertex record needs 3 coordinates"
        try:
            xyz = [float(t) for t in parts[1:4]]
        except ValueError as exc:
            return f"bad vertex coordinate: {exc}"
        return None if np.isfinite(xyz).all() else "non-finite vertex coordinate"
    if len(parts) < 4:
        return "face record needs >= 3 vertices"
    for token in parts[1:]:
        try:
            int(token.split("/")[0])
        except ValueError:
            return f"bad face index {token!r}"
    return None


def _parse_obj(tokens: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """Vertices, fan triangles and each triangle's line index from OBJ lines."""
    rows = np.flatnonzero(counts)
    tags = tokens[starts[rows]]
    v_rows, f_rows = rows[tags == "v"], rows[tags == "f"]
    if min(counts[v_rows].min(initial=4), counts[f_rows].min(initial=4)) < 4:
        raise ValueError("short v or f record")
    vertices = _coords(tokens[starts[v_rows, None] + np.arange(1, 4)])
    n = counts[f_rows] - 1
    corners = tokens[_ranges(starts[f_rows] + 1, n)]
    # A corner is v, v/vt, v//vn or v/vt/vn: keep the text before the first '/'.
    heads = _SLASH_TAIL.sub("", " ".join(corners)).split(" ") if len(corners) else []
    i = _ints(np.array(heads, dtype=object))
    # OBJ indices are 1-based; negatives count back from the vertices read
    # before the face's line; 0 is no vertex.
    before = np.repeat(np.searchsorted(v_rows, f_rows), n)
    index = np.where(i > 0, i - 1, np.where(i < 0, before + i, -1))
    return vertices, _fan(index, n), np.repeat(f_rows, n - 2)


def _load_obj(path: str) -> TriangleMesh:
    with open(path, "r") as fh:
        lines = fh.read().split("\n")
    vertices, triangles, rows = _read_records(path, lines, 1, _parse_obj, _obj_record_error)
    return _build_mesh(path, vertices, triangles, rows + 1)


def _load_ply(path: str) -> TriangleMesh:
    with open(path, "r") as fh:
        lines = fh.read().splitlines()

    if not lines or lines[0].strip() != "ply":
        raise MeshFormatError(path, 1, "missing 'ply' magic")
    elements: list[tuple[str, int]] = []  # (name, count) in header order
    vertex_props: list[str] = []
    body_start = None
    for line_no, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "format":
            if len(parts) < 2 or parts[1] != "ascii":
                raise MeshFormatError(path, line_no, "only ascii PLY is supported")
        elif parts[0] == "element":
            if len(parts) != 3:
                raise MeshFormatError(path, line_no, "malformed element record")
            if not parts[2].isdecimal():
                raise MeshFormatError(
                    path, line_no, f"{parts[1]} count must be a non-negative integer, got {parts[2]!r}"
                )
            elements.append((parts[1], int(parts[2])))
        elif parts[0] == "property" and elements and elements[-1][0] == "vertex":
            vertex_props.append(parts[-1])
        elif parts[0] == "end_header":
            body_start = line_no  # lines[] is 0-based with offset 1 already applied
            break
    if body_start is None:
        raise MeshFormatError(path, len(lines), "no end_header")
    if not {"vertex", "face"} <= {name for name, _ in elements}:
        raise MeshFormatError(path, body_start, "PLY must declare vertex and face elements")
    try:
        xyz = np.array([vertex_props.index(k) for k in ("x", "y", "z")])
    except ValueError:
        raise MeshFormatError(path, body_start, "vertex element lacks x/y/z properties")
    if len(lines) - body_start < sum(count for _, count in elements):
        raise MeshFormatError(path, len(lines), "file truncated before declared element counts")

    def parse_vertices(tokens, starts, counts):
        if (counts <= xyz.max()).any():
            raise ValueError("short vertex line")
        return _coords(tokens[starts[:, None] + xyz])

    def vertex_error(parts):
        try:
            coords = [float(parts[k]) for k in xyz]
        except (ValueError, IndexError):
            return "bad vertex line"
        return None if np.isfinite(coords).all() else "non-finite vertex coordinate"

    def parse_faces(tokens, starts, counts):
        if not counts.all():
            raise ValueError("empty face line")
        n = _ints(tokens[starts])
        if (n < 3).any() or (n > counts - 1).any():
            raise ValueError("bad face vertex count")
        return _fan(_ints(tokens[_ranges(starts + 1, n)]), n), np.repeat(np.arange(len(n)), n - 2)

    def face_error(parts):
        try:
            n = int(parts[0])
            idx = [int(tok) for tok in parts[1 : 1 + n]]
        except (ValueError, IndexError):
            return "bad face line"
        return "bad face vertex count" if len(idx) != n or n < 3 else None

    vertices = np.empty((0, 3), dtype=float)
    triangles, tri_lines = [np.empty((0, 3), dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    start = body_start  # the element's first line is lines[start], file line start + 1
    for name, count in elements:
        body = lines[start : start + count]
        if name == "vertex":
            vertices = _read_records(path, body, start + 1, parse_vertices, vertex_error)
        elif name == "face":
            tri, rows = _read_records(path, body, start + 1, parse_faces, face_error)
            triangles.append(tri)
            tri_lines.append(start + 1 + rows)
        start += count
    return _build_mesh(path, vertices, np.concatenate(triangles), np.concatenate(tri_lines))


def load_mesh(path: str) -> TriangleMesh:
    """Load an ASCII OBJ or PLY triangle mesh; polygons are fan-triangulated."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"mesh not found: {path}")
    ext = os.path.splitext(path)[1].lower()
    if ext == ".obj":
        mesh = _load_obj(path)
    elif ext == ".ply":
        mesh = _load_ply(path)
    else:
        raise MeshFormatError(path, 0, f"unsupported mesh extension {ext!r}")
    if mesh.n_triangles == 0:
        raise EmptyMeshError(f"{path}: all faces degenerate")
    return mesh


def _write_rows(fh, row_format: str, *columns: np.ndarray) -> None:
    """Write the rows of `columns` side by side, one `%` format per chunk of rows.

    Each column is an (N,) or (N, k) array; its values are formatted as
    Python objects, so `%.6f` and `%d` give the same text as f-strings.  The
    chunk bounds the text held at once.
    """
    step = 65536
    for start in range(0, len(columns[0]), step):
        rows = np.column_stack([c[start : start + step].astype(object) for c in columns])
        fh.write(row_format * len(rows) % tuple(rows.ravel().tolist()))


def save_ply_points(path: str, points: np.ndarray, states: np.ndarray | None = None) -> None:
    """Write a point cloud as ASCII PLY; optional integer `state` per vertex."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    columns, row_format = [points], "%.6f %.6f %.6f\n"
    if states is not None:
        states = np.asarray(states).ravel()
        if len(states) != len(points):
            raise ValueError(f"{len(states)} states for {len(points)} points")
        columns, row_format = [points, states], "%.6f %.6f %.6f %d\n"
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(points)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        if states is not None:
            fh.write("property int state\n")
        fh.write("end_header\n")
        _write_rows(fh, row_format, *columns)


def save_obj(path: str, mesh: TriangleMesh) -> None:
    """Write a mesh as ASCII OBJ."""
    with open(path, "w") as fh:
        _write_rows(fh, "v %.9f %.9f %.9f\n", mesh.vertices)
        _write_rows(fh, "f %d %d %d\n", mesh.triangles + 1)


def sample_surface_points(mesh: TriangleMesh, count: int, seed: int) -> np.ndarray:
    """Area-uniform surface samples: area-weighted face choice + uniform barycentric."""
    rng = np.random.default_rng(seed)
    areas = mesh.triangle_areas()
    probs = areas / areas.sum()
    face_idx = rng.choice(mesh.n_triangles, size=count, p=probs)
    corners = mesh.triangle_corners()[face_idx]
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    w0 = 1.0 - r1
    w1 = r1 * (1.0 - r2)
    w2 = r1 * r2
    return (
        w0[:, None] * corners[:, 0]
        + w1[:, None] * corners[:, 1]
        + w2[:, None] * corners[:, 2]
    )
