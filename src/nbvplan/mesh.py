"""Triangle mesh I/O and sampling.

Supported inputs are ASCII OBJ (v/f records, polygons fan-triangulated) and
ASCII PLY with vertex/face elements in either order; the lines of any other
element are skipped.  Units are assumed to be meters.
Zero-area faces are dropped at load time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DEGENERATE_AREA_EPS = 1e-14  # squared-meter scale, doubled-area squared below this is dropped


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


def _build_mesh(path: str, vertices: np.ndarray, triangles: list[list[int]]) -> TriangleMesh:
    """Check the parsed faces against the vertices, then drop zero-area faces."""
    if not triangles:
        raise EmptyMeshError(f"{path}: no triangles found")
    tri = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    if tri.max() >= len(vertices) or tri.min() < 0:
        raise MeshFormatError(path, 0, "face index out of vertex range")
    corners = vertices[tri]
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    keep = np.einsum("ij,ij->i", cross, cross) > DEGENERATE_AREA_EPS
    return TriangleMesh(vertices=vertices, triangles=tri[keep])


def _fan_triangulate(indices: list[int]) -> list[list[int]]:
    return [[indices[0], indices[i], indices[i + 1]] for i in range(1, len(indices) - 1)]


def _load_obj(path: str) -> TriangleMesh:
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise MeshFormatError(path, line_no, "vertex record needs 3 coordinates")
                try:
                    vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError as exc:
                    raise MeshFormatError(path, line_no, f"bad vertex coordinate: {exc}")
            elif tag == "f":
                if len(parts) < 4:
                    raise MeshFormatError(path, line_no, "face record needs >= 3 vertices")
                idx = []
                for token in parts[1:]:
                    head = token.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise MeshFormatError(path, line_no, f"bad face index {token!r}")
                    # OBJ indices are 1-based; negatives count from the end.
                    idx.append(i - 1 if i > 0 else len(vertices) + i)
                faces.extend(_fan_triangulate(idx))
            # other record types (vn, vt, o, g, s, mtllib, usemtl, ...) are ignored
    return _build_mesh(path, np.asarray(vertices, dtype=float), faces)


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
        xi, yi, zi = (vertex_props.index(k) for k in ("x", "y", "z"))
    except ValueError:
        raise MeshFormatError(path, body_start, "vertex element lacks x/y/z properties")
    if len(lines) - body_start < sum(count for _, count in elements):
        raise MeshFormatError(path, len(lines), "file truncated before declared element counts")

    vertices = np.empty((0, 3), dtype=float)
    faces: list[list[int]] = []
    start = body_start  # the element's first line is lines[start], file line start + 1
    for name, count in elements:
        rows = lines[start : start + count]
        if name == "vertex":
            vertices = np.empty((count, 3), dtype=float)
            for i, row in enumerate(rows):
                parts = row.split()
                try:
                    vertices[i] = (float(parts[xi]), float(parts[yi]), float(parts[zi]))
                except (ValueError, IndexError):
                    raise MeshFormatError(path, start + i + 1, "bad vertex line")
        elif name == "face":
            for i, row in enumerate(rows):
                parts = row.split()
                try:
                    n = int(parts[0])
                    idx = [int(tok) for tok in parts[1 : 1 + n]]
                except (ValueError, IndexError):
                    raise MeshFormatError(path, start + i + 1, "bad face line")
                if len(idx) != n or n < 3:
                    raise MeshFormatError(path, start + i + 1, "bad face vertex count")
                faces.extend(_fan_triangulate(idx))
        start += count
    return _build_mesh(path, vertices, faces)


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


def save_ply_points(path: str, points: np.ndarray, states: np.ndarray | None = None) -> None:
    """Write a point cloud as ASCII PLY; optional integer `state` per vertex."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(points)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        if states is not None:
            fh.write("property int state\n")
        fh.write("end_header\n")
        if states is None:
            for p in points:
                fh.write(f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f}\n")
        else:
            for p, s in zip(points, np.asarray(states).ravel()):
                fh.write(f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f} {int(s)}\n")


def save_obj(path: str, mesh: TriangleMesh) -> None:
    """Write a mesh as ASCII OBJ."""
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9f} {v[1]:.9f} {v[2]:.9f}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


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
