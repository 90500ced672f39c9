"""Procedural desk-scale test meshes.

All generators return watertight triangle meshes centered at the origin with
every face on the outer surface, so full point-cloud coverage is attainable.
The L- and U-prisms are deliberately non-convex (strong self-occlusion).
Every quad face becomes two triangles through `_split_quads`; the sphere and
the torus lay out their quads with `_quad_grid`, in array passes.
"""

from __future__ import annotations

import numpy as np

from .geometry import spherical_direction
from .mesh import TriangleMesh


def _split_quads(quads) -> np.ndarray:
    """Triangles (a, b, c) and (a, c, d) of each quad (a, b, c, d), in quad order."""
    return np.asarray(quads).reshape(-1, 4)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)


def _quad_grid(rows: np.ndarray) -> np.ndarray:
    """Quads (a_j, b_j, b_j+1, a_j+1) between consecutive rows a, b of vertex
    indices, with the column index j+1 wrapping to 0."""
    nxt = np.roll(rows, -1, axis=1)
    return np.stack([rows[:-1], rows[1:], nxt[1:], nxt[:-1]], axis=-1)


def make_sphere(radius: float = 0.15, rings: int = 24, segments: int = 48) -> TriangleMesh:
    """UV sphere with pole fans."""
    polar = np.pi * np.arange(1, rings) / rings
    azimuth = 2.0 * np.pi * np.arange(segments) / segments
    ring_verts = radius * spherical_direction(polar[:, None], azimuth)
    verts = np.vstack([[0.0, 0.0, radius], [0.0, 0.0, -radius], ring_verts.reshape(-1, 3)])
    rows = 2 + np.arange((rings - 1) * segments).reshape(rings - 1, segments)
    nxt = np.roll(rows, -1, axis=1)
    tris = np.vstack(
        [
            np.stack([np.zeros(segments, dtype=int), rows[0], nxt[0]], axis=1),
            _split_quads(_quad_grid(rows)),
            np.stack([np.ones(segments, dtype=int), nxt[-1], rows[-1]], axis=1),
        ]
    )
    return TriangleMesh(vertices=verts, triangles=tris)


def make_cube(size: float = 0.24) -> TriangleMesh:
    h = size / 2.0
    verts = np.array(
        [
            [-h, -h, -h], [h, -h, -h], [h, h, -h], [-h, h, -h],
            [-h, -h, h], [h, -h, h], [h, h, h], [-h, h, h],
        ]
    )
    quads = [
        [0, 3, 2, 1],  # bottom (-z)
        [4, 5, 6, 7],  # top (+z)
        [0, 1, 5, 4],  # -y
        [2, 3, 7, 6],  # +y
        [1, 2, 6, 5],  # +x
        [3, 0, 4, 7],  # -x
    ]
    return TriangleMesh(vertices=verts, triangles=_split_quads(quads))


def make_torus(
    major_radius: float = 0.10,
    minor_radius: float = 0.04,
    n_major: int = 48,
    n_minor: int = 24,
) -> TriangleMesh:
    u = 2.0 * np.pi * np.arange(n_major)[:, None] / n_major
    v = 2.0 * np.pi * np.arange(n_minor) / n_minor
    w = major_radius + minor_radius * np.cos(v)
    components = w * np.cos(u), w * np.sin(u), minor_radius * np.sin(v)
    verts = np.stack(np.broadcast_arrays(*components), axis=-1)
    rows = np.arange(n_major * n_minor).reshape(n_major, n_minor)
    tris = _split_quads(_quad_grid(np.vstack([rows, rows[:1]])))
    return TriangleMesh(vertices=verts.reshape(-1, 3), triangles=tris)


def _cell_prism(cells: set[tuple[int, int]], cell: float, depth: float) -> TriangleMesh:
    """Extrude a union of unit grid cells along z into a conforming solid.

    Caps are two triangles per cell, side walls one quad per boundary cell
    edge, so every mesh edge is shared by exactly two triangles.
    """
    verts: list[tuple[float, float, float]] = []
    index: dict[tuple[float, float, float], int] = {}
    quads: list[list[int]] = []
    z0, z1 = -depth / 2.0, depth / 2.0

    def vid(x, y, z):
        key = (round(x, 9), round(y, 9), round(z, 9))
        if key not in index:
            index[key] = len(verts)
            verts.append(key)
        return index[key]

    def quad(*corners):
        quads.append([vid(*p) for p in corners])

    for (i, j) in cells:
        x0, y0 = i * cell, j * cell
        x1, y1 = x0 + cell, y0 + cell
        quad((x0, y0, z1), (x1, y0, z1), (x1, y1, z1), (x0, y1, z1))  # top
        quad((x0, y0, z0), (x0, y1, z0), (x1, y1, z0), (x1, y0, z0))  # bottom
        if (i, j - 1) not in cells:
            quad((x0, y0, z0), (x1, y0, z0), (x1, y0, z1), (x0, y0, z1))
        if (i, j + 1) not in cells:
            quad((x1, y1, z0), (x0, y1, z0), (x0, y1, z1), (x1, y1, z1))
        if (i - 1, j) not in cells:
            quad((x0, y1, z0), (x0, y0, z0), (x0, y0, z1), (x0, y1, z1))
        if (i + 1, j) not in cells:
            quad((x1, y0, z0), (x1, y1, z0), (x1, y1, z1), (x1, y0, z1))

    mesh = TriangleMesh(vertices=np.array(verts, dtype=float), triangles=_split_quads(quads))
    center = (mesh.vertices.min(axis=0) + mesh.vertices.max(axis=0)) / 2.0
    mesh.vertices = mesh.vertices - center
    return mesh


def make_l_prism(cell: float = 0.15, depth: float = 0.12) -> TriangleMesh:
    """L-shaped block: a 2x2 cell square with one quadrant removed, extruded."""
    return _cell_prism({(0, 0), (1, 0), (0, 1)}, cell, depth)


def make_u_prism(cell: float = 0.10, depth: float = 0.16) -> TriangleMesh:
    """U-channel block: a 3x2 cell box with the top-middle cell removed."""
    return _cell_prism({(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)}, cell, depth)


BUILTIN_SHAPES = {
    "sphere": make_sphere,
    "cube": make_cube,
    "torus": make_torus,
    "l_prism": make_l_prism,
    "u_prism": make_u_prism,
}


def make_shape(name: str) -> TriangleMesh:
    try:
        return BUILTIN_SHAPES[name]()
    except KeyError:
        raise ValueError(f"unknown shape {name!r}; available: {sorted(BUILTIN_SHAPES)}")
