"""The camera model, the mesh, the voxel map and the ellipsoid fit are layers
below the planner: none imports another nbvplan module, at module level or
inside a function."""

import ast
from pathlib import Path

import pytest

import nbvplan

SRC = Path(nbvplan.__file__).parent


def nbvplan_imports(path: Path) -> list[str]:
    """`line: module` for every import of an nbvplan module in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")] if node.level else [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{node.lineno}: {n}" for n in names if n.startswith(".") or n.split(".")[0] == "nbvplan"]
    return found


@pytest.mark.parametrize("module", ["geometry", "mesh", "voxel", "ellipsoid"])
def test_layer_imports_no_other_nbvplan_module(module):
    assert nbvplan_imports(SRC / f"{module}.py") == []
