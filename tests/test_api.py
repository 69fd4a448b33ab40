"""The public names the package exports, and which module reads what."""

from __future__ import annotations

import ast
from pathlib import Path

import sltrack

SRC = Path(__file__).resolve().parent.parent / "src" / "sltrack"


def test_every_public_name_has_its_own_docstring():
    # a dataclass without a docstring gets its signature, "Name(field: type, ...)"
    undocumented = [
        name for name in sltrack.__all__
        if not (getattr(sltrack, name).__doc__ or "").strip()
        or getattr(sltrack, name).__doc__.startswith(f"{name}(")
    ]
    assert undocumented == []


def test_only_geometry_reads_the_principal_point():
    # project and triangulate take raw image coordinates; any other module
    # that reads u0 or v0 offsets a column or row that geometry offsets too
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "geometry.py" in modules
    reads = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in modules if path.name != "geometry.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("u0", "v0")
    ]
    assert reads == []
