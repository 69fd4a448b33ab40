"""The public names the package exports, and which module reads what."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import sltrack

SRC = Path(__file__).resolve().parent.parent / "src" / "sltrack"


def test_all_lists_exactly_the_public_names_bound_on_the_package():
    # a stale entry fails the star import; a stale import widens the API unlisted
    assert [name for name in sltrack.__all__ if not hasattr(sltrack, name)] == []
    assert len(set(sltrack.__all__)) == len(sltrack.__all__)
    bound = {name for name, value in vars(sltrack).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(sltrack.__all__)


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


def test_every_exception_sltrack_defines_is_a_value_error():
    # one family for "this input is refused": the CLI maps it to exit 2
    public = {name: getattr(sltrack, name) for name in sltrack.__all__}
    errors = {name: cls for name, cls in public.items()
              if isinstance(cls, type) and issubclass(cls, BaseException)}
    assert sorted(errors) == ["CalibrationError", "ConfigError", "PgmError",
                              "TriangulationError"]
    assert [name for name, cls in errors.items() if not issubclass(cls, ValueError)] == []
