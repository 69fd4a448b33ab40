"""The public names the package exports."""

from __future__ import annotations

import sltrack


def test_every_public_name_has_its_own_docstring():
    # a dataclass without a docstring gets its signature, "Name(field: type, ...)"
    undocumented = [
        name for name in sltrack.__all__
        if not (getattr(sltrack, name).__doc__ or "").strip()
        or getattr(sltrack, name).__doc__.startswith(f"{name}(")
    ]
    assert undocumented == []
