"""Library invariants raise real exceptions: ``python -O`` strips ``assert``."""

from __future__ import annotations

import ast
from pathlib import Path

import pathevac


def test_library_has_no_assert_statements():
    files = sorted(Path(pathevac.__file__).parent.glob("*.py"))
    assert len(files) > 10
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/pathevac: {found}"
