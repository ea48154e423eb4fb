"""Every import of the library is used, at module level and inside
functions: no linter runs here, so an import left behind by a refactor is
caught by this test instead."""

from __future__ import annotations

import ast
from pathlib import Path

import pathevac


def _imports_by_scope(node, scope, found):
    """Append each import statement under ``node`` to ``found[scope]``, with
    scope the innermost function around it, or the module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            found.setdefault(scope, []).append(child)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _imports_by_scope(child, child, found)
        else:
            _imports_by_scope(child, scope, found)


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by imports of ``source`` that their scope, the module or
    the function the import is in, never uses, except names in the
    module's ``__all__`` and imports on a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imports = {}
    _imports_by_scope(tree, tree, imports)
    found = []
    for scope, nodes in imports.items():
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        keep = _exported(tree) if scope is tree else set()
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name in used or name in keep or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                found.append(f"{alias.lineno}: {name}")
    return sorted(found, key=lambda hit: int(hit.split(":")[0]))


def test_library_has_no_unused_imports():
    files = sorted(p for p in Path(pathevac.__file__).parent.glob("*.py")
                   if p.name != "__init__.py")
    assert len(files) > 10
    found = [f"{path.name}:{hit}" for path in files
             for hit in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, f"unused imports in src/pathevac: {found}"


def test_unused_import_check_sees_every_kind():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import TYPE_CHECKING, Any\n"
        "from json import dumps  # noqa: F401\n"
        "from json import loads\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "__all__ = ['loads']\n"
        "def f(x: Any):\n"
        "    import json\n"
        "    from math import pi, tau\n"
        "    if x:\n"
        "        import re\n"
        "    def g():\n"
        "        import sys\n"
        "        return pi + json.loads(x)\n"
        "    return os.sep, g\n"
        "def h():\n"
        "    return tau\n"
    )
    assert unused_imports(source) == ["3: osp", "8: np", "12: tau", "14: re", "16: sys"]
