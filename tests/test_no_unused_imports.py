"""Every module-level import of the library is used: no linter runs here, so
an import left behind by a refactor is caught by this test instead."""

from __future__ import annotations

import ast
from pathlib import Path

import pathevac


def _module_imports(body):
    """The import statements at module level, including those under an
    ``if`` such as ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of ``source`` that the module
    never uses, except names in ``__all__`` and imports on a line marked
    ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = _exported(tree)
    found = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used or name in keep or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            found.append(f"{alias.lineno}: {name}")
    return found


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
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["3: osp", "8: np"]
