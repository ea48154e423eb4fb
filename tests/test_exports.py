"""Every exported name exists: a deleted function left in ``__all__`` or
re-exported by the package fails here, not in a user's import."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pathevac

# ``__main__`` only runs the CLI; every other module declares ``__all__``.
MODULES = sorted(m.name for m in pkgutil.iter_modules(pathevac.__path__)
                 if m.name != "__main__")


def test_modules_found():
    assert {"biheap", "minmax", "model", "optk", "regret", "scenario_gen"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"pathevac.{name}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported), f"duplicates in {name}.__all__"
    missing = [e for e in exported if not hasattr(mod, e)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from pathevac.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_reexports_only_exported_names():
    init = Path(pathevac.__file__)
    tree = ast.parse(init.read_text(encoding="utf-8"), filename=str(init))
    bad = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"pathevac.{node.module}")
            for alias in node.names:
                if alias.name not in mod.__all__ or not hasattr(pathevac, alias.name):
                    bad.append(f"{node.module}.{alias.name}")
    assert not bad, f"re-exported but not exported by their module: {bad}"
