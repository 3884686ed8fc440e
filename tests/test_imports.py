"""Import hygiene of the package: no unused module-level import, no
re-exports, so every name is imported from the module that defines it, and
no private module-level helper that nothing in the package names; and an
oracle layer that imports nothing of the package it judges."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import cli_env

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "zsite"
MODULES = sorted(SRC.glob("*.py"))
ORACLE_LAYER = ("clibench/gen.py", "clibench/oracles.py", "tests/oracles.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in bound.items() if name not in used} == {}


def _names(tree) -> list[str]:
    """Every name and attribute name read or written under ``tree``."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def test_every_private_helper_is_named_outside_its_own_def():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        if named[node.name] == Counter(_names(node))[node.name]
    ]
    assert unused == []


def test_importing_the_package_loads_no_submodule():
    script = "import sys, zsite; print(sorted(m for m in sys.modules if m.startswith('zsite.')))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=cli_env(), check=True
    )
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", ORACLE_LAYER)
def test_the_generators_and_oracles_import_no_zsite_module(name):
    tree = ast.parse((ROOT / name).read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "zsite"] == []
