"""Every module-level import and private name of a library module is used in
that module."""

import ast
from pathlib import Path

import pytest

import fairaudit

PACKAGE = Path(fairaudit.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and that no
    other line of it reads (``from __future__`` imports aside)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def unused_private_names(source: str) -> list[str]:
    """The private names (``_name``, not dunders) that the module-level
    functions, classes and assignments of ``source`` bind and that no line of it
    reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_modules_are_found():
    assert {"audit.py", "cli.py", "embed.py", "knn.py", "stumps.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.relative_to(PACKAGE).as_posix()
)
def test_no_unused_module_level_private_name(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_an_unused_private_name_is_found():
    source = (
        "_USED = 1\n_UNUSED: int = 2\n__all__ = []\n"
        "def _helper():\n    return _USED\n"
        "class _Gone:\n    pass\n"
        "def public():\n    return _Kept()\n"
        "class _Kept:\n    pass\n"
    )
    assert unused_private_names(source) == ["line 2: _UNUSED", "line 4: _helper", "line 6: _Gone"]


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 2: os"]
