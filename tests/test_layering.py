"""No module of ``fairaudit.classifiers`` imports ``fairaudit.audit``.

``audit.LEARNERS`` is the only table that dispatches on a learner family. A
classifiers module that reached back into ``audit``, even by an import inside
a function, would make room for a second dispatch path.
"""

import ast
from pathlib import Path

import pytest

import fairaudit

PACKAGE = Path(fairaudit.__file__).parent
CLASSIFIERS = sorted((PACKAGE / "classifiers").rglob("*.py"))


def _absolute(node: ast.ImportFrom, package: str) -> str:
    """The module that ``node`` imports from, resolved against ``package``."""
    if node.level == 0:
        return node.module
    parts = package.split(".")
    parts = parts[: len(parts) - node.level + 1]
    return ".".join(parts + ([node.module] if node.module else []))


def audit_imports(source: str, package: str) -> list[str]:
    """The lines of ``source``, a module of ``package``, that import
    ``fairaudit.audit`` or a name from it, at module level or in any function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(node, package)
            names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(name == "fairaudit.audit" or name.startswith("fairaudit.audit.") for name in names):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_classifier_modules_are_found():
    assert {"__init__.py", "io.py", "search.py", "stumps.py"} <= {p.name for p in CLASSIFIERS}


@pytest.mark.parametrize("path", CLASSIFIERS, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_classifiers_module_imports_audit(path):
    package = ".".join(("fairaudit", *path.parent.relative_to(PACKAGE).parts))
    assert audit_imports(path.read_text(encoding="utf-8"), package) == []


def test_an_audit_import_is_found():
    source = (
        "from .stumps import train_stumps\n"
        "from ..audit import LEARNERS\n"
        "from .. import embed\n"
        "def lazy():\n"
        "    from .. import audit\n"
        "    import fairaudit.audit as a\n"
        "    from fairaudit import audit as b\n"
        "    import fairaudit.auditing\n"
    )
    assert audit_imports(source, "fairaudit.classifiers") == ["line 2", "line 5", "line 6",
                                                               "line 7"]
