"""Every module of the package uses each name it imports.

A standard-library stand-in for a linter's unused-import rule.  The
package's __init__.py is exempt: its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shapecalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as an identifier anywhere in the
    module (annotations included) or as a string in its __all__.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return sorted(name for name in imported if name not in used)


def test_detector_flags_an_unused_name():
    src = ("from __future__ import annotations\n"
           "import os\nimport numpy as np\n"
           "from .a import used, unused\nfrom .b import exported\n"
           "__all__ = ['exported']\n"
           "def f(x: np.ndarray) -> None:\n    return used(x)\n")
    assert unused_imports(src) == ["os", "unused"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
