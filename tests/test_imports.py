"""Every import in the package is used.

A stdlib-only lint: leftovers such as a helper imported for a deleted code
path fail here.  Relative imports in ``__init__.py`` are re-exports, and
``from __future__`` imports are directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liarminmax"


def unused_imports(source: str, is_init: bool) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (is_init and node.level > 0):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), path.name == "__init__.py") == []


def test_lint_flags_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom .x import y\n"
    assert unused_imports(source, is_init=False) == ["math (line 2)", "y (line 3)"]
    assert unused_imports(source, is_init=True) == ["math (line 2)"]
    assert unused_imports("import os.path\nos.sep\n", is_init=False) == []
