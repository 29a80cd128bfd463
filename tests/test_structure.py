"""Package import structure: imports sit at module level, and the search
(automl) does not depend on the experiment driver (evaluation)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sentigram"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top_level = {id(n) for n in tree.body}
    nested = [n.lineno for n in _imports(tree) if id(n) not in top_level]
    assert nested == [], f"{path.name}: imports below module level at lines {nested}"


def test_automl_does_not_import_evaluation():
    tree = ast.parse((PACKAGE / "automl.py").read_text(encoding="utf-8"))
    imported = []
    for node in _imports(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif node.level == 1 and node.module is None:  # from . import x
            imported += [f"sentigram.{alias.name}" for alias in node.names]
        else:
            imported.append(f"sentigram.{node.module}" if node.level else node.module)
    assert "sentigram.evaluation" not in imported
    assert "sentigram.metrics" in imported
