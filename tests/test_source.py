"""Checks on the source text of the package."""

import ast
from pathlib import Path

import optapprox

PACKAGE = Path(optapprox.__file__).parent


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is left out
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).partition(".")[0] not in used]
    assert unused == []
