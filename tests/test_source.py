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


def test_cli_pretty_json_has_one_path():
    # json.dumps(..., indent=...) runs the pure-Python encoder; the CLI's
    # pretty output goes through cli._dumps
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    indented = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dumps" and any(k.arg == "indent" for k in node.keywords)]
    assert indented == []


def test_no_module_calls_the_reference_inner_product():
    # spaces.shifted_inner and spaces.weighted_inner are the independent
    # references the tests check the Gram matrices and the orthogonal bases
    # against; no code path of the package may run through them
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("shifted_inner", "weighted_inner"):
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
