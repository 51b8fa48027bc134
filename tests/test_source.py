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


def test_every_public_function_is_reached_from_the_package():
    # the public functions are what the CLI and verify reach: each one is
    # named somewhere in the package outside its own definition (and outside
    # __init__.py, which only re-exports); the reference inner products are
    # kept apart for the tests, as pinned above
    allowed = {"spaces.shifted_inner", "spaces.weighted_inner"}
    public, mentions = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(top, ast.FunctionDef):
                owner = f"{path.stem}.{top.name}"
                if not top.name.startswith("_"):
                    public.append((owner, top.name))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    mentions.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    mentions.append((node.attr, owner))
    unreached = [qual for qual, name in public if qual not in allowed
                 and not any(m == name and owner != qual for m, owner in mentions)]
    assert unreached == []


def test_only_linsolve_calls_lapack_and_sums_products():
    # the float factor keeps every LAPACK call and matrix product below
    # OpenBLAS's threading sizes; that rule lives in linsolve alone
    lapack, product = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = []
            if any(name.startswith("scipy.linalg.lapack") for name in names):
                lapack.add(path.name)
            if isinstance(node, ast.FunctionDef) and node.name == "_product":
                product.add(path.name)
    assert lapack == product == {"linsolve.py"}


def test_series_operations_have_one_body():
    # the dtype of Series.coeffs is the backend, so the operations of
    # series.py are written once: outside Series, TruncatedSeries and
    # _check_same_backend nothing reads .backend, tests for a tuple or
    # compares with a backend name
    allowed = {"Series", "TruncatedSeries", "_check_same_backend"}
    forks = []
    for top in ast.parse((PACKAGE / "series.py").read_text()).body:
        if getattr(top, "name", None) in allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "backend":
                forks.append(f"{top.name}:{node.lineno} .backend")
            elif isinstance(node, ast.Constant) and node.value in ("exact", "float"):
                forks.append(f"{top.name}:{node.lineno} {node.value!r}")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = node.args[1:] + getattr(node.args[1], "elts", [])
                if any(getattr(k, "id", None) == "tuple" for k in kinds):
                    forks.append(f"{top.name}:{node.lineno} isinstance tuple")
    assert forks == []


def test_cli_writes_output_in_main_only():
    # the commands return their output and main writes it, inside the one
    # map from errors to exit codes: cli.py has at most one stdout write and
    # one open(), both in main
    writes, opens = [], []
    for top in ast.parse((PACKAGE / "cli.py").read_text()).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            where = f"{getattr(top, 'name', '<module>')}:{node.lineno}"
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                opens.append(where)
            elif ast.unparse(node.func) == "sys.stdout.write":
                writes.append(where)
    for found in (writes, opens):
        assert len(found) <= 1 and all(w.startswith("main:") for w in found), found
