import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rankmin"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_bare_asserts_in_source(path):
    # python -O strips assert statements; a check in the library raises
    # an explicit error instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_function_local_package_imports(path):
    # the package's module graph is acyclic, so an import from within the
    # package belongs at the top of the module, where the dependency shows
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno
             for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert lines == [], f"{path.name}: local import on lines {lines}"


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # a module-level import that nothing in its module references is left
    # over from a deletion; ``__init__`` imports to re-export, so it is out
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert unused == [], f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_locals(path):
    # a name that a function assigns and nothing in it, nested functions
    # included, reads again is left over from a deletion; ``_`` and names
    # declared global or nonlocal are out
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read, declared = {}, set(), {"_"}
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        unused.update((line, name) for name, line in stored.items()
                      if name not in read and name not in declared)
    unused = sorted(unused)
    assert unused == [], f"{path.name}: unused locals {unused}"


@pytest.mark.parametrize("module", ["fields", "linalg", "geometry",
                                    "rank_metric", "minimality", "search"])
def test_field_arithmetic_reaches_rows_only_through_the_row_kernel(module):
    # eliminations, reductions, polynomial products and remainders,
    # coordinates and every other row operation reach field arithmetic only
    # through the row kernel of their level, so a second per-element loop
    # cannot come back: no function but the kernel's builder reads an
    # engine's add, sub or mul (the engines' own ``self.add = ...`` stores
    # are not reads); ``suites`` is out, its oracles test the engines' laws
    tree = ast.parse((SRC / f"{module}.py").read_text())
    builders = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_build_row_kernel"]
    allowed = {id(node) for func in builders for node in ast.walk(func)}
    direct = sorted(node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and node.attr in ("add", "sub", "mul")
                    and id(node) not in allowed)
    assert direct == [], f"{module}: field arithmetic on lines {direct}"


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py")
                   if p.name not in ("fields.py", "linalg.py", "__init__.py")),
    ids=lambda p: p.name)
def test_only_fields_and_its_reexports_name_rref(path):
    # one canonical form: a module other than fields (which defines rref),
    # linalg and __init__ (which re-export it) builds a subspace or a code
    # through Subspace.span and does not import or call rref itself
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "rref"
        or isinstance(node, ast.Attribute) and node.attr == "rref"
        or isinstance(node, ast.ImportFrom)
        and any(alias.name == "rref" for alias in node.names))
    assert lines == [], f"{path.name}: rref on lines {lines}"


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py"),
    ids=lambda p: p.name)
def test_sweeps_over_flattened_e_grids_read_the_grid(path):
    # linalg keeps each small grid of flattened E-subspaces for the job
    # (``flat_grid``), so a function elsewhere that enumerates E-subspaces
    # and flattens them would redo that work on every call
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(
        func.lineno for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and {"enumerate_subspaces", "flatten_subspace"} <= {
            node.func.id for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)})
    assert lines == [], f"{path.name}: functions on lines {lines} flatten " \
        "an enumerated E-grid"
