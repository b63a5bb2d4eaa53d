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


def test_linalg_row_operations_use_the_row_kernel():
    # eliminations, reductions, polynomial remainders and custom-basis
    # coordinates reach field arithmetic only through the row kernel of
    # their level, so a second per-element loop cannot come back; each
    # function is looked up in the module that defines it
    funcs = {}
    for module in ("fields", "linalg"):
        for node in ast.parse((SRC / f"{module}.py").read_text()).body:
            if isinstance(node, ast.FunctionDef):
                funcs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                funcs.update((f"{node.name}.{item.name}", item)
                             for item in node.body
                             if isinstance(item, ast.FunctionDef))
    for name in ("rref", "mat_vec", "_poly_mod", "FieldTower.to_coords",
                 "_reduce", "Subspace.reduce_vector",
                 "Subspace.intersection_dim"):
        direct = sorted(node.lineno for node in ast.walk(funcs[name])
                        if isinstance(node, ast.Attribute)
                        and node.attr in ("add", "sub", "mul"))
        assert direct == [], f"{name}: field arithmetic on lines {direct}"
