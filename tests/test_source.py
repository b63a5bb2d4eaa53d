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
