import ast
import collections
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_parameters(path):
    # a parameter that its function, nested functions included, never reads
    # is left over from a deletion; lambdas and decorated functions are out
    # (the ``@_seeded`` suite checks take the (tally, tower, k, rng) that
    # their harness passes)
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or func.decorator_list:
            continue
        args = func.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            arg for arg in (args.vararg, args.kwarg) if arg is not None]
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        unused += [(func.lineno, func.name, arg.arg) for arg in params
                   if arg.arg not in read]
    assert unused == [], f"{path.name}: unused parameters {sorted(unused)}"


# recursion whose depth the input's shape bounds: one frame per RREF row
# (the GF(2) line kernel's ``node``), or one extra frame that fans ``"all"``
# out to the single routes
BOUNDED_RECURSION = {"search._line_survivors.node", "geometry.is_cutting"}


def _functions(node, prefix):
    """(qualified name, def) for every function under node, nested ones
    included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unbounded_recursion(path):
    # a function that calls itself by name, nested functions included, takes
    # a frame per step of its input and ends in a RecursionError near
    # Python's 1,000-frame limit; a chain or a search walks in a loop instead
    tree = ast.parse(path.read_text(), filename=str(path))
    recursive = {name for name, func in _functions(tree, path.stem)
                 if any(isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == func.name
                        for node in ast.walk(func))}
    allowed = {name for name in BOUNDED_RECURSION
               if name.startswith(path.stem + ".")}
    assert sorted(recursive - allowed) == [], f"{path.name}: recursion"
    assert sorted(allowed - recursive) == [], f"{path.name}: stale allowance"


def _names(tree):
    """Every name a tree reads or writes: bare names and attributes."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_name_has_a_caller():
    # a top-level function or class without a leading ``_`` that nothing
    # in the package names outside its own definition is API that only its
    # own tests use; re-exporting it from ``__init__`` is no call
    named, defined = collections.Counter(), {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        named += _names(tree)
        defined.update(
            (node.name, (path.stem, node)) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_"))
    uncalled = sorted(f"{module}.{name}"
                      for name, (module, node) in defined.items()
                      if named[name] == _names(node)[name])
    assert uncalled == [], f"public names with no caller: {uncalled}"


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "cli.py"),
    ids=lambda p: p.name)
def test_only_the_cli_catches_budget_exceeded(path):
    # a sweep reports a spent budget by returning None, and the search that
    # ran it raises BudgetExceeded once, with its bracket; only the CLI
    # turns it into an exit code.  Neither an ``except`` clause that names
    # it nor ``contextlib.suppress(BudgetExceeded)`` belongs elsewhere
    tree = ast.parse(path.read_text(), filename=str(path))
    caught = [node.type for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None]
    caught += [arg for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _names(node.func)["suppress"]
               for arg in node.args]
    lines = sorted(node.lineno for node in caught
                   if _names(node)["BudgetExceeded"])
    assert lines == [], f"{path.name}: BudgetExceeded caught on lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_pools_are_left_by_close_and_join(path):
    # leaving a pool's ``with`` block calls terminate(), which kills the
    # workers; one killed while it holds the result queue's lock blocks the
    # pool's task handler for good.  A pool is left by its stop flag,
    # close() and join(), so no module enters a Pool as a context manager
    # (``with`` or ``enter_context``) or calls ``.terminate()``
    tree = ast.parse(path.read_text(), filename=str(path))
    entered = [(node.lineno, item.context_expr) for node in ast.walk(tree)
               if isinstance(node, (ast.With, ast.AsyncWith))
               for item in node.items]
    entered += [(node.lineno, arg) for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "enter_context" for arg in node.args]
    lines = {line for line, expr in entered if _names(expr)["Pool"]}
    lines |= {node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "terminate"}
    assert sorted(lines) == [], \
        f"{path.name}: a pool entered or terminated on lines {sorted(lines)}"
