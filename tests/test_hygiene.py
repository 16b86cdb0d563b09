"""Source hygiene checks that need no linter: every import is used, no
module imports scipy, mpmath or another module's private names, every
public definition is served or used, and the public settings are the
listed ones."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import watermelon as wm

PACKAGE = Path(wm.__file__).resolve().parent
# __init__ only serves the package's public names from these modules
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def _imports_of(package: str) -> list[str]:
    """Every import of ``package`` as ``file:function``, the function None
    at module level (class bodies included: they run on import)."""
    found = []

    def visit(node, where, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, where, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if any(name.split(".")[0] == package for name in names):
                found.append(f"{where}:{func}")
            visit(child, where, func)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    return found


def test_no_scipy_import_in_package():
    # scipy costs a fresh CLI process about 0.35 s on top of numpy's import;
    # the package needs numpy only, and the tests keep scipy as a reference
    assert _imports_of("scipy") == []


def test_no_mpmath_import_in_package():
    # the software-float references live in tests/reference.py; mpmath is a
    # test dependency only
    assert _imports_of("mpmath") == []


def _private_imports(tree: ast.Module) -> list[str]:
    """Every ``_name`` imported from another package module."""
    return [f"{node.module}.{alias.name} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    # a name another module needs is public
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _private_imports(tree) == []


def test_every_error_is_raised():
    # a typed error outlives its last check unless some raise names it
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    errors = {"WatermelonError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in errors
                for base in node.bases):
            errors.add(node.name)
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, (ast.Name, ast.Attribute)):
                    raised.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    assert len(errors) > 1
    assert sorted(errors - raised) == []


def _referenced_names() -> set[str]:
    """Every name the package's code reads, bare or as an attribute."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def _public_defs(tree: ast.Module):
    """(qualified name, name) of each public function and class of a module,
    and of each public method and property of its public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def test_every_public_def_is_served_or_used():
    # a public function, class, method or property that only the tests call
    # belongs in tests/reference.py, not in the package
    keep = {name for names in wm._PUBLIC.values() for name in names}
    keep |= _referenced_names()
    idle = [f"{path.stem}.{qual}" for path in MODULES
            for qual, name in _public_defs(
                ast.parse(path.read_text(encoding="utf-8")))
            if name not in keep]
    assert idle == []


def test_only_the_harnesses_import_the_oracles():
    # the oracles check the solvers, so no solver leans on them: dgop and
    # heights load without them, and only the comparison harnesses import
    # them
    importers = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and (
                    node.module == "oracles" or node.module is None
                    and any(alias.name == "oracles" for alias in node.names)):
                importers.add(path.stem)
    assert importers == {"asym", "validation"}


# Every parameter with a default on a public function or method of any
# package module: a new setting fails here until the same change lists it.
# Each one kept has two values in use: critical-dgop draws alpha in
# {0, 0.25}.  A setting only tests set is a module constant.
PUBLIC_SETTINGS = {
    "asym.free_energy_comparison.alpha", "asym.kernel_limit_table.alpha",
}
# Not settings: the entry point's argv (None reads sys.argv), and the node
# counts of the reference discretizations, whose own convergence the tests
# check.
EXEMPT_DEFAULTS = {
    "cli.main.argv", "oracles.fredholm_f2.m", "oracles.resolvent_q.m",
}


def _public_functions(module):
    """(qualified name, function) for each public function and public
    method of a class that ``module`` defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield from ((f"{name}.{attr}", func) for attr, func in vars(obj).items()
                        if inspect.isfunction(func) and not attr.startswith("_"))


def test_public_settings_inventory():
    found = {f"{path.stem}.{qual}.{param.name}"
             for path in MODULES
             for qual, func in _public_functions(
                 importlib.import_module(f"watermelon.{path.stem}"))
             for param in inspect.signature(func).parameters.values()
             if param.default is not inspect.Parameter.empty}
    assert found == PUBLIC_SETTINGS | EXEMPT_DEFAULTS
