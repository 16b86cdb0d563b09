"""Source hygiene checks that need no linter: every import is used, no
module imports scipy, mpmath or another module's private names, and the
public settings are the listed ones."""

import ast
import inspect
from pathlib import Path

import pytest

import watermelon as wm

PACKAGE = Path(wm.__file__).resolve().parent
# __init__ imports are the package's public names, read by its importers
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


# Every parameter with a default on a public function: a new setting fails
# here until the same change lists it.  Each one kept has two values in use:
# critical-dgop draws alpha in {0, 0.25}; the mesh-order and zeta-truncation
# tests set mesh and zeta_max.  A setting only tests set is a module constant.
PUBLIC_SETTINGS = {
    "free_energy_comparison.alpha", "integrate_psi.zeta_max",
    "kernel_limit_table.alpha", "solve_hastings_mcleod.mesh",
}


def test_public_settings_inventory():
    found = {f"{name}.{param.name}"
             for name, obj in vars(wm).items() if inspect.isfunction(obj)
             for param in inspect.signature(obj).parameters.values()
             if param.default is not inspect.Parameter.empty}
    assert found == PUBLIC_SETTINGS
