"""Source hygiene checks that need no linter: every import is used, and
the public settings are the listed ones."""

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


# Every parameter with a default on a public function: a new setting fails
# here until the same change lists it.
PUBLIC_SETTINGS = {
    "build_equilibrium.j_max", "free_energy_comparison.alpha",
    "integrate_psi.zeta_max",
    "kernel_integral_form.zeta_max", "kernel_limit_table.alpha",
    "solve_hastings_mcleod.mesh", "solve_hastings_mcleod.s_max",
    "solve_hastings_mcleod.s_min", "solve_hastings_mcleod.tol",
    "stieltjes.keep_phi",
}


def test_public_settings_inventory():
    found = {f"{name}.{param.name}"
             for name, obj in vars(wm).items() if inspect.isfunction(obj)
             for param in inspect.signature(obj).parameters.values()
             if param.default is not inspect.Parameter.empty}
    assert found == PUBLIC_SETTINGS
