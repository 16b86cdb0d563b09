
import os
from pathlib import Path

import pytest

import watermelon as wm


@pytest.fixture(scope="session")
def grid():
    """Default Painleve grid, solved once per session."""
    return wm.build_grid()


@pytest.fixture(scope="session")
def psis_critical(grid):
    """Psi solution at the critical-kernel argument s = 2^{2/3}."""
    return wm.integrate_psi(2.0 ** (2.0 / 3.0), painleve=grid)


@pytest.fixture(scope="session")
def f1_of(grid):
    def f(k):
        return wm.tracy_widom(k, "F1", grid)
    return f


@pytest.fixture
def cli_env():
    """Environment for a `python -m watermelon.cli` child process.

    The directory holding the imported `watermelon` goes first on the
    child's PYTHONPATH (entries already there are kept after it), so the
    child imports the package under test whatever its working directory;
    a relative `PYTHONPATH=src` alone would resolve against that directory.
    """
    package_root = str(Path(wm.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = package_root + (os.pathsep + inherited if inherited else "")
    return dict(os.environ, PYTHONPATH=path)
