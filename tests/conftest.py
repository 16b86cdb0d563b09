
import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

import watermelon as wm


def _openblas_core():
    """The kernel set numpy's bundled DYNAMIC_ARCH OpenBLAS runs on this
    CPU, or "unknown" where the library or its symbol is absent."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _package_size():
    """The package's source size, e.g. "src/watermelon: 2,541 lines in 12
    modules", read from the directory of the imported package."""
    package = Path(wm.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    lines = sum(len(path.read_text().splitlines()) for path in modules)
    return (f"{package.parent.name}/{package.name}: {lines:,} lines in "
            f"{len(modules)} modules")


def pytest_report_header(config):
    # bit-equality tests depend on the BLAS kernels, so a log names them;
    # the package size is the figure each change to src/ reports
    return [f"numpy {np.__version__}, OpenBLAS core {_openblas_core()}",
            _package_size()]


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
