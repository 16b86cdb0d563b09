"""Acceptance suite: one test per criterion, one printed line per criterion.

Criteria 12 and 14 assert bounds that the measured quantities cannot
exhibit in binary64: the analytic lattice sums converge faster than any
power, and 1 - P underflows at the pinned parameters (see README, Known
limitations).  Both are asserted as stated and fail honestly, and
criterion 16 inherits the nonzero exit of the full validate run.
"""

import subprocess
import sys

import pytest

from watermelon import validation
from watermelon.tableio import to_csv
from reference import parse_csv


@pytest.fixture(scope="module")
def ctx():
    return validation.ValidationContext()


def _run(number, ctx):
    result = validation.run_criterion(number, ctx)
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_hastings_mcleod(ctx):
    _run(1, ctx)


def test_criterion_02_f2_fredholm(ctx):
    _run(2, ctx)


def test_criterion_03_cdf_structure(ctx):
    _run(3, ctx)


def test_criterion_04_oracle_equivalence(ctx):
    _run(4, ctx)


def test_criterion_05_maxheight_trend(ctx):
    _run(5, ctx)


def test_criterion_06_toda_identity(ctx):
    _run(6, ctx)


def test_criterion_07_lattice_rescaling(ctx):
    _run(7, ctx)


def test_criterion_08_norm_asymptotics(ctx):
    _run(8, ctx)


def test_criterion_09_subcritical(ctx):
    _run(9, ctx)


def test_criterion_10_kernel_theorem(ctx):
    _run(10, ctx)


def test_criterion_11_free_energy_theorem(ctx):
    _run(11, ctx)


def test_criterion_12_riemann_sum_order(ctx):
    # The pinned integrands are summed to beyond any polynomial order, so
    # no eps window can show slope 4 (README, Known limitations).  Asserted
    # as stated; fails honestly.
    _run(12, ctx)


def test_criterion_13_kernel_algebra(ctx):
    _run(13, ctx)


def test_criterion_14_small_a_ratio(ctx):
    # 1 - P is of order M^2 exp(-2 M^2) < 1e-30 at the pinned parameters,
    # below binary64 resolution, and the ratio is not factor-2 stable even
    # in exact arithmetic (README, Known limitations).  Asserted as stated;
    # fails honestly.
    _run(14, ctx)


def test_criterion_15_psi_compatibility(ctx):
    _run(15, ctx)


def test_criterion_16_cli_validate(tmp_path, cli_env):
    out = tmp_path / "validation.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "watermelon.cli", "--output", str(out),
         "validate", "--suite", "all"],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("criterion ")]
    print("\n".join(lines))
    assert len(lines) == 15, "validate must drive criteria 1-15"
    # CSV round trip must be byte identical
    text = out.read_text()
    assert to_csv(parse_csv(text)) == text
    # exits 0 iff every criterion passes; criteria 12 and 14 fail by the
    # documented spec defects, so this final assertion fails with them
    assert proc.returncode == 0, \
        f"validate exited {proc.returncode}; failing lines: " \
        + "; ".join(l for l in lines if " FAIL " in l)
