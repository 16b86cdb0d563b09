import json
import subprocess
import sys
import time

import pytest

from watermelon import cli, validation
from watermelon.errors import ConvergenceError
from watermelon.tableio import to_csv
from reference import parse_csv


@pytest.fixture
def run_cli(cli_env, tmp_path):
    """Run `python -m watermelon.cli ARGS` in `cwd` (default `tmp_path`)."""
    def run(args, cwd=tmp_path):
        return subprocess.run([sys.executable, "-m", "watermelon.cli", *args],
                              capture_output=True, text=True, cwd=cwd,
                              env=cli_env)
    return run


def assert_exit(proc, code):
    assert proc.returncode == code, \
        f"exited {proc.returncode}, want {code}; stderr:\n{proc.stderr}"


def assert_usage_error(proc):
    assert_exit(proc, 1)
    assert proc.stderr.startswith("usage error:"), proc.stderr


def test_tw_dispatch(run_cli):
    proc = run_cli(["tw", "--which", "f1", "--xmin", "-2", "--xmax", "2",
                    "--step", "0.5"])
    assert_exit(proc, 0)
    table = parse_csv(proc.stdout)
    assert table.columns == ("x", "F1")
    assert len(table.rows) == 9
    vals = [row[1] for row in table.rows]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert vals == sorted(vals)


def test_height_k_grid_dispatch(run_cli):
    proc = run_cli(["height", "--N", "8", "--wall", "absorbing",
                    "--k-grid", "-2:2:1"])
    assert_exit(proc, 0)
    table = parse_csv(proc.stdout)
    assert table.columns == ("k", "cdf", "F1", "diff")
    assert table.params["N"] == "8" and table.params["wall"] == "absorbing"


def test_usage_errors_exit_1(run_cli, capsys):
    cases = [
        ["height", "--N", "2", "--wall", "absorbing"],                      # missing grid
        ["height", "--N", "2", "--wall", "absorbing",
         "--M-grid", "1:2:0.5", "--k-grid", "0:1:1"],                       # conflict
        ["tw", "--which", "f2", "--xmax", "oops"],                          # malformed
        ["tw", "--which", "f2", "--bogus"],                                 # unknown flag
        ["nosuchcommand"],
        # arguments the library rejects with ValueError
        ["dgop", "--n", "0", "--a", "1", "--kmax", "3"],
        ["dgop", "--n", "4", "--a", "-1", "--kmax", "3"],
        ["dgop", "--n", "4", "--alpha", "0.7", "--a", "1", "--kmax", "3"],
        ["height", "--N", "8", "--wall", "absorbing", "--k-grid", "-100:-99:1"],
        ["free-energy", "--n-list", "8", "--L-list", "9"],
        ["converge", "--N-list", "0", "--wall", "absorbing"],
        ["tw", "--which", "f1", "--xmin", "-6", "--xmax", "4",
         "--step", "1e-12"],                                                # 1e13 points
        ["dgop", "--n", "4", "--a", "inf", "--kmax", "2"],                  # non-finite a
        ["converge", "--N-list", "8,x"],                                    # bad list
        ["height", "--N", "8", "--wall", "absorbing", "--k-grid", "1:2"],   # bad grid
        # float() strips whitespace, but converge writes the spec into its
        # CSV header, where a newline splits the header and a space a param
        ["height", "--N", "8", "--wall", "absorbing", "--k-grid", "-1:1:0.5\n"],
        ["height", "--N", "8", "--wall", "absorbing", "--k-grid", " -1:1:0.5"],
        ["converge", "--N-list", "8", "--k-grid", "-1:1:0.5\n"],
        ["converge", "--N-list", "8", "--k-grid", "-1:1:0.5 "],
        ["converge", "--N-list", ","],                                      # empty lists
        ["free-energy", "--L-list", ","],
        ["kernel", "--n", "32", "--grid", ","],
        ["kernel", "--n", "0"],                                             # n < 1
        ["free-energy", "--n-list", "0"],
        ["free-energy", "--n-list", "-8"],
        ["height", "--N", "4", "--wall", "absorbing",
         "--M-grid", "1e-300:1e-300:1"],                                    # M^2 underflows
        ["kernel", "--n", "64", "--grid", "inf,0.5"],                       # non-finite u
        ["kernel", "--n", "64", "--grid", "nan,0.5"],
        ["kernel", "--n", "8", "--L", "5"],                                 # a < 0
        ["kernel", "--n", "64", "--L", "20"],                               # a < 0, s off the grid
        ["dgop", "--n", "4", "--a", "1e308", "--kmax", "2"],                # n pi^2 a = inf
        ["validate", "--suite", "nosuch"],
        ["kernel", "--n", "64", "--L", "nan"],                              # non-finite L
        ["kernel", "--n", "64", "--L", "inf"],
        ["free-energy", "--n-list", "8", "--L-list", "nan"],
        # grid specs whose hi + step/2 rounds to lo hold no point
        ["tw", "--which", "f1", "--xmin", "1e300", "--xmax", "1e300", "--step", "1"],
        ["height", "--N", "8", "--wall", "absorbing", "--k-grid", "1e300:1e300:1"],
        ["converge", "--N-list", "8", "--k-grid", "1e300:1e300:1"],
    ]
    # in-process: an exception escaping main fails the test, so no case
    # can end in a traceback
    for args in cases:
        assert cli.main(args) == cli.EXIT_USAGE, args
        err = capsys.readouterr().err
        assert err.startswith("usage error:"), (args, err)
    # removed global flags are named, not mistaken for a command
    for args in (["--cache-dir", "x", "tw", "--which", "f2"],
                 ["--config", "x", "tw", "--which", "f2"],
                 ["--precision-mode", "extended", "dgop", "--n", "8",
                  "--a", "0.9", "--kmax", "8"]):
        assert cli.main(args) == cli.EXIT_USAGE, args
        err = capsys.readouterr().err
        assert err.startswith("usage error:"), (args, err)
        assert f"unknown option {args[0]}" in err, err
    # the `python -m watermelon.cli` entry point exits the same way
    proc = run_cli(["nosuchcommand"])
    assert_usage_error(proc)
    assert "Traceback" not in proc.stderr, proc.stderr


def test_node_bound_exits_2_before_allocating(capsys):
    # about 6.9e8 nodes (5.5 GB per array) without the bound
    start = time.perf_counter()
    code = cli.main(["dgop", "--n", "4", "--a", "1e-14", "--kmax", "2"])
    elapsed = time.perf_counter() - start
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert elapsed < 1.0
    # at a = 5e-324 the half-width 744.4/(n a) overflows to inf
    assert cli.main(["dgop", "--n", "4", "--a", "5e-324", "--kmax", "2"]) \
        == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_io_error_exit_3(run_cli, tmp_path):
    proc = run_cli(["--output", str(tmp_path / "no" / "dir" / "x.csv"),
                    "tw", "--which", "f2", "--xmin", "0", "--xmax", "1",
                    "--step", "0.5"])
    assert_exit(proc, 3)


def test_stray_config_file_is_ignored(run_cli, tmp_path):
    # options come from flags alone: a `watermelon.conf` in the working
    # directory, whatever it holds, changes nothing
    args = ["dgop", "--n", "4", "--a", "0.8", "--kmax", "2"]
    strip = lambda text: [l for l in text.splitlines()
                          if not l.startswith("# generated")]
    plain = run_cli(args)
    assert_exit(plain, 0)
    for i, make in enumerate((lambda p: p.write_text("format = json\n"),
                              lambda p: p.write_bytes(b"output = \xff\n"),
                              lambda p: p.mkdir())):
        cwd = tmp_path / f"stray{i}"
        cwd.mkdir()
        make(cwd / "watermelon.conf")
        proc = run_cli(args, cwd=cwd)
        assert_exit(proc, 0)
        assert strip(proc.stdout) == strip(plain.stdout)


def test_bad_tail_tol_rejected(run_cli):
    proc = run_cli(["--tail-tol", "1e-5", "tw", "--which", "f2"])
    assert_usage_error(proc)
    assert "--tail-tol" in proc.stderr, proc.stderr


def test_dgop_json_csv_row_parity(run_cli):
    pcsv = run_cli(["dgop", "--n", "5", "--a", "1.1", "--kmax", "3"])
    pjson = run_cli(["--format", "json", "dgop", "--n", "5", "--a", "1.1",
                     "--kmax", "3"])
    assert_exit(pcsv, 0)
    assert_exit(pjson, 0)
    rows_csv = parse_csv(pcsv.stdout).rows
    rows_json = json.loads(pjson.stdout)["rows"]
    assert len(rows_csv) == len(rows_json)
    for rc, rj in zip(rows_csv, rows_json):
        assert list(rc) == rj


def test_csv_round_trip_through_emitter(run_cli):
    proc = run_cli(["height", "--N", "3", "--wall", "reflecting",
                    "--M-grid", "1:3:0.5"])
    assert_exit(proc, 0)
    text = proc.stdout
    assert to_csv(parse_csv(text)) == text


def test_converge_csv_round_trip(run_cli):
    # the k-grid spec rides in the header, so it must hold no whitespace
    proc = run_cli(["converge", "--N-list", "8", "--k-grid", "-1:1:0.5"])
    assert_exit(proc, 0)
    table = parse_csv(proc.stdout)
    assert table.params == {"k_grid": "-1:1:0.5"}
    assert to_csv(table) == proc.stdout


def test_determinism_modulo_wall_clock(run_cli):
    args = ["tw", "--which", "f2", "--xmin", "-1", "--xmax", "1", "--step", "0.5"]
    pa, pb = run_cli(args), run_cli(args)
    assert_exit(pa, 0)
    assert_exit(pb, 0)
    assert parse_csv(pa.stdout).rows
    strip = lambda text: [l for l in text.splitlines()
                          if not l.startswith("# generated")]
    assert strip(pa.stdout) == strip(pb.stdout)


def test_kernel_csv_round_trip(run_cli):
    proc = run_cli(["kernel", "--n", "32", "--L", "1", "--grid", "0.5,-0.5"])
    assert_exit(proc, 0)
    table = parse_csv(proc.stdout)
    assert table.rows
    assert all(len(row) == len(table.columns) for row in table.rows)
    assert to_csv(table) == proc.stdout


def test_validate_smoke_suite(run_cli):
    proc = run_cli(["validate", "--suite", "psi"])
    assert_exit(proc, 0)
    assert "criterion 15 PASS" in proc.stdout


def test_validate_failing_suite_exits_2(run_cli):
    # the watermelon suite contains the two documented unattainable checks
    proc = run_cli(["validate", "--suite", "watermelon"])
    assert_exit(proc, 2)
    assert "criterion 12 FAIL" in proc.stdout
    assert "criterion 14 FAIL" in proc.stdout
    assert "criterion 04 PASS" in proc.stdout


def test_validate_failures_become_fail_lines(monkeypatch):
    def stalled(ctx):
        raise ConvergenceError("Newton stalled")

    def slow(ctx):
        time.sleep(0.02)
        return True, "ok"

    monkeypatch.setitem(validation.CHECKS, 3, ("stalled", stalled, None))
    monkeypatch.setitem(validation.CHECKS, 7, ("slow", slow, 0.01))
    stalled_line, slow_line = (validation.run_criterion(k, None).line()
                               for k in (3, 7))
    assert stalled_line.startswith("criterion 03 FAIL")
    assert "error: Newton stalled" in stalled_line
    assert slow_line.startswith("criterion 07 FAIL")
    assert "exceeds budget 0s" in slow_line


def test_import_loads_no_ode_or_interpolation_stack(cli_env):
    # importing the CLI loads numpy and no scipy module at all
    code = ("import sys, watermelon.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.interpolate') "
            "if m in sys.modules), "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env)
    assert_exit(proc, 0)
    assert proc.stdout.strip() == "[] []"


# every command, in one process: the package needs numpy only
NUMPY_ONLY_COMMANDS = [
    ["tw", "--which", "f1", "--xmin", "-2", "--xmax", "2", "--step", "0.5"],
    ["height", "--N", "8", "--wall", "absorbing", "--k-grid", "-2:2:1"],
    ["height", "--N", "3", "--wall", "reflecting", "--M-grid", "1.5:3:0.5"],
    ["converge", "--N-list", "8,16", "--wall", "both", "--k-grid", "-3:2:0.5"],
    ["dgop", "--n", "32", "--a", "1.0", "--kmax", "32"],
    ["free-energy", "--n-list", "16", "--L-list", "0"],
    ["kernel", "--n", "32", "--L", "1", "--grid", "0.5,-0.5"],
    ["validate", "--suite", "painleve"],
    ["validate", "--suite", "dgop"],
    ["validate", "--suite", "psi"],
]


def test_commands_load_no_scipy(cli_env):
    code = """
import contextlib, io, json, sys
from watermelon import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(codes, *(sorted(m for m in sys.modules if m.split('.')[0] == top)
               for top in ('scipy', 'mpmath')))
"""
    proc = subprocess.run([sys.executable, "-c", code,
                           json.dumps(NUMPY_ONLY_COMMANDS)],
                          capture_output=True, text=True, env=cli_env)
    assert_exit(proc, 0)
    assert proc.stdout.strip() == f"{[0] * len(NUMPY_ONLY_COMMANDS)} [] []"


# The package modules each command loads in a fresh process, beyond the
# cli, choices, errors, painleve and tableio every command loads, and
# whether numpy.polynomial (the oracles' Gauss-Legendre rule) is loaded.
_BASE = ["choices", "cli", "errors", "painleve", "tableio"]
_HEIGHTS = ["dgop", "heights"]
_ASYM = ["asym", "dgop", "oracles", "psikernel"]
FOOTPRINTS = [
    (["tw", "--which", "f1", "--xmin", "-2", "--xmax", "2"], [], False),
    (["height", "--N", "8", "--wall", "absorbing", "--k-grid", "-2:2:1"],
     _HEIGHTS, False),
    (["height", "--N", "3", "--wall", "reflecting", "--M-grid", "1.5:3:0.5"],
     _HEIGHTS, False),
    (["converge", "--N-list", "8", "--wall", "both", "--k-grid", "-2:2:1"],
     _HEIGHTS, False),
    (["dgop", "--n", "32", "--a", "1.0", "--kmax", "32"], ["dgop"], False),
    (["free-energy", "--n-list", "16", "--L-list", "0"], _ASYM, False),
    (["kernel", "--n", "32", "--L", "1", "--grid", "0.5,-0.5"], _ASYM, False),
    (["validate", "--suite", "painleve"], ["oracles", "validation"], True),
    (["validate", "--suite", "dgop"], ["dgop", "oracles", "validation"], False),
    (["height", "--N", "8", "--wall", "bogus", "--k-grid", "0:1:1"], [], False),
]


@pytest.mark.parametrize("argv, extra, polynomial", FOOTPRINTS,
                         ids=[" ".join(case[0]) for case in FOOTPRINTS])
def test_command_imports_only_what_it_runs(cli_env, argv, extra, polynomial):
    code = """
import io, json, sys
from watermelon import cli
sys.stdout = sys.stderr = io.StringIO()
cli.main(json.loads(sys.argv[1]))
sys.stdout = sys.__stdout__
print(sorted(m.split('.')[1] for m in sys.modules
             if m.startswith('watermelon.')), 'numpy.polynomial' in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                          capture_output=True, text=True, env=cli_env)
    assert_exit(proc, 0)
    assert proc.stdout.strip() == f"{sorted(_BASE + extra)} {polynomial}"


PUBLIC_NAMES = [
    "ConvergenceError", "CoverageError",
    "HeightDistribution", "OrthoSystem", "PainleveGrid",
    "PrecisionError", "PsiSolution", "WatermelonError",
    "WindowError", "airy_ai", "asymptotic_A",
    "asymptotic_h", "build_grid", "build_lattice",
    "build_system", "cd_kernel", "cd_kernel_matrix", "compatibility_defect",
    "convergence_study", "correlation_det", "critical_kernel",
    "deformation_identity_check", "exact_h_ratios", "free_energy_comparison",
    "gue_free_energy", "height_cdf", "integrate_psi", "kernel_integral_form",
    "kernel_limit_table", "kernel_table_distance", "lattice_nodes",
    "log_height_cdf", "partition_and_free_energy", "ratio_asymptotics",
    "rescale_check", "rescaled_cdf", "riemann_sum_order", "s_of_a",
    "small_a_check", "stieltjes", "subcritical_h",
    "tabulate_rescaled", "toda_residual", "tracy_widom",
]


def test_package_import_is_lazy(cli_env):
    # import watermelon loads no package module; every public name, the
    # submodules and __version__ load theirs on first use
    code = """
import sys
import watermelon as wm
before = sorted(m for m in sys.modules if m.startswith('watermelon.'))
names = {}
exec('from watermelon import *', names)
print(before, sorted(wm.__all__), sorted(n for n in names if n[0] != '_'),
      wm.build_system.__module__, wm.heights.WALLS, wm.__version__)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env)
    assert_exit(proc, 0)
    assert proc.stdout.strip() == (
        f"[] {PUBLIC_NAMES} {PUBLIC_NAMES} watermelon.dgop "
        "('absorbing', 'reflecting') 0.1.0")


def test_painleve_suite_loads_no_ode_stack(cli_env):
    # criteria 1-3 check the grid against linear Nystrom oracles only
    code = ("import sys; from watermelon import validation; "
            "from watermelon.choices import SUITES; "
            "ctx = validation.ValidationContext(); "
            "print([validation.run_criterion(k, ctx).passed "
            "for k in SUITES['painleve']], "
            "'scipy.integrate' in sys.modules, "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env)
    assert_exit(proc, 0)
    assert proc.stdout.strip() == "[True, True, True] False []"


def test_parse_args_in_process():
    ns = cli.parse_args(["tw", "--which", "f2"])
    assert ns.command == "tw" and ns.format == "csv" and ns.output == "-"
    with pytest.raises(cli.UsageError):
        cli.parse_args([])


def test_grid_spec_point_limit():
    cap = cli.MAX_GRID_POINTS
    assert len(cli._grid_spec(f"0:{cap - 1}:1")) == cap
    for spec in (f"0:{cap}:1", "0:inf:1", "nan:1:0.1", "0:1:nan",
                 "1e300:1e300:1"):                   # 1e300 + 0.5 == 1e300
        with pytest.raises(cli.UsageError):
            cli._grid_spec(spec)
