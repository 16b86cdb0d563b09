import json
import subprocess
import sys

import pytest

from watermelon import cli
from watermelon.tableio import parse_csv, to_csv


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


def test_usage_errors_exit_1(run_cli):
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
        ["converge", "--N-list", ","],                                      # empty lists
        ["free-energy", "--L-list", ","],
        ["kernel", "--n", "32", "--grid", ","],
    ]
    for args in cases:
        proc = run_cli(args)
        assert_usage_error(proc)
        assert "Traceback" not in proc.stderr, proc.stderr
    # removed global flags are named, not mistaken for a command
    for args in (["--cache-dir", "x", "tw", "--which", "f2"],
                 ["--config", "x", "tw", "--which", "f2"],
                 ["--precision-mode", "extended", "dgop", "--n", "8",
                  "--a", "0.9", "--kmax", "8"]):
        proc = run_cli(args)
        assert_usage_error(proc)
        assert f"unknown option {args[0]}" in proc.stderr, proc.stderr


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


def test_parse_args_in_process():
    ns = cli.parse_args(["tw", "--which", "f2"])
    assert ns.command == "tw" and ns.format == "csv" and ns.output == "-"
    with pytest.raises(cli.UsageError):
        cli.parse_args([])


def test_grid_spec_point_limit():
    cap = cli.MAX_GRID_POINTS
    assert len(cli._grid_spec(f"0:{cap - 1}:1")) == cap
    for spec in (f"0:{cap}:1", "0:inf:1", "nan:1:0.1", "0:1:nan"):
        with pytest.raises(cli.UsageError):
            cli._grid_spec(spec)
