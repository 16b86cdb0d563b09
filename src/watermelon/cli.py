"""Command-line surface.

Exit codes: 0 success, 1 usage (also a ``ValueError`` from the library),
2 numerical failure, 3 I/O.  Options are
resolved as flags > config file (plain ``key = value`` lines, default
./watermelon.conf) > built-in defaults.  All tables go through the
deterministic emitter; the only varying header line is the wall clock.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import asym, dgop, heights, psikernel, validation
from .errors import WatermelonError
from .painleve import build_grid, tracy_widom
from .tableio import Table, emit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

CONFIG_KEYS = ("output", "format")
MAX_GRID_POINTS = 100_000


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    output: str = "-"
    format: str = "csv"

    def validate(self):
        if self.format not in ("csv", "json"):
            raise UsageError("format must be csv or json")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config(path: str, required: bool) -> dict:
    if not os.path.exists(path):
        if required:
            raise UsageError(f"config file {path} not found")
        return {}
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _grid_spec(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(tok) for tok in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad grid spec {text!r}; want MIN:MAX:STEP") from exc
    if not (step > 0 and hi >= lo):  # NaN fails too
        raise UsageError(f"bad grid spec {text!r}")
    if not (hi + 0.5 * step - lo) / step <= MAX_GRID_POINTS:
        raise UsageError(f"grid spec {text!r} has more than "
                         f"{MAX_GRID_POINTS} points")
    return np.arange(lo, hi + 0.5 * step, step)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad list {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad list {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="watermelon", description=__doc__)
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--output", default=None, help="output path or - for stdout")
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tw", help="Tracy-Widom CDF table")
    p.add_argument("--which", required=True, choices=("f1", "f2"))
    p.add_argument("--xmin", type=float, default=-6.0)
    p.add_argument("--xmax", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.1)

    p = sub.add_parser("height", help="maximal-height CDF table")
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--wall", required=True, choices=heights.WALLS)
    p.add_argument("--M-grid", dest="m_grid", default=None)
    p.add_argument("--k-grid", dest="k_grid", default=None)

    p = sub.add_parser("converge", help="sup-distance to Tracy-Widom GOE per N")
    p.add_argument("--N-list", dest="n_list", default="8,16,32,64")
    p.add_argument("--wall", default="both",
                   choices=heights.WALLS + ("both",))
    p.add_argument("--k-grid", dest="k_grid", default="-6:4:0.1")

    p = sub.add_parser("dgop", help="recurrence table for one OP family")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--a", required=True, type=float)
    p.add_argument("--kmax", required=True, type=int)

    p = sub.add_parser("kernel", help="scaled CD kernel vs critical kernel")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--grid", default="0.5,-0.5,1.0,-1.0",
                   help="comma list; all pairs are compared")

    p = sub.add_parser("free-energy", help="free-energy comparison residuals")
    p.add_argument("--n-list", dest="n_list", default="32,64")
    p.add_argument("--L-list", dest="l_list", default="-1,0,1")

    p = sub.add_parser("validate", help="run acceptance suites")
    p.add_argument("--suite", default="all", choices=sorted(validation.SUITES))
    return parser


_GLOBAL_FLAGS = ("--config", "--output", "--format")


def _join_negative_values(argv):
    """Fold a value like -6:4:0.1 onto the --option before it, so argparse
    does not read the value as an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok.startswith("--") and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and len(argv[i + 1]) > 1
                and (argv[i + 1][1].isdigit() or argv[i + 1][1] == ".")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def _check_global_flags(argv):
    """Reject an option before the command that is not a global flag.

    argparse would otherwise take the unknown flag's value for the command.
    """
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        flag, sep, _ = argv[i].partition("=")
        if flag in ("-h", "--help"):
            return
        if flag not in _GLOBAL_FLAGS:
            raise UsageError(f"unknown option {flag}")
        i += 1 if sep else 2


def parse_args(argv) -> tuple[RunConfig, argparse.Namespace]:
    if not argv:
        raise UsageError("no command given")
    _check_global_flags(argv)
    parser = build_parser()
    ns = parser.parse_args(_join_negative_values(list(argv)))
    cfg_path = ns.config if ns.config else "watermelon.conf"
    file_values = _read_config(cfg_path, required=ns.config is not None)
    merged = {"output": "-", "format": "csv"}
    for key, value in file_values.items():
        merged[key] = value
    for key in CONFIG_KEYS:
        flag = getattr(ns, key, None)
        if flag is not None:
            merged[key] = flag
    config = RunConfig(command=ns.command, **merged)
    config.validate()
    return config, ns


def _emit(config: RunConfig, table: Table) -> None:
    if config.output == "-":
        emit(table, config.format, sys.stdout)
    else:
        emit(table, config.format, config.output)


def _cmd_tw(config, ns):
    xs = _grid_spec(f"{ns.xmin}:{ns.xmax}:{ns.step}")
    grid = build_grid()
    which = "F1" if ns.which == "f1" else "F2"
    rows = [(float(x), tracy_widom(float(x), which, grid)) for x in xs]
    _emit(config, Table(name="tracy-widom", columns=("x", which),
                        params={"which": which, "xmin": ns.xmin,
                                "xmax": ns.xmax, "step": ns.step}, rows=rows))


def _cmd_height(config, ns):
    if (ns.m_grid is None) == (ns.k_grid is None):
        raise UsageError("give exactly one of --M-grid or --k-grid")
    params = {"N": ns.N, "wall": ns.wall}
    if ns.m_grid:
        rows = [(float(M), heights.height_cdf(ns.N, float(M), ns.wall))
                for M in _grid_spec(ns.m_grid)]
        table = Table(name="watermelon", params=params,
                      columns=("M", "cdf"), rows=rows)
    else:
        grid = build_grid()
        rows = []
        for k in _grid_spec(ns.k_grid):
            cdf = heights.rescaled_cdf(ns.N, float(k), ns.wall)
            f1 = tracy_widom(float(k), "F1", grid)
            rows.append((float(k), cdf, f1, cdf - f1))
        table = Table(name="watermelon", params=params,
                      columns=("k", "cdf", "F1", "diff"), rows=rows)
    _emit(config, table)


def _cmd_converge(config, ns):
    grid = build_grid()
    walls = heights.WALLS if ns.wall == "both" else (ns.wall,)
    ks = _grid_spec(ns.k_grid)
    rows = []
    for wall in walls:
        for N, d in heights.convergence_study(_int_list(ns.n_list), ks, wall, grid):
            rows.append((wall, N, d))
    _emit(config, Table(name="watermelon-convergence",
                        params={"k_grid": ns.k_grid},
                        columns=("wall", "N", "sup_diff"), rows=rows))


def _cmd_dgop(config, ns):
    system = dgop.build_system(ns.n, ns.alpha, ns.a, ns.kmax)
    rows = [(k, float(system.A[k]), float(system.B[k]), float(system.log_h[k]))
            for k in range(system.k_max + 1)]
    _emit(config, Table(name="dgop",
                        params={"n": ns.n, "alpha": ns.alpha, "a": ns.a,
                                "kmax": ns.kmax, "nodes": len(system.nodes)},
                        columns=("k", "A", "B", "log_h"), rows=rows))


def _cmd_kernel(config, ns):
    grid = build_grid()
    psis = psikernel.integrate_psi(2.0 ** (2.0 / 3.0) * ns.L, painleve=grid)
    pts = _float_list(ns.grid)
    rows_raw, skipped = asym.kernel_limit_table(ns.n, ns.L, pts, pts,
                                                  grid, psis)
    rows = [(ns.n, f"K({r['u']:.6g};{r['v']:.6g})", r["exact"], r["limit"],
             r["rel_diff"]) for r in rows_raw]
    if not rows:
        raise WatermelonError("all kernel pairs collided on the lattice")
    _emit(config, Table(name="kernel",
                        params={"n": ns.n, "L": ns.L, "skipped": len(skipped)},
                        columns=("n", "quantity", "exact", "asymptotic", "rel_err"),
                        rows=rows))


def _cmd_free_energy(config, ns):
    grid = build_grid()
    rows = []
    for n in _int_list(ns.n_list):
        for L in _float_list(ns.l_list):
            cmp_ = asym.free_energy_comparison(n, L, grid)
            rel = abs(cmp_["residual"] / cmp_["asymptotic"])
            rows.append((n, f"free-energy(L={L:g})", cmp_["exact"],
                         cmp_["asymptotic"], rel))
    _emit(config, Table(name="free-energy", params={},
                        columns=("n", "quantity", "exact", "asymptotic", "rel_err"),
                        rows=rows))


def _cmd_validate(config, ns):
    ctx = validation.ValidationContext()
    results = validation.run_suite(ns.suite, ctx, report=print)
    if config.output != "-":
        table = Table(name="validation", params={"suite": ns.suite},
                      columns=("criterion", "name", "passed", "seconds"),
                      rows=[(r.criterion, r.name, r.passed, r.seconds)
                            for r in results])
        emit(table, config.format, config.output)
    if not all(r.passed for r in results):
        raise WatermelonError(
            f"{sum(not r.passed for r in results)} criterion(s) failed")


_DISPATCH = {
    "tw": _cmd_tw,
    "height": _cmd_height,
    "converge": _cmd_converge,
    "dgop": _cmd_dgop,
    "kernel": _cmd_kernel,
    "free-energy": _cmd_free_energy,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config, ns = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        _DISPATCH[config.command](config, ns)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WatermelonError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
