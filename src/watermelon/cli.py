"""Command-line surface.

Exit codes: 0 success, 1 usage (also a ``ValueError`` from the library),
2 numerical failure, 3 I/O.  The global flags ``--output`` and ``--format``
go before the command.  All tables go through the deterministic emitter;
the only varying header line is the wall clock.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

# Each command imports the engine modules it calls when it runs, so a fresh
# process loads only those; the parser needs the choices module alone.
from .choices import SUITES, WALLS
from .errors import WatermelonError
from .painleve import build_grid, tracy_widom
from .tableio import Table, emit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

MAX_GRID_POINTS = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _grid_spec(text: str) -> np.ndarray:
    if text.split() != [text]:  # converge writes the spec into its header
        raise UsageError(f"bad grid spec {text!r}; it takes no whitespace")
    try:
        lo, hi, step = (float(tok) for tok in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad grid spec {text!r}; want MIN:MAX:STEP") from exc
    if not (step > 0 and hi >= lo):  # NaN fails too
        raise UsageError(f"bad grid spec {text!r}")
    if not (hi + 0.5 * step - lo) / step <= MAX_GRID_POINTS:
        raise UsageError(f"grid spec {text!r} has more than "
                         f"{MAX_GRID_POINTS} points")
    points = np.arange(lo, hi + 0.5 * step, step)
    if not points.size:  # hi + step / 2 rounds to lo
        raise UsageError(f"grid spec {text!r} holds no point")
    return points


def _parse_list(text: str, kind) -> list:
    try:
        values = [kind(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad list {text!r}") from exc
    if not values:
        raise UsageError(f"empty list {text!r}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="watermelon", description=__doc__)
    parser.add_argument("--output", default="-", help="output path or - for stdout")
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tw", help="Tracy-Widom CDF table")
    p.add_argument("--which", required=True, choices=("f1", "f2"))
    p.add_argument("--xmin", type=float, default=-6.0)
    p.add_argument("--xmax", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.1)

    p = sub.add_parser("height", help="maximal-height CDF table")
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--wall", required=True, choices=WALLS)
    p.add_argument("--M-grid", dest="m_grid", default=None)
    p.add_argument("--k-grid", dest="k_grid", default=None)

    p = sub.add_parser("converge", help="sup-distance to Tracy-Widom GOE per N")
    p.add_argument("--N-list", dest="n_list", default="8,16,32,64")
    p.add_argument("--wall", default="both",
                   choices=WALLS + ("both",))
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
    p.add_argument("--suite", default="all", choices=sorted(SUITES))
    return parser


_GLOBAL_FLAGS = ("--output", "--format")


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


def parse_args(argv) -> argparse.Namespace:
    if not argv:
        raise UsageError("no command given")
    _check_global_flags(argv)
    return build_parser().parse_args(_join_negative_values(list(argv)))


def _emit(ns: argparse.Namespace, table: Table) -> None:
    emit(table, ns.format, sys.stdout if ns.output == "-" else ns.output)


def _cmd_tw(ns):
    xs = _grid_spec(f"{ns.xmin}:{ns.xmax}:{ns.step}")
    grid = build_grid()
    which = "F1" if ns.which == "f1" else "F2"
    rows = [(float(x), tracy_widom(float(x), which, grid)) for x in xs]
    _emit(ns, Table(name="tracy-widom", columns=("x", which),
                    params={"which": which, "xmin": ns.xmin,
                            "xmax": ns.xmax, "step": ns.step}, rows=rows))


def _cmd_height(ns):
    from . import heights
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
    _emit(ns, table)


def _cmd_converge(ns):
    from . import heights
    N_values = _parse_list(ns.n_list, int)
    grid = build_grid()
    walls = WALLS if ns.wall == "both" else (ns.wall,)
    ks = _grid_spec(ns.k_grid)
    rows = []
    for wall in walls:
        for N, d in heights.convergence_study(N_values, ks, wall, grid):
            rows.append((wall, N, d))
    _emit(ns, Table(name="watermelon-convergence",
                    params={"k_grid": ns.k_grid},
                    columns=("wall", "N", "sup_diff"), rows=rows))


def _cmd_dgop(ns):
    from . import dgop
    system = dgop.build_system(ns.n, ns.alpha, ns.a, ns.kmax)
    rows = [(k, float(system.A[k]), float(system.B[k]), float(system.log_h[k]))
            for k in range(system.k_max + 1)]
    _emit(ns, Table(name="dgop",
                    params={"n": ns.n, "alpha": ns.alpha, "a": ns.a,
                            "kmax": ns.kmax, "nodes": len(system.nodes)},
                    columns=("k", "A", "B", "log_h"), rows=rows))


def _cmd_kernel(ns):
    from . import asym, psikernel
    pts = _parse_list(ns.grid, float)
    asym.a_of_L(ns.n, ns.L)  # reject (n, L) before the psi pair is built
    grid = build_grid()
    psis = psikernel.integrate_psi(2.0 ** (2.0 / 3.0) * ns.L, painleve=grid)
    rows_raw, skipped = asym.kernel_limit_table(ns.n, ns.L, pts, pts,
                                                  grid, psis)
    rows = [(ns.n, f"K({r['u']:.6g};{r['v']:.6g})", r["exact"], r["limit"],
             r["rel_diff"]) for r in rows_raw]
    _emit(ns, Table(name="kernel",
                    params={"n": ns.n, "L": ns.L, "skipped": len(skipped)},
                    columns=("n", "quantity", "exact", "asymptotic", "rel_err"),
                    rows=rows))


def _cmd_free_energy(ns):
    from . import asym
    n_values = _parse_list(ns.n_list, int)
    L_values = _parse_list(ns.l_list, float)
    grid = build_grid()
    rows = []
    for n in n_values:
        for L in L_values:
            cmp_ = asym.free_energy_comparison(n, L, grid)
            rel = abs(cmp_["residual"] / cmp_["asymptotic"])
            rows.append((n, f"free-energy(L={L:g})", cmp_["exact"],
                         cmp_["asymptotic"], rel))
    _emit(ns, Table(name="free-energy", params={},
                    columns=("n", "quantity", "exact", "asymptotic", "rel_err"),
                    rows=rows))


def _cmd_validate(ns):
    from . import validation
    ctx = validation.ValidationContext()
    results = []
    for number in SUITES[ns.suite]:
        results.append(validation.run_criterion(number, ctx))
        print(results[-1].line())
    if ns.output != "-":
        table = Table(name="validation", params={"suite": ns.suite},
                      columns=("criterion", "name", "passed", "seconds"),
                      rows=[(r.criterion, r.name, r.passed, r.seconds)
                            for r in results])
        _emit(ns, table)
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
        ns = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        _DISPATCH[ns.command](ns)
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
