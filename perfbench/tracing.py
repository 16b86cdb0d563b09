"""Spans around the calls into each watermelon layer, recorded from outside.

The tracer replaces public functions with timing wrappers.  A function is
rebound in every ``watermelon`` module that holds it under any name, so a
call through ``from .painleve import tracy_widom`` is timed as well as one
through ``painleve.tracy_widom``.  ``solve_ivp`` is wrapped only where
``psikernel`` sees it.  The program's source is not touched, and an
untraced run installs nothing.

A span is ``[name, start, end, parent, op, extra]``: ``parent`` is the index
of the enclosing span (-1 at the top), ``op`` the operation id the runner set,
and ``extra`` a value read from the call's arguments or result (node-degree
counts, ``nfev``, a criterion's own seconds).  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("painleve", "dgop", "heights", "psikernel", "asym", "oracles",
          "tableio", "cli", "validation")

# Criteria run by the two ``validate`` suites of the cli-session workload.
CRITERIA = (1, 2, 3, 6, 7, 13)


def _stieltjes_extra(args, kwargs, result):
    A, phi = result[0], result[3]
    return [len(args[0]) * len(A), 0 if phi is None else phi.nbytes]


def _residual_extra(args, kwargs, result):
    return result.residual_norm


def _nfev_extra(args, kwargs, result):
    return int(result.nfev)


def _criterion_extra(args, kwargs, result):
    return [result.criterion, result.seconds]


# (module, attribute, rebind everywhere, extra reader)
TARGETS = (
    ("painleve", "solve_hastings_mcleod", True, None),
    ("painleve", "accumulate_tails", True, None),
    ("painleve", "build_grid", True, _residual_extra),
    ("painleve", "load_grid", True, None),
    ("painleve", "save_grid", True, None),
    ("painleve", "tracy_widom", True, None),
    ("dgop", "build_system", True, None),
    ("dgop", "build_lattice", True, None),
    ("dgop", "stieltjes", True, _stieltjes_extra),
    ("heights", "tabulate_rescaled", True, None),
    ("heights", "log_height_cdf", True, None),
    ("psikernel", "integrate_psi", True, None),
    ("psikernel", "kernel_integral_form", True, None),
    ("psikernel", "compatibility_defect", True, None),
    ("psikernel", "critical_kernel", True, None),
    ("psikernel", "solve_ivp", False, _nfev_extra),
    ("asym", "asymptotic_h", True, None),
    ("asym", "free_energy_comparison", True, None),
    ("asym", "kernel_limit_table", True, None),
    ("oracles", "shooting_q0", True, None),
    ("oracles", "fredholm_f2", True, None),
    ("tableio", "emit", True, None),
    ("validation", "run_criterion", True, _criterion_extra),
    ("cli", "main", False, None),
)


class Tracer:
    """Collects spans from wrapped functions while ``enabled`` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup"
        self.enabled = True
        self._stack: list[int] = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target present in the loaded watermelon modules.

        A target a later version of the program no longer has is skipped;
        its metrics then read 0.  Returns the span names installed.
        """
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "watermelon" or n.startswith("watermelon."))]
        installed = []
        for modname, attr, everywhere, extra in TARGETS:
            home = sys.modules.get(f"watermelon.{modname}")
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(f"{modname}.{attr}", fn, extra)
            for module in (modules if everywhere else [home]):
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapped)
            installed.append(f"{modname}.{attr}")
        return installed


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s") or ".criterion_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_frac", "_per_build", "_residual")):
        return "ratio"
    return "count"


def merge(into: list, spans: list, op) -> None:
    """Append another process's spans, re-basing parent indices."""
    base = len(into)
    for name, t0, t1, parent, _, extra in spans:
        into.append([name, t0, t1, parent + base if parent >= 0 else -1, op, extra])


def per_layer(spans: list, cli_records: list, table_bytes: int) -> dict:
    """Per-layer metrics from one traced run.

    ``cli_records`` holds one ``{"import_s", "wall_s"}`` per CLI process;
    ``table_bytes`` is the table output the CLI wrote.
    """
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    has_lattice_child = [False] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        if parent >= 0:
            child_time[parent] += t1 - t0
            if name == "dgop.build_lattice":
                has_lattice_child[parent] = True

    self_s = dict.fromkeys(LAYERS, 0.0)
    node_degrees = phi_bytes = rhs_evals = 0
    residual = 0.0
    criterion_s = dict.fromkeys(CRITERIA, 0.0)
    builds = hits = 0
    for i, (name, t0, t1, _, _, extra) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += (t1 - t0) - child_time[i]
        if name == "dgop.stieltjes" and extra is not None:
            node_degrees += extra[0]
            phi_bytes += extra[1]
        elif name == "psikernel.solve_ivp" and extra is not None:
            rhs_evals += extra
        elif name == "painleve.build_grid" and extra is not None:
            residual = max(residual, extra)
        elif name == "validation.run_criterion" and extra is not None:
            if extra[0] in criterion_s:
                criterion_s[extra[0]] += extra[1]
        elif name == "dgop.build_system":
            builds += 1
            hits += not has_lattice_child[i]

    cli_import = sum(r["import_s"] for r in cli_records)
    cli_wall = sum(r["wall_s"] for r in cli_records)

    def c(name):
        return count.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    misses = builds - hits
    out = {
        "painleve.solve_s": s("painleve.solve_hastings_mcleod"),
        "painleve.tails_s": s("painleve.accumulate_tails"),
        "painleve.build_grid_s": s("painleve.build_grid"),
        "painleve.load_grid_calls": c("painleve.load_grid"),
        "painleve.save_grid_s": s("painleve.save_grid"),
        "painleve.tracy_widom_calls": c("painleve.tracy_widom"),
        "painleve.tracy_widom_s": s("painleve.tracy_widom"),
        "painleve.newton_residual": residual,
        "dgop.build_system_calls": builds,
        "dgop.build_system_s": s("dgop.build_system"),
        "dgop.build_lattice_s": s("dgop.build_lattice"),
        "dgop.passes_per_build": c("dgop.stieltjes") / misses if misses else 0.0,
        "dgop.stieltjes_calls": c("dgop.stieltjes"),
        "dgop.stieltjes_s": s("dgop.stieltjes"),
        "dgop.node_degrees": node_degrees,
        "dgop.memo_hit_ratio": hits / builds if builds else 0.0,
        "dgop.phi_mb": phi_bytes / 1e6,
        "heights.tabulate_rescaled_s": s("heights.tabulate_rescaled"),
        "heights.log_height_cdf_calls": c("heights.log_height_cdf"),
        "heights.log_height_cdf_s": s("heights.log_height_cdf"),
        "psikernel.integrate_psi_calls": c("psikernel.integrate_psi"),
        "psikernel.integrate_psi_s": s("psikernel.integrate_psi"),
        "psikernel.kernel_integral_form_s": s("psikernel.kernel_integral_form"),
        "psikernel.compatibility_defect_s": s("psikernel.compatibility_defect"),
        "psikernel.ode_solves": c("psikernel.solve_ivp"),
        "psikernel.rhs_evals": rhs_evals,
        "psikernel.critical_kernel_s": s("psikernel.critical_kernel"),
        "asym.asymptotic_h_s": s("asym.asymptotic_h"),
        "asym.free_energy_comparison_s": s("asym.free_energy_comparison"),
        "asym.kernel_limit_table_s": s("asym.kernel_limit_table"),
        "oracles.shooting_q0_s": s("oracles.shooting_q0"),
        "oracles.fredholm_f2_s": s("oracles.fredholm_f2"),
        "tableio.emit_s": s("tableio.emit"),
        "tableio.bytes": table_bytes,
        "cli.import_s": cli_import,
        "cli.main_s": s("cli.main"),
        "cli.interpreter_s": cli_wall - cli_import - s("cli.main"),
    }
    for k in CRITERIA:
        out[f"validation.criterion_s.{k}"] = criterion_s[k]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out
