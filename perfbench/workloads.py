"""Seeded inputs, operations and correctness checks of the four workloads.

Why these four (see also README.md):

* ``height-sweep`` is the paper's headline computation: exact finite-N
  maximal-height CDFs on a rescaled k-grid, swept in N toward Tracy-Widom
  GOE.  Its time is in ``dgop`` window certification over many small n = 1
  systems; ``psikernel`` is idle.
* ``critical-dgop`` builds one large system per operation (k_max = n, phi
  kept) at the saturation point, n in [32, 352), and compares it with the
  closed-form asymptotics.  The kernel operation asks again for the system
  the norm operation of the same draw built, so it is the workload where
  the ``build_system`` memo can hit.
* ``psi-kernel`` is almost all psi-function ODE solves and never enters
  ``dgop``.
* ``cli-session`` runs the command line in fresh processes, so the import,
  the Painleve disk cache, ``tableio``, ``cli`` and the ``validate`` oracles
  carry the time.

Inputs come from ``random.Random`` seeded with a string.  Python keeps that
seeding and ``random()`` stable across versions, but not ``choice``,
``shuffle`` or ``uniform``, so every draw below is built on ``random()``
alone and one seed gives byte-identical inputs.  A round is
the unit a run repeats; each round draws fresh inputs, so no workload reuses
an input to make a cache hit.

The rounds of ``critical-dgop`` and ``cli-session`` hold only inputs the
program at the seed computes right, so no timed operation of theirs fails.
Their seed defects are shown instead by ``defect_probes``: fixed operations
a run makes once, after its timed rounds, and reports apart from
``attempted`` and ``failed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re

WORKLOADS = ("height-sweep", "critical-dgop", "psi-kernel", "cli-session")

# Rounds a traced run makes: a fixed amount of work, so that counts such as
# Stieltjes passes repeat exactly for one seed and compare across versions.
TRACE_ROUNDS = {"height-sweep": 1, "critical-dgop": 24, "psi-kernel": 2,
                "cli-session": 1}

HEIGHT_N = (8, 16, 32, 64, 128, 176, 256)
HEIGHT_POINTS = 101
WALLS = ("absorbing", "reflecting")
DGOP_STRATA = 8
DGOP_STRIDE = 40
DGOP_KERNEL_DRAWS = 2
KERNEL_POINTS = (0.5, -0.5, 1.0, -1.0)
PSI_N_XI = 9

# Seed defects.  Those of ROADMAP item 2: height CDFs are wrong from N ~ 185
# and dgop norms, free energies and kernel tables from n ~ 372 (352 is the
# largest n measured clean).  And the ``kernel`` command's CSV: its quantity
# cells, ``K(u,v)``, hold an unquoted comma, so every row has one cell more
# than the header.  height-sweep keeps N = 256 in its rounds and counts those
# failures in ``failed``; ``correct`` only asks that no operation fails
# outside these cases.  The other two defects are kept out of the rounds and
# checked by ``defect_probes``.
HEIGHT_DEFECT_N = 185
DGOP_PROBE_N = (384, 448, 511)


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _pick(rng, seq):
    return seq[int(rng.random() * len(seq))]


def _shuffled(rng, seq):
    out = list(seq)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def _tenths(rng, lo, hi):
    """A multiple of 0.1 in [lo, hi]."""
    return round(lo + 0.1 * int(rng.random() * (round((hi - lo) * 10) + 1)), 1)


def round_inputs(workload: str, seed: int, index: int) -> list[dict]:
    """The operations of round ``index``; the same arguments give the same list."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return _ROUNDS[workload](rng)


def inputs_digest(rounds: list) -> str:
    return hashlib.sha256(json.dumps(rounds, sort_keys=True).encode()).hexdigest()


def _stratified(rng, lo, hi, count):
    """``count`` sorted points in [lo, hi], one uniform draw per equal cell.

    Every draw then covers [lo, hi] alike, so a table's cost depends little
    on the seed.
    """
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _height_round(rng):
    return [{"kind": "table", "N": N, "wall": wall,
             "k": _stratified(rng, -6.0, 4.0, HEIGHT_POINTS)}
            for N in HEIGHT_N for wall in WALLS]


def _dgop_round(rng):
    # One draw per n-stratum of [32, 352), so every round has the same mix
    # of sizes and a run's rate does not depend on which n the seed drew.
    # Above n = 352 the seed's results go wrong; defect_probes covers that.
    kernel_draws = set(_shuffled(rng, range(DGOP_STRATA))[:DGOP_KERNEL_DRAWS])
    ops = []
    for stratum in _shuffled(rng, range(DGOP_STRATA)):
        n = 32 + int(DGOP_STRIDE * (stratum + rng.random()))
        alpha = _pick(rng, (0.0, 0.25))
        # The kernel limit is taken at L = 1, so its draw's norm operation
        # uses x = 1 and the kernel asks for the same system.  x stays above
        # -1: below it, for odd n, the two-term expansion the check compares
        # with is itself off by 0.1-0.7 up to n = 352 (0.68 at n = 33,
        # x = -2), as far off as the seed defect, so no envelope could tell
        # the two apart.
        x = 1.0 if stratum in kernel_draws else _uniform(rng, -1.0, 2.0)
        ops.append({"kind": "norm", "n": n, "alpha": alpha, "x": x})
        ops.append({"kind": "free-energy", "n": n, "alpha": alpha, "x": x})
        if stratum in kernel_draws:
            ops.append({"kind": "kernel", "n": n, "alpha": alpha})
    return ops


def _psi_round(rng):
    # n_xi = 9 resolves the integral form to ~6e-3 for |u|, |v| <= 0.75 and
    # s <= 1; beyond that the 9-point Simpson rule itself errs by 1e-2 or more.
    ops = [{"kind": "kernel", "u": _uniform(rng, -0.75, 0.75),
            "v": _uniform(rng, -0.75, 0.75), "s": s}
           for s in _stratified(rng, -2.0, 1.0, 2)]
    ops.append({"kind": "compat", "s": _uniform(rng, -2.0, 2.0),
                "delta": _uniform(rng, 0.01, 0.03)})
    return ops


def _grid_rows(lo, hi, step):
    return round((hi - lo) / step) + 1


def _cli_round(rng):
    # Arguments vary with the seed but each command's cost stays about the
    # same, so a one-round run measures the same work for every seed.
    ops = []
    xmin, xmax = _tenths(rng, -6.0, -5.0), _tenths(rng, 3.0, 4.0)
    which = _pick(rng, ("f1", "f2"))
    ops.append({"kind": "tw", "rows": _grid_rows(xmin, xmax, 0.1),
                "cdf": [which.upper()],
                "argv": ["tw", "--which", which, "--xmin", f"{xmin:.1f}",
                         "--xmax", f"{xmax:.1f}", "--step", "0.1"]})
    lo, hi = _tenths(rng, -6.0, -5.0), _tenths(rng, 3.0, 4.0)
    ops.append({"kind": "height-k", "rows": _grid_rows(lo, hi, 0.1),
                "cdf": ["cdf", "F1"],
                "argv": ["height", "--N", "32", "--wall", _pick(rng, WALLS),
                         "--k-grid", f"{lo:.1f}:{hi:.1f}:0.1"]})
    lo = _pick(rng, (1.0, 1.25, 1.5, 1.75, 2.0))
    ops.append({"kind": "height-M", "rows": _grid_rows(lo, lo + 6.0, 0.25),
                "cdf": ["cdf"],
                "argv": ["height", "--N", str(_pick(rng, (4, 6, 8))),
                         "--wall", _pick(rng, WALLS),
                         "--M-grid", f"{lo:g}:{lo + 6.0:g}:0.25"]})
    lo, hi = _tenths(rng, -6.0, -5.0), _tenths(rng, 3.0, 4.0)
    ops.append({"kind": "converge", "rows": 8, "cdf": ["sup_diff"],
                "argv": ["converge", "--N-list", "8,16,32,64", "--wall", "both",
                         "--k-grid", f"{lo:.1f}:{hi:.1f}:0.25"]})
    n = 96 + int(rng.random() * 65)
    ops.append({"kind": "dgop", "rows": n + 1, "cdf": [],
                "argv": ["dgop", "--n", str(n), "--alpha",
                         str(_pick(rng, (0.0, 0.25))),
                         "--a", f"{_uniform(rng, 0.9, 1.1):.3f}", "--kmax", str(n)]})
    # The ``kernel`` command writes malformed CSV at the seed, so it is not
    # in the round; defect_probes runs it once a run.
    levels = [f"{_uniform(rng, -1.5, 1.5):.2f}" for _ in range(3)]
    ops.append({"kind": "free-energy", "rows": 6, "cdf": [],
                "argv": ["free-energy", "--n-list", "32,64",
                         "--L-list", ",".join(levels)]})
    for suite in ("painleve", "dgop"):
        ops.append({"kind": f"validate-{suite}", "rows": 3, "cdf": [],
                    "argv": ["validate", "--suite", suite]})
    return ops


_ROUNDS = {"height-sweep": _height_round, "critical-dgop": _dgop_round,
           "psi-kernel": _psi_round, "cli-session": _cli_round}


def defect_probes(workload: str) -> list[dict]:
    """Fixed operations that fail at the seed, run once after the timed rounds.

    They show each seed defect kept out of the rounds in every run, and show
    when a later version mends it; they count in neither ``attempted`` nor
    ``failed``.
    """
    if workload == "critical-dgop":
        ops = []
        for n in DGOP_PROBE_N:
            ops.append({"kind": "norm", "n": n, "alpha": 0.0, "x": 1.0})
            ops.append({"kind": "free-energy", "n": n, "alpha": 0.0, "x": 1.0})
        ops.append({"kind": "kernel", "n": DGOP_PROBE_N[1], "alpha": 0.0})
        return ops
    if workload == "cli-session":
        return [{"kind": "kernel", "rows": 16, "cdf": [],
                 "argv": ["kernel", "--n", "128", "--L", "1.00",
                          "--grid", "-0.75,-0.25,0.25,0.75"]}]
    return []


def known_defect(workload: str, op: dict) -> bool:
    return workload == "height-sweep" and op["N"] >= HEIGHT_DEFECT_N


def describe(op: dict) -> str:
    if "argv" in op:
        return " ".join(op["argv"])
    return " ".join(f"{k}={v}" for k, v in op.items() if k not in ("kind", "k")) \
        + f" [{op['kind']}]"


# ---------------------------------------------------------------- in-process

class InProcess:
    """Set-up state and operations of the three in-process workloads."""

    def __init__(self, workload: str):
        from watermelon import asym, dgop, heights, painleve, psikernel
        self.workload = workload
        self.asym, self.dgop, self.heights = asym, dgop, heights
        self.painleve, self.psikernel = painleve, psikernel
        # No cache_dir, no WATERMELON_CACHE: the grid is what a first call in
        # an empty working directory gets.
        self.grid = painleve.build_grid()
        self.psis = None
        if workload == "critical-dgop":
            self.psis = psikernel.integrate_psi(2.0 ** (2.0 / 3.0), painleve=self.grid)

    def run(self, op: dict):
        kind = op["kind"]
        if kind == "table":
            dist = self.heights.tabulate_rescaled(op["N"], op["k"], op["wall"])
            f1 = [self.painleve.tracy_widom(k, "F1", self.grid) for k in op["k"]]
            return {"cdf": [float(c) for c in dist.cdf], "f1": f1}
        if self.workload == "critical-dgop":
            n, alpha = op["n"], op["alpha"]
            if kind == "norm":
                a = 1.0 - op["x"] * n ** (-2.0 / 3.0)
                system = self.dgop.build_system(n, alpha, a, n)
                pred, _ = self.asym.asymptotic_h(n, alpha, a, self.grid)
                return {"log_h": float(system.log_h[n]), "pred": pred}
            if kind == "free-energy":
                return self.asym.free_energy_comparison(n, op["x"], self.grid, alpha)
            rows, _ = self.asym.kernel_limit_table(
                n, 1.0, KERNEL_POINTS, KERNEL_POINTS, self.grid, self.psis, alpha)
            return self.asym.kernel_table_distance(rows)
        if kind == "kernel":
            return self.psikernel.kernel_integral_form(
                op["u"], op["v"], op["s"], self.grid, n_xi=PSI_N_XI)
        return self.psikernel.compatibility_defect(op["s"], op["delta"], self.grid)

    def check(self, op: dict, value) -> tuple[bool, str]:
        """Compare one output with its envelope; untimed and untraced."""
        kind = op["kind"]
        if kind == "table":
            cdf, f1 = value["cdf"], value["f1"]
            in_range = all(0.0 <= c <= 1.0 for c in cdf)
            monotone = all(b - a >= -1e-12 for a, b in zip(cdf, cdf[1:]))
            sup = max(abs(c - f) for c, f in zip(cdf, f1))
            # d_N falls like N^{-1/3}: 0.21 N^{-1/3} fits N = 8..176 on both walls.
            bound = 0.3 * op["N"] ** (-1.0 / 3.0)
            ok = in_range and monotone and sup <= bound
            return ok, (f"sup|cdf-F1|={sup:.3g} (<= {bound:.3g}), "
                        f"in [0,1]={in_range}, monotone={monotone}")
        if self.workload == "critical-dgop":
            n = op["n"]
            if kind == "norm":
                err = abs(math.expm1(value["log_h"] - value["pred"]))
                # 3x the worst error for n <= 352 (0.29 n^{-2/3}, odd n, x = -1)
                bound = 1.0 * n ** (-2.0 / 3.0)
                return err <= bound, f"|h/h_asym - 1|={err:.3g} (<= {bound:.3g})"
            if kind == "free-energy":
                res = value["residual"]
                # 5x the worst residual for n <= 352 (2.1 n^{-5/2})
                bound = 10.0 * n ** (-2.5)
                ok = math.isfinite(res) and res <= bound
                return ok, f"residual={res:.3g} (<= {bound:.3g})"
            off, diag = value.get("offdiagonal", math.inf), value.get("diagonal", math.inf)
            # 1.6x / 2x the worst distances for n <= 352 (0.73 and 0.31 n^{-1/3})
            b_off, b_diag = 1.2 * n ** (-1.0 / 3.0), 0.6 * n ** (-1.0 / 3.0)
            ok = off <= b_off and diag <= b_diag
            return ok, (f"kernel distance off={off:.3g} (<= {b_off:.3g}), "
                        f"diag={diag:.3g} (<= {b_diag:.3g})")
        if kind == "kernel":
            ref_psi = self.psikernel.integrate_psi(op["s"], painleve=self.grid,
                                                   normalization="mean")
            ref = self.psikernel.critical_kernel(op["u"], op["v"], ref_psi)
            diff = abs(value - ref)
            return diff <= 1e-2, f"|integral - derivative form|={diff:.3g} (<= 0.01)"
        # The defect is pure O(delta^2) differencing bias, 0.4..0.8 delta^2.
        bound = 2.0 * op["delta"] ** 2
        ok = math.isfinite(value) and value <= bound
        return ok, f"defect={value:.3g} (<= {bound:.3g})"


def perturb(op: dict, value):
    """A deliberately wrong copy of an output (self-test of the checks)."""
    kind = op["kind"]
    if "argv" in op:
        return dict(value, code=1)
    if kind == "table":
        return dict(value, cdf=[c + 0.5 for c in value["cdf"]])
    if kind == "norm":
        return dict(value, log_h=value["log_h"] + 1.0)
    if kind == "free-energy":
        return dict(value, residual=value["residual"] + 1.0)
    if isinstance(value, dict):
        return {k: v + 1.0 for k, v in value.items()}
    return value + 1.0


_SECONDS = re.compile(r"\[\s*[0-9.]+s\]")


def digest(value) -> str:
    """Fingerprint of an output, to show a traced run computes the same."""
    if isinstance(value, dict) and "stdout" in value:
        # Drop what differs between two runs of the same command: the table's
        # time stamp and each validate criterion's own run time.
        value = [value["code"], [_SECONDS.sub("", line)
                                 for line in value["stdout"].splitlines()
                                 if not line.startswith("# generated")]]
    return hashlib.sha256(json.dumps(value, sort_keys=True, default=float)
                          .encode()).hexdigest()[:16]


# ---------------------------------------------------------------- cli-session

def check_cli(op: dict, value: dict) -> tuple[bool, str]:
    """Exit code, table shape, CDF columns in [0, 1], validate lines PASS.

    The table is parsed here rather than with ``tableio``, which is one of
    the layers under test.
    """
    if value["code"] != 0:
        tail = value["stderr"].strip().splitlines()[-1:] or [""]
        return False, f"exit {value['code']}: {tail[0][:200]}"
    lines = value["stdout"].splitlines()
    if op["kind"].startswith("validate"):
        found = [ln for ln in lines if ln.startswith("criterion ")]
        passed = [ln for ln in found if ln.split()[2] == "PASS"]
        ok = len(found) == op["rows"] and len(passed) == len(found)
        return ok, f"{len(passed)}/{len(found)} criteria PASS (want {op['rows']})"
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        return False, "no table"
    header, rows = body[0].split(","), [r.split(",") for r in body[1:]]
    want = op["rows"]
    if op["kind"] == "kernel":
        skipped = [int(tok.split("=", 1)[1]) for tok in meta[0].split()
                   if tok.startswith("skipped=")] if meta else []
        want -= skipped[0] if skipped else 0
    if len(rows) != want:
        return False, f"{len(rows)} rows, want {want}"
    widths = sorted({len(r) for r in rows} - {len(header)})
    if widths:
        return False, f"rows of {widths} cells under {len(header)} columns"
    for name in op["cdf"]:
        if name not in header:
            return False, f"column {name} missing"
        col = header.index(name)
        values = [float(r[col]) for r in rows]
        if not all(0.0 <= v <= 1.0 for v in values):
            return False, f"column {name} leaves [0, 1]"
    return True, f"{len(rows)} rows"
