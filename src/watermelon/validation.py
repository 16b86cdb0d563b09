"""One-shot verification driver for the acceptance checks.

Each criterion is a function returning (passed, detail); the registry keys
them 1..15 so the CLI and the test suite run exactly the same code.  Two
checks (12 and 14) assert bounds that the underlying quantities do not
actually attain in binary64 (the lattice sums here converge faster than
any power and 1 - P underflows; see the README's Known limitations); they
are implemented as stated and report their measured failure rather than
being weakened.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import WatermelonError
from .oracles import (brute_force_height_cdf, fredholm_f2, resolvent_q,
                      riemann_sum_order)
from .painleve import PainleveGrid, airy_ai, build_grid, tracy_widom

# Each criterion imports the engine modules it calls, so a suite loads only
# what its criteria run.


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.criterion:02d} {status} "
                f"[{self.seconds:6.1f}s] {self.name}: {self.detail}")


class ValidationContext:
    """The Painleve grid, built on first read and shared by the criteria."""

    @cached_property
    def grid(self) -> PainleveGrid:
        return build_grid()


def _c01_hastings_mcleod(ctx):
    grid = ctx.grid
    inside = np.abs(grid.s_values) <= 10.0
    res_ok = grid.residual_norm <= 1e-8
    tail = abs(grid.q_at(8.0) / airy_ai(8.0)[0] - 1.0)
    agree = abs(grid.q_at(0.0) - resolvent_q(0.0))
    ok = res_ok and inside.any() and tail <= 1e-5 and agree <= 1e-7
    return ok, (f"residual={grid.residual_norm:.2e}, |q(8)/Ai(8)-1|={tail:.2e}, "
                f"|q0-resolvent|={agree:.2e}")


def _c02_f2_vs_fredholm(ctx):
    worst = max(abs(tracy_widom(float(x), "F2", ctx.grid) - fredholm_f2(float(x)))
                for x in range(-4, 3))
    return worst <= 1e-5, f"max |F2 - det oracle| = {worst:.2e} over x in -4..2"


def _c03_cdf_structure(ctx):
    g = ctx.grid
    mono = (np.all(np.diff(g.f1) >= -1e-15) and np.all(np.diff(g.f2) >= -1e-15))
    bounds = (np.all(g.f1 > 0) and np.all(g.f1 <= 1)
              and np.all(g.f2 > 0) and np.all(g.f2 <= 1))
    order = np.all(g.f1 <= np.sqrt(g.f2) + 1e-14)
    return bool(mono and bounds and order), \
        f"monotone={bool(mono)}, in(0,1]={bool(bounds)}, F1<=sqrt(F2)={bool(order)}"


def _c04_oracle_equivalence(ctx):
    from . import heights
    worst = 0.0
    for N in (1, 2):
        for wall in heights.WALLS:
            for M in (1.5, 2.5, 4.0):
                diff = abs(heights.height_cdf(N, M, wall)
                           - brute_force_height_cdf(N, M, wall))
                worst = max(worst, diff)
    return worst <= 1e-10, f"max |OP product - brute force| = {worst:.2e}"


def _c05_maxheight_trend(ctx):
    from . import heights
    details = []
    ok = True
    for wall in heights.WALLS:
        table = heights.convergence_study((8, 16, 32, 64),
                                          heights.DEFAULT_K_GRID, wall, ctx.grid)
        ds = [d for _, d in table]
        strict = all(ds[i + 1] < ds[i] for i in range(3))
        halved = ds[3] < ds[0] / 2.0
        ok = ok and strict and halved
        details.append(f"{wall}: d_N={['%.4f' % d for d in ds]}")
    return ok, "; ".join(details)


def _c06_toda(ctx):
    from . import dgop
    ok = True
    worst = None
    for alpha in (0.0, 0.25):
        for a in (0.8, 1.0, 1.1):
            d1 = dgop.toda_residual(24, alpha, a, 1e-3)[2]
            d2 = dgop.toda_residual(24, alpha, a, 5e-4)[2]
            ratio = d1 / d2
            if not 3.2 <= ratio <= 4.8:
                ok = False
            if worst is None or abs(ratio - 4.0) > abs(worst - 4.0):
                worst = ratio
    return ok, f"worst defect ratio {worst:.2f} (target 4 +- 20%)"


def _c07_rescaling(ctx):
    from . import dgop
    worst = 0.0
    for alpha in (0.0, 0.5):
        system = dgop.build_system(30, alpha, 0.9, 20)
        for direction in (+1, -1):
            worst = max(worst, dgop.rescale_check(system, direction))
    return worst <= 1e-9, f"max rescaling defect = {worst:.2e}"


def _c08_asymptotic_h(ctx):
    from . import asym, dgop
    grid = ctx.grid
    ok = True
    worst = None
    for x in (-1.0, 0.0, 2.0):
        errs = {}
        for n in (32, 64, 128, 256):
            a = 1.0 - x * n ** (-2.0 / 3.0)
            system = dgop.build_system(n, 0.0, a, n)
            pred, _ = asym.asymptotic_h(n, 0.0, a, grid)
            errs[n] = abs(math.expm1(system.log_h[n] - pred))
        for n in (32, 64, 128):
            ratio = errs[2 * n] / errs[n]
            if not 0.3 <= ratio <= 0.8:
                ok = False
            if worst is None or abs(ratio - 0.5) > abs(worst - 0.5):
                worst = ratio
    a_errs = []
    for n in (64, 128):
        system = dgop.build_system(n, 0.25, 1.0, n)
        a_errs.append(abs(system.A[n - 1] / asym.asymptotic_A(n, 0.25, 1.0, grid) - 1.0))
    a_ok = a_errs[1] < a_errs[0]
    return ok and a_ok, (f"worst h ratio {worst:.2f} (window [0.3,0.8]); "
                         f"A errs {a_errs[0]:.3f}->{a_errs[1]:.3f}")


def _c09_subcritical(ctx):
    from . import asym, dgop
    n, a = 40, 0.5
    system = dgop.build_system(n, 0.25, a, n)
    pred = asym.subcritical_h(n, a)
    bound = 10.0 * n ** (-4.0)
    e1 = abs(math.expm1(system.log_h[n] - pred["log_h_nn"]))
    e2 = abs(math.expm1(-system.log_h[n - 1] - pred["log_inv_h_nnm1"]))
    a_max = float(np.max(np.abs(system.A)))
    ok = e1 <= bound and e2 <= bound and a_max <= 1e-10
    return ok, f"line errors {e1:.2e}, {e2:.2e} (bound {bound:.2e}); max|A|={a_max:.2e}"


def _c10_kernel_theorem(ctx):
    from . import asym, psikernel
    pts = (0.5, -0.5, 1.0, -1.0)
    psis = psikernel.integrate_psi(2.0 ** (2.0 / 3.0), ctx.grid)
    dists = {}
    for n in (64, 128):
        rows, _ = asym.kernel_limit_table(n, 1.0, pts, pts, ctx.grid, psis)
        dists[n] = asym.kernel_table_distance(rows)
    ok = (dists[128]["offdiagonal"] < dists[64]["offdiagonal"]
          and dists[128]["diagonal"] < dists[64]["diagonal"])
    return ok, (f"offdiag {dists[64]['offdiagonal']:.3f}->{dists[128]['offdiagonal']:.3f}, "
                f"diag {dists[64]['diagonal']:.3f}->{dists[128]['diagonal']:.3f}")


def _c11_free_energy(ctx):
    from . import asym
    ok = True
    parts = []
    for L in (-1.0, 0.0, 1.0):
        r32 = asym.free_energy_comparison(32, L, ctx.grid)["residual"]
        r64 = asym.free_energy_comparison(64, L, ctx.grid)["residual"]
        if not (r64 < r32 and max(r32, r64) <= 1e-2):
            ok = False
        parts.append(f"L={L:+.0f}: {r32:.1e}->{r64:.1e}")
    return ok, "; ".join(parts)


def _c12_riemann_order(ctx):
    # These analytic integrands beat every polynomial order, so the fit is
    # expected to be impossible and the check records an honest failure
    # (README, Known limitations).
    parts = []
    ok = True
    for ens in ("LUE", "GUE"):
        try:
            slope = riemann_sum_order(2, [0.2, 0.1, 0.05], ens)
            fit_ok = 3.5 <= slope <= 4.5
            parts.append(f"{ens}: slope={slope:.2f}")
        except WatermelonError as exc:
            fit_ok = False
            parts.append(f"{ens}: {exc}")
        ok = ok and fit_ok
    return ok, "; ".join(parts)


def _c13_kernel_algebra(ctx):
    from . import dgop
    n = 24
    system = dgop.build_system(n, 0.0, 1.0, n)
    K = dgop.cd_kernel_matrix(system, n)
    trace_err = abs(float(np.trace(K)) - n)
    idem_err = float(np.max(np.abs(K @ K - K)))
    diag = np.diag(K)
    bounds = bool(np.all(diag >= -1e-12) and np.all(diag <= 1.0 + 1e-12))
    ok = trace_err <= 1e-8 and idem_err <= 1e-8 and bounds
    return ok, f"|trace-n|={trace_err:.2e}, idempotence={idem_err:.2e}, 0<=K(x,x)<=1: {bounds}"


def _c14_small_a(ctx):
    from . import heights
    # Faithful to the stated check; in binary64 1 - P underflows at these
    # parameters (it is of order M^2 exp(-2 M^2)), so stable ratios cannot
    # be observed and the criterion records an honest failure.
    parts = []
    ok = True
    for N in (2, 8):
        recs = heights.small_a_check(N, (0.02, 0.01, 0.005))
        ratios = [r["ratio"] for r in recs]
        finite = [r for r in ratios if math.isfinite(r) and r > 0.0]
        stable = (len(finite) == len(ratios)
                  and max(finite) < 2.0 * min(finite))
        if not stable:
            ok = False
            flags = ["indistinguishable-from-limit" if not r["distinguishable"]
                     else f"{r['ratio']:.2e}" for r in recs]
            parts.append(f"N={N}: {flags}")
        else:
            parts.append(f"N={N}: ratios {['%.2e' % r for r in ratios]}")
    return ok, "; ".join(parts)


def _c15_psi_compatibility(ctx):
    from . import psikernel
    d1 = psikernel.compatibility_defect(1.0, 0.02, ctx.grid)
    d2 = psikernel.compatibility_defect(1.0, 0.01, ctx.grid)
    ratio = d1 / d2
    return 3.2 <= ratio <= 4.8, \
        f"defect(0.02)={d1:.2e}, defect(0.01)={d2:.2e}, ratio={ratio:.2f}"


CHECKS = {
    1: ("hastings-mcleod solver", _c01_hastings_mcleod, 10.0),
    2: ("F2 vs Fredholm determinant oracle", _c02_f2_vs_fredholm, 30.0),
    3: ("Tracy-Widom CDF structure", _c03_cdf_structure, None),
    4: ("height CDF oracle equivalence", _c04_oracle_equivalence, 5.0),
    5: ("maximal-height convergence trend", _c05_maxheight_trend, 300.0),
    6: ("Toda deformation identity order", _c06_toda, 30.0),
    7: ("lattice rescaling identity", _c07_rescaling, None),
    8: ("normalizing-constant asymptotics", _c08_asymptotic_h, 120.0),
    9: ("subcritical norm expansion", _c09_subcritical, None),
    10: ("critical kernel limit", _c10_kernel_theorem, 180.0),
    11: ("free-energy comparison", _c11_free_energy, None),
    12: ("Riemann-sum order fit", _c12_riemann_order, None),
    13: ("kernel projection algebra", _c13_kernel_algebra, None),
    14: ("small-a tail ratio", _c14_small_a, None),
    15: ("psi cross-derivative compatibility", _c15_psi_compatibility, None),
}


def run_criterion(number: int, ctx: ValidationContext) -> CheckResult:
    name, func, budget = CHECKS[number]
    start = time.perf_counter()
    try:
        passed, detail = func(ctx)
    except WatermelonError as exc:
        passed, detail = False, f"error: {exc}"
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        passed = False
        detail += f" (runtime {elapsed:.1f}s exceeds budget {budget:.0f}s)"
    return CheckResult(criterion=number, name=name, passed=bool(passed),
                       detail=detail, seconds=elapsed)
