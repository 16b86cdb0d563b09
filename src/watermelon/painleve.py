"""Hastings-McLeod solution of Painleve II and the Tracy-Widom CDFs.

The solver is a damped Newton iteration on a Numerov (fourth-order compact)
collocation of q'' = s q + 2 q^3 with Dirichlet data: Ai(s_max) on the right
and the standard negative-axis expansion sqrt(-s/2)(1 + 1/(8 s^3)) on the
left.  Tail integrals beyond s_max close with exact Airy identities, so a
modest s_max (default 12) already meets 1e-10 tail accuracy:

    int_s^inf Ai^2        = Ai'(s)^2 - s Ai(s)^2
    int_s^inf Ai          ~ exp(-(2/3) s^{3/2}) / (2 sqrt(pi) s^{3/4})
    int_s^inf (t-s) Ai^2  = -(2/3) s Ai'(s)^2 + (2/3) s^2 Ai(s)^2
                            - (1/3) Ai(s) Ai'(s)

The distribution pieces follow the usual chain R = int q^2, E = exp(-1/2
int q), F = exp(-1/2 int R), F1 = F*E, F2 = F^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.special import airy as _scipy_airy

from .errors import ConvergenceError, CoverageError, TailClosureError

_EPS = np.finfo(float).eps

DEFAULT_S_MIN = -12.0
DEFAULT_S_MAX = 12.0
DEFAULT_MESH = 4096
DEFAULT_TOL = 1e-10


def airy_ai(s: float) -> tuple[float, float]:
    """Airy function and derivative, gated to the supported range |s| <= 30."""
    if not np.all(np.abs(s) <= 30.0):
        raise CoverageError("airy argument out of supported range |s| <= 30")
    ai, aip, _, _ = _scipy_airy(s)
    return ai, aip


@dataclass
class PainleveGrid:
    """Tabulated Hastings-McLeod data on a uniform s-grid.

    ``residual_norm`` is the max-norm defect of the Numerov collocation
    equations at the returned iterate.  R, E, F, f1, f2 stay empty until
    :func:`accumulate_tails` fills them.
    """

    s_values: np.ndarray
    q: np.ndarray
    q_prime: np.ndarray
    R: np.ndarray
    E: np.ndarray
    F: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    residual_norm: float
    _splines: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def s_min(self) -> float:
        return float(self.s_values[0])

    @property
    def s_max(self) -> float:
        return float(self.s_values[-1])

    def spline(self, name: str) -> CubicSpline:
        if name not in self._splines:
            self._splines[name] = CubicSpline(self.s_values, getattr(self, name))
        return self._splines[name]

    def q_at(self, s: float) -> float:
        self._check(s)
        return float(self.spline("q")(s))

    def q_prime_at(self, s: float) -> float:
        self._check(s)
        return float(self.spline("q_prime")(s))

    def R_at(self, s: float) -> float:
        self._check(s)
        return float(self.spline("R")(s))

    def _check(self, s) -> None:
        s_arr = np.asarray(s)
        if not np.all((s_arr >= self.s_min) & (s_arr <= self.s_max)):  # NaN fails too
            raise CoverageError(f"s={s} outside grid [{self.s_min}, {self.s_max}]")


def solve_hastings_mcleod(s_min: float = DEFAULT_S_MIN,
                          s_max: float = DEFAULT_S_MAX,
                          mesh: int = DEFAULT_MESH,
                          tol: float = DEFAULT_TOL,
                          max_iter: int = 60) -> PainleveGrid:
    """Solve the Painleve II boundary value problem on [s_min, s_max].

    Initial guess is the patched asymptote (Ai on the right, sqrt(-s/2) on
    the left, smoothly blended over [-1, 1]).  Newton iterates until the
    collocation residual reaches max(tol, roundoff floor); the roundoff
    floor for the divided second difference is about eps / h^2.
    """
    if not (s_min < 0.0 < s_max):
        raise ValueError("require s_min < 0 < s_max")
    if s_max < 8.0:
        raise ValueError("require s_max >= 8")
    if mesh < 512:
        raise ValueError("require mesh >= 512")
    if tol < 1e-12:
        raise ValueError("require tol >= 1e-12")

    s = np.linspace(s_min, s_max, mesh + 1)
    h = s[1] - s[0]
    ai_grid = _scipy_airy(s)[0]
    neg = np.sqrt(np.maximum(-s, 0.0) / 2.0)
    t = np.clip((s + 1.0) / 2.0, 0.0, 1.0)
    blend = t * t * (3.0 - 2.0 * t)
    q = blend * ai_grid + (1.0 - blend) * neg
    q[0] = math.sqrt(-s_min / 2.0) * (1.0 + 1.0 / (8.0 * s_min**3))
    q[-1] = _scipy_airy(s_max)[0]

    floor = _EPS / h**2

    def defect(qv):
        rhs_full = s * qv + 2.0 * qv**3
        return (qv[:-2] - 2.0 * qv[1:-1] + qv[2:]) / h**2 \
            - (rhs_full[:-2] + 10.0 * rhs_full[1:-1] + rhs_full[2:]) / 12.0

    # Newton runs until the update itself is negligible: the max-norm
    # residual stalls at the roundoff floor eps/h^2 long before the
    # exponentially small right tail (q ~ 1e-8 at s = 8) has converged in
    # relative terms, so a residual test alone stops too early.
    for _ in range(max_iter):
        res = defect(q)
        jac = s + 6.0 * q**2
        ab = np.zeros((3, mesh - 1))
        ab[0, 1:] = (1.0 / h**2 - jac[2:] / 12.0)[:-1]
        ab[1, :] = -2.0 / h**2 - 10.0 * jac[1:-1] / 12.0
        ab[2, :-1] = (1.0 / h**2 - jac[:-2] / 12.0)[1:]
        dq = solve_banded((1, 1), ab, -res)
        lam = 1.0
        while lam > 1e-4:
            trial = q[1:-1] + lam * dq
            if np.all(np.isfinite(trial)):
                break
            lam *= 0.5
        q[1:-1] += lam * dq
        if lam == 1.0 and float(np.max(np.abs(dq))) < 8.0 * _EPS:
            break
    residual = float(np.max(np.abs(defect(q))))
    if residual > max(tol, 4.0 * floor):
        raise ConvergenceError(
            f"Newton stalled at residual {residual:.3e} (tol {tol:.1e})",
            residual=residual)

    # q' by integrating the ODE from the right edge: smoother than a spline
    # derivative and fourth-order accurate through the antiderivative.
    anti = CubicSpline(s, s * q + 2.0 * q**3).antiderivative()
    q_prime = _scipy_airy(s_max)[1] - (anti(s_max) - anti(s))

    empty = np.array([])
    return PainleveGrid(s_values=s, q=q, q_prime=np.asarray(q_prime),
                        R=empty, E=empty, F=empty, f1=empty, f2=empty,
                        residual_norm=residual)


def accumulate_tails(grid: PainleveGrid) -> PainleveGrid:
    """Fill R, E, F, F1, F2 by spline quadrature plus Airy tail closures."""
    if grid.q.size == 0:
        raise ValueError("grid has no q data")
    if grid.residual_norm > 1e-8:
        raise ConvergenceError("residual too large for tail accumulation",
                               residual=grid.residual_norm)
    s = grid.s_values
    q = grid.q
    s_max = grid.s_max
    ai_m, aip_m = airy_ai(s_max)

    r_tail = aip_m**2 - s_max * ai_m**2
    iq_tail = math.exp(-(2.0 / 3.0) * s_max**1.5) / (2.0 * math.sqrt(math.pi) * s_max**0.75)
    ir_tail = (-(2.0 / 3.0) * s_max * aip_m**2
               + (2.0 / 3.0) * s_max**2 * ai_m**2
               - (1.0 / 3.0) * ai_m * aip_m)

    anti_q2 = CubicSpline(s, q * q).antiderivative()
    R = (anti_q2(s_max) - anti_q2(s)) + r_tail
    if r_tail > 1e-10 * max(R[0], r_tail):
        raise TailClosureError(f"q^2 tail closure {r_tail:.3e} too large; extend s_max")

    anti_q = CubicSpline(s, q).antiderivative()
    int_q = (anti_q(s_max) - anti_q(s)) + iq_tail
    if iq_tail > 1e-10 * max(int_q[0], iq_tail):
        raise TailClosureError(f"q tail closure {iq_tail:.3e} too large; extend s_max")

    anti_r = CubicSpline(s, R).antiderivative()
    int_r = (anti_r(s_max) - anti_r(s)) + ir_tail
    if ir_tail > 1e-10 * max(int_r[0], ir_tail):
        raise TailClosureError(f"R tail closure {ir_tail:.3e} too large; extend s_max")

    grid.R = np.asarray(R)
    grid.E = np.exp(-0.5 * int_q)
    grid.F = np.exp(-0.5 * int_r)
    grid.f1 = grid.F * grid.E
    grid.f2 = grid.F * grid.F
    grid._splines.clear()
    return grid


def build_grid(s_min: float = DEFAULT_S_MIN, s_max: float = DEFAULT_S_MAX,
               mesh: int = DEFAULT_MESH, tol: float = DEFAULT_TOL) -> PainleveGrid:
    """Solve + accumulate: the grid every Tracy-Widom evaluation reads."""
    return accumulate_tails(solve_hastings_mcleod(s_min, s_max, mesh, tol))


def tracy_widom(x: float, which: str, grid: PainleveGrid) -> float:
    """Tracy-Widom CDF value: F*E for F1, F^2 for F2, clamped to [0, 1].

    Values above s_max saturate to the s_max value (the tail integrals have
    already vanished there); values below s_min raise rather than
    extrapolate.
    """
    if grid.f2.size == 0:
        raise ValueError("grid lacks distribution data; run accumulate_tails")
    key = which.lower()
    if key not in ("f1", "f2"):
        raise ValueError("which must be 'F1' or 'F2'")
    if x < grid.s_min:
        raise CoverageError(f"x={x} below tabulated s_min={grid.s_min}")
    xe = min(x, grid.s_max)
    val = float(grid.spline(key)(xe))
    return min(1.0, max(0.0, val))
