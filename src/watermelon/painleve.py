"""Hastings-McLeod solution of Painleve II and the Tracy-Widom CDFs.

The solver is a Newton iteration on a Numerov (fourth-order compact)
collocation of q'' = s q + 2 q^3 with Dirichlet data: Ai(s_max) on the right
and the standard negative-axis expansion sqrt(-s/2)(1 + 1/(8 s^3)) on the
left.  Tail integrals beyond s_max close with exact Airy identities, so a
modest s_max = 12 already meets 1e-10 tail accuracy:

    int_s^inf Ai^2        = Ai'(s)^2 - s Ai(s)^2
    int_s^inf Ai          ~ exp(-(2/3) s^{3/2}) / (2 sqrt(pi) s^{3/4})
    int_s^inf (t-s) Ai^2  = -(2/3) s Ai'(s)^2 + (2/3) s^2 Ai(s)^2
                            - (1/3) Ai(s) Ai'(s)

The distribution pieces follow the usual chain R = int q^2, E = exp(-1/2
int q), F = exp(-1/2 int R), F1 = F*E, F2 = F^2, all in every grid.

The module needs numpy only.  Ai and Ai' come from :func:`airy_ai`: the
Poincare series in 1/zeta from x = 10 up, and Taylor series of y'' = x y
about a 0.5-spaced table below, down to x = -30.  Every tridiagonal system
(the Newton steps and the spline slopes) is one LU sweep without pivoting,
:func:`_solve_tridiagonal`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ConvergenceError, CoverageError

_EPS = np.finfo(float).eps

S_MIN = -12.0
S_MAX = 12.0
DEFAULT_MESH = 4096
TOL = 1e-10
MAX_NEWTON_ITER = 60

_AIRY_SERIES_X = 10.0
_AIRY_STEP = 0.5
_AIRY_LOWEST = -30.0
_AIRY_TERMS = 32  # the 33rd Taylor term is < 4e-22 of Ai's amplitude over a 0.5 step
_POINCARE_TERMS = 25  # the 26th is 2.3e-18 of the sum at x = 10


def _poincare_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ai and Ai' for x >= 10 from the series in 1/zeta, zeta = (2/3) x^{3/2}
    (DLMF 9.7.5-6)."""
    u, v = [1.0], [1.0]
    for k in range(1, _POINCARE_TERMS):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                 / (216 * k * (2 * k - 1)))
        v.append(-(6 * k + 1) / (6 * k - 1) * u[-1])
    zeta = (2.0 / 3.0) * x**1.5
    r = -1.0 / zeta
    su, sv = u[-1], v[-1]
    for uk, vk in zip(u[-2::-1], v[-2::-1]):
        su, sv = su * r + uk, sv * r + vk
    pre = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    quarter = x**0.25
    return pre / quarter * su, -pre * quarter * sv


def _taylor_sum(coef, t):
    """sum_n coef[n] t^n and its derivative in t, by Horner's rule."""
    y, yp = coef[-1], 0.0
    for c in coef[-2::-1]:
        yp = yp * t + y
        y = y * t + c
    return y, yp


@cache
def _airy_table() -> np.ndarray:
    """Taylor coefficients of Ai about the nodes 10 - 0.5 j, one column per
    node: (n+2)(n+1) a_{n+2} = x0 a_n + a_{n-1} from y'' = x y.

    Stepped down from the Poincare values at x = 10: Ai dominates Bi in
    that direction, so the stepping errors do not grow.
    """
    y, yp = (float(v) for v in _poincare_sums(np.array(_AIRY_SERIES_X)))
    columns = []
    for j in range(round((_AIRY_SERIES_X - _AIRY_LOWEST) / _AIRY_STEP) + 1):
        x0 = _AIRY_SERIES_X - _AIRY_STEP * j
        a = [y, yp, 0.5 * x0 * y]
        for n in range(1, _AIRY_TERMS - 2):
            a.append((x0 * a[n] + a[n - 1]) / ((n + 2) * (n + 1)))
        columns.append(a)
        y, yp = _taylor_sum(a, -_AIRY_STEP)
    return np.array(columns).T


def airy_ai(x):
    """(Ai(x), Ai'(x)) elementwise for x >= -30; scalars for a scalar.

    Accurate to 3e-15 of the amplitude on [-30, 10] and to 6e-14 relative
    above, where the rounding of exp(-zeta) dominates.  x below -30 or NaN
    raises :class:`CoverageError`.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= _AIRY_LOWEST):  # NaN fails too
        raise CoverageError("airy argument below the supported range x >= -30")
    above = x >= _AIRY_SERIES_X
    # Ai and Ai' underflow to zero from x ~ 105 on; the clip keeps inf finite
    ai_hi, aip_hi = _poincare_sums(np.clip(x, _AIRY_SERIES_X, 200.0))
    j = np.rint((_AIRY_SERIES_X - np.minimum(x, _AIRY_SERIES_X)) / _AIRY_STEP)
    t = np.where(above, 0.0, x - (_AIRY_SERIES_X - _AIRY_STEP * j))
    ai, aip = _taylor_sum(_airy_table()[:, j.astype(np.intp)], t)
    return np.where(above, ai_hi, ai)[()], np.where(above, aip_hi, aip)[()]


def _solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Solve A x = rhs for tridiagonal A by LU without pivoting.

    sub[j] = A[j+1, j], diag[j] = A[j, j], sup[j] = A[j, j+1].  The sweep
    repeats LAPACK ``dgtsv`` step by step where that swaps no rows (each
    pivot at least the entry below it, as in the diagonally dominant Newton
    and spline systems here), so it agrees with
    ``scipy.linalg.solve_banded((1, 1), ...)`` bit for bit.  The pivot and
    the eliminated right-hand side ride in locals along zipped lists.
    """
    up = sup.tolist()
    piv, y = float(diag[0]), float(rhs[0])
    pivots, ys = [piv], [y]
    for lo, p, d, b in zip(sub.tolist(), up, diag[1:].tolist(), rhs[1:].tolist()):
        m = lo / piv
        piv = d - m * p
        y = b - m * y
        pivots.append(piv)
        ys.append(y)
    x = y / piv
    xs = [x]
    for p, piv, y in zip(up[::-1], pivots[-2::-1], ys[-2::-1]):
        x = (y - p * x) / piv
        xs.append(x)
    return np.array(xs[::-1])


class NotAKnotSpline:
    """Not-a-knot cubic spline through (x, y), x strictly increasing.

    Each step repeats the arithmetic of ``scipy.interpolate.CubicSpline``
    (its tridiagonal slope system, solved in LAPACK ``gtsv``'s order,
    ``find_interval`` and the power sums of ``evaluate_poly1``), so every
    spline value agrees with scipy bit for bit without loading scipy.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise ValueError("spline data must be finite")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        b = np.empty(x.size)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d0
        b[-1] = (dx[-1]**2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        m = _solve_tridiagonal(np.append(dx[1:], d1), diag,
                               np.insert(dx[:-1], 0, d0), b)
        t = (m[:-1] + m[1:] - 2 * slope) / dx
        self.x, self.dx = x, dx
        # power-basis coefficients of (x - x_i)^3, ^2, ^1, ^0 per interval
        self.c = (t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1])
        # float views of the same data for scalar reads
        self._knots, self._coefs = memoryview(x), tuple(map(memoryview, self.c))

    def __call__(self, xv):
        """The spline at xv: a float for a scalar, an array for an array.
        Points past either end read the end interval's cubic."""
        if type(xv) is float:
            # the array path's interval and sums, in Python floats
            knots, (c0, c1, c2, c3) = self._knots, self._coefs
            i = bisect_right(knots, xv, 1, len(knots) - 1) - 1
            c0, c1, c2, c3, t = c0[i], c1[i], c2[i], c3[i], xv - knots[i]
            return ((c3 + c2 * t) + c1 * (t * t)) + c0 * (t * t * t)
        # searching the interior knots clamps to the two end intervals
        i = np.searchsorted(self.x[1:-1], xv, side="right")
        t = xv - self.x[i]
        c0, c1, c2, c3 = (c[i] for c in self.c)
        y = ((c3 + c2 * t) + c1 * (t * t)) + c0 * (t * t * t)
        return y if isinstance(y, np.ndarray) else float(y)

    def tail_integrals(self) -> np.ndarray:
        """int_{x_j}^{x[-1]} of the spline at every knot x_j.

        The interval integrals are summed from x[-1] down, which keeps full
        relative accuracy where the tail is tiny next to the whole integral
        (differencing an antiderivative, as scipy does, cancels there).
        """
        c0, c1, c2, c3 = self.c
        t = self.dx
        pieces = t * (c3 + t * (c2 / 2 + t * (c1 / 3 + t * (c0 / 4))))
        return np.append(np.cumsum(pieces[::-1])[::-1], 0.0)


@dataclass(frozen=True)
class PainleveGrid:
    """Tabulated Hastings-McLeod data on a uniform s-grid.

    Built complete and frozen by :func:`build_grid`: q, q' and the
    distribution pieces R, E, F, f1 = F*E, f2 = F^2, all read-only.
    ``residual_norm`` is the max-norm defect of the Numerov collocation
    equations at q.
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

    def spline(self, name: str) -> NotAKnotSpline:
        if name not in self._splines:
            self._splines[name] = NotAKnotSpline(self.s_values, getattr(self, name))
        return self._splines[name]

    def q_at(self, s: float) -> float:
        self._check(s)
        return self.spline("q")(s)

    def q_prime_at(self, s: float) -> float:
        self._check(s)
        return self.spline("q_prime")(s)

    def R_at(self, s: float) -> float:
        self._check(s)
        return self.spline("R")(s)

    def _check(self, s) -> None:
        lo, hi = self.s_min, self.s_max
        if isinstance(s, float):
            inside = lo <= s <= hi  # NaN fails too
        else:
            s_arr = np.asarray(s)
            inside = np.all((s_arr >= lo) & (s_arr <= hi))
        if not inside:
            raise CoverageError(f"s={s} outside grid [{lo}, {hi}]")


def _solve(mesh: int):
    """Solve the Painleve II boundary value problem on [S_MIN, S_MAX] with
    ``mesh`` intervals: (s, q, q', residual).

    Initial guess is the patched asymptote (Ai on the right, sqrt(-s/2) on
    the left, smoothly blended over [-1, 1]).  Newton iterates until the
    collocation residual reaches max(TOL, roundoff floor); the roundoff
    floor for the divided second difference is about eps / h^2.
    """
    s = np.linspace(S_MIN, S_MAX, mesh + 1)
    h = s[1] - s[0]
    ai_grid = airy_ai(s)[0]
    neg = np.sqrt(np.maximum(-s, 0.0) / 2.0)
    t = np.clip((s + 1.0) / 2.0, 0.0, 1.0)
    blend = t * t * (3.0 - 2.0 * t)
    q = blend * ai_grid + (1.0 - blend) * neg
    q[0] = math.sqrt(-S_MIN / 2.0) * (1.0 + 1.0 / (8.0 * S_MIN**3))
    q[-1] = airy_ai(S_MAX)[0]

    floor = _EPS / h**2

    def defect(qv):
        rhs_full = s * qv + 2.0 * qv**3
        return (qv[:-2] - 2.0 * qv[1:-1] + qv[2:]) / h**2 \
            - (rhs_full[:-2] + 10.0 * rhs_full[1:-1] + rhs_full[2:]) / 12.0

    # Newton runs until the update itself is negligible: the max-norm
    # residual stalls at the roundoff floor eps/h^2 long before the
    # exponentially small right tail (q ~ 1e-8 at s = 8) has converged in
    # relative terms, so a residual test alone stops too early.
    for _ in range(MAX_NEWTON_ITER):
        res = defect(q)
        jac = s + 6.0 * q**2
        off = 1.0 / h**2 - jac / 12.0
        dq = _solve_tridiagonal(off[1:-2], -2.0 / h**2 - 10.0 * jac[1:-1] / 12.0,
                                off[2:-1], -res)
        step = float(np.max(np.abs(dq)))
        if not math.isfinite(step):  # NaN fails too
            raise ConvergenceError(f"Newton step is not finite (max |dq| = {step})")
        q[1:-1] += dq
        if step < 8.0 * _EPS:
            break
    residual = float(np.max(np.abs(defect(q))))
    if not residual <= max(TOL, 4.0 * floor):  # NaN fails too
        raise ConvergenceError(
            f"Newton stalled at residual {residual:.3e} (tol {TOL:.1e})")

    # q' by integrating the ODE from the right edge: smoother than a spline
    # derivative, fourth-order accurate, and summed downward so the tiny
    # right tail keeps its relative accuracy.
    q_prime = (airy_ai(S_MAX)[1]
               - NotAKnotSpline(s, s * q + 2.0 * q**3).tail_integrals())

    return s, q, q_prime, residual


def build_grid() -> PainleveGrid:
    """The grid every Tracy-Widom evaluation reads: the solve on
    DEFAULT_MESH intervals, then R, E, F, F1, F2 by spline quadrature plus
    Airy tail closures.

    At DEFAULT_MESH the solve accepts a residual of at most TOL, and at
    S_MAX = 12 each Airy closure is at most 2.0e-15 of its integral, so
    neither needs a check here.
    """
    s, q, q_prime, residual = _solve(DEFAULT_MESH)
    ai_m, aip_m = airy_ai(S_MAX)

    r_tail = aip_m**2 - S_MAX * ai_m**2
    iq_tail = math.exp(-(2.0 / 3.0) * S_MAX**1.5) / (2.0 * math.sqrt(math.pi) * S_MAX**0.75)
    ir_tail = (-(2.0 / 3.0) * S_MAX * aip_m**2
               + (2.0 / 3.0) * S_MAX**2 * ai_m**2
               - (1.0 / 3.0) * ai_m * aip_m)

    R = NotAKnotSpline(s, q * q).tail_integrals() + r_tail
    q_spline, R_spline = NotAKnotSpline(s, q), NotAKnotSpline(s, R)
    E = np.exp(-0.5 * (q_spline.tail_integrals() + iq_tail))
    F = np.exp(-0.5 * (R_spline.tail_integrals() + ir_tail))
    f1, f2 = F * E, F * F
    # the grid's splines view these arrays, so none may write them
    for arr in (s, q, q_prime, R, E, F, f1, f2):
        arr.setflags(write=False)
    # the quadrature's q and R splines are the ones q_at and R_at read
    return PainleveGrid(s_values=s, q=q, q_prime=q_prime, R=R, E=E, F=F,
                        f1=f1, f2=f2, residual_norm=residual,
                        _splines={"q": q_spline, "R": R_spline})


def tracy_widom(x: float, which: str, grid: PainleveGrid) -> float:
    """Tracy-Widom CDF value: F*E for F1, F^2 for F2, clamped to [0, 1].

    Values above s_max saturate to the s_max value (the tail integrals have
    already vanished there); values below s_min raise rather than
    extrapolate.
    """
    key = which.lower()
    if key not in ("f1", "f2"):
        raise ValueError("which must be 'F1' or 'F2'")
    if not x >= grid.s_min:  # NaN fails too
        raise CoverageError(f"x={x} below tabulated s_min={grid.s_min}")
    xe = min(x, grid.s_max)
    val = grid.spline(key)(xe)
    return min(1.0, max(0.0, val))
