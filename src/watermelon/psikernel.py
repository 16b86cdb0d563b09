"""Real Painleve II psi-functions and the critical saturation kernel.

The zeta-system

    d/dz (F1, F2) = [[4 z q, 4 z^2 + s + 2 q^2 + 2 r],
                     [-(4 z^2 + s + 2 q^2) + 2 r, -4 z q]] (F1, F2)

with q = q(s), r = q'(s) held fixed, has a one-dimensional space of
solutions with the parity (F1 even, F2 odd); that space contains the
psi-function pair normalized to unit amplitude cos/-sin at infinity.  We
therefore propagate outward from (1, 0) at zeta = 0, which pins the parity
exactly and follows the dominant direction through any trapped zone (the
inward sweep from leading-order asymptotic data picks up an O(1/zeta_max)
parity-violating admixture that is amplified for s < 0), then rescale so
the amplitude's asymptotic mean, fitted over the outer half of the sweep,
is 1.  Pinning the amplitude at zeta_max instead would keep its
O(q/(2 zeta_max)) oscillation as a bias in the bulk.  The one
zeta-integrator, ``_propagate``, takes closed-form sixth-order Magnus steps
(Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999) 983-1019): outward
here, inward in the compatibility check.

Along s at fixed zeta the pair obeys the s-equation of the Lax pair
(``_s_rhs``; Flaschka & Newell, Commun. Math. Phys. 76 (1980) 65-116),
which DOP853 integrates for the kernel's integral form and the check's edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, CoverageError
from .painleve import NotAKnotSpline, PainleveGrid

DEFAULT_ZETA_MAX = 10.0
# A pair takes 2,000 zeta_max Magnus steps, so zeta_max bounds its time and
# memory (0.3 s and 43 MB at 64); no test, example or benchmark passes 20.
MAX_ZETA_MAX = 64.0
_SUBSTEPS = 4  # Magnus steps per 0.002 output interval


@dataclass(frozen=True)
class PsiSolution:
    """Psi-function pair on a symmetric zeta-grid at one fixed s, frozen;
    its arrays are read-only."""

    s: float
    zeta_values: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    zeta_max: float
    q_s: float
    qp_s: float
    _splines: dict = field(default_factory=dict, repr=False, compare=False)

    def _spline(self, name):
        if name not in self._splines:
            self._splines[name] = NotAKnotSpline(self.zeta_values,
                                                 getattr(self, name))
        return self._splines[name]

    def phi_at(self, zeta: float) -> tuple[float, float]:
        if not abs(zeta) <= self.zeta_max:  # NaN fails too
            raise CoverageError(f"zeta={zeta} outside [{-self.zeta_max}, {self.zeta_max}]")
        return self._spline("phi1")(zeta), self._spline("phi2")(zeta)

    def phi_prime_at(self, zeta: float) -> tuple[float, float]:
        """Derivatives straight from the ODE right-hand side."""
        return _zeta_rhs(self.s, self.q_s, self.qp_s)(zeta, self.phi_at(zeta))


def _theta(zeta, s):
    return 4.0 * zeta**3 / 3.0 + s * zeta


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first DOP853 solve (no
    zeta-sweep makes one), so a process without one never loads it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def _solve(rhs, t_span, y0, **options):
    """DOP853 solve; on failure ``solve_ivp`` returns the partial trajectory,
    whose last point belongs to the wrong endpoint, so raise instead."""
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", **options)
    if not sol.success:
        raise ConvergenceError(f"integration over {t_span} failed: {sol.message}")
    return sol


def _zeta_matrix(z, s, q, r):
    """Entries (a, b, c) of the zeta-matrix [[a, b], [c, -a]] at z (array)."""
    beta = 4.0 * z * z + s + 2.0 * q * q
    return 4.0 * z * q, beta + 2.0 * r, -(beta - 2.0 * r)


def _zeta_rhs(s: float, q: float, r: float):
    def rhs(z, y):
        a, b, c = _zeta_matrix(z, s, q, r)
        return a * y[0] + b * y[1], c * y[0] - a * y[1]
    return rhs


def _bracket(x, y):
    """Commutator of traceless 2x2 matrices held as (a, b, c) rows."""
    return np.array([x[1] * y[2] - y[1] * x[2], 2.0 * (x[0] * y[1] - x[1] * y[0]),
                     2.0 * (x[2] * y[0] - x[0] * y[2])])


def _magnus_steps(s, q, r, left, h):
    """Rows (e11, e12, e21, e22) of exp(Omega) on [t, t + h] for each t in
    ``left``, Omega the sixth-order Magnus expansion at the three Gauss
    points (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151-238, s. 5)."""
    m1, m2, m3 = (np.array(_zeta_matrix(left + c * h, s, q, r)) for c in
                  (0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)))
    a1 = h * m2
    a2 = (math.sqrt(15.0) * h / 3.0) * (m3 - m1)
    a3 = (10.0 * h / 3.0) * (m3 - 2.0 * m2 + m1)
    c1 = _bracket(a1, a2)
    c2 = -_bracket(a1, 2.0 * a3 + c1) / 60.0
    om = a1 + a3 / 12.0 + _bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    # Omega^2 = -w^2 I, so exp(Omega) = cos(w) I + (sin(w)/w) Omega
    w = np.sqrt(-(om[0] ** 2 + om[1] * om[2]) + 0j)
    cosine, sine = np.cos(w).real, np.sinc(w / np.pi).real
    return np.array([cosine + sine * om[0], sine * om[1], sine * om[2],
                     cosine - sine * om[0]])


def _propagate(s, q, r, z0, z1, n, y0):
    """States (F1, F2) at the n + 1 equispaced points from z0 to z1 (either
    way), by n Magnus steps from y0.  The step comes from the span: read off
    a mesh point rounded at z0, its error would build up over the sweep."""
    with np.errstate(all="ignore"):
        steps = _magnus_steps(s, q, r, np.linspace(z0, z1, n + 1)[:-1],
                              (z1 - z0) / n)
    f1, f2 = y0
    path = [(f1, f2)]
    for e11, e12, e21, e22 in steps.T.tolist():
        f1, f2 = e11 * f1 + e12 * f2, e21 * f1 + e22 * f2
        path.append((f1, f2))
    # a non-finite step coefficient or state makes every later state so
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise ConvergenceError(f"zeta-solve at s={s} is not finite")
    return path


def _s_rhs(q, zeta, f1, f2):
    """d/ds (F1, F2) at fixed zeta: the s-equation of the Lax pair."""
    return q * f1 + zeta * f2, -zeta * f1 - q * f2


def integrate_psi(s: float, painleve: PainleveGrid,
                  zeta_max: float = DEFAULT_ZETA_MAX) -> PsiSolution:
    """Build the psi-function pair at parameter s, with q(s) and q'(s) read
    from the Painleve grid.

    ``_SUBSTEPS`` Magnus steps per output interval carry (1, 0) out from
    zeta = 0.  The amplitude is normalized at infinity: the oscillation
    A^2(z) = c0 + (c1 sin 2theta + c2 cos 2theta)/z is fitted over the outer
    half of the sweep and the asymptotic mean c0 scaled to 1.
    """
    if not 8.0 <= zeta_max <= MAX_ZETA_MAX:  # NaN fails too
        raise ValueError(f"zeta_max must lie in [8, {MAX_ZETA_MAX:g}]")
    q = painleve.q_at(s)
    r = painleve.q_prime_at(s)

    # outer-half sampling must resolve the 2 theta oscillation for the
    # amplitude fit: keep the output spacing at 0.002
    half = np.linspace(0.0, zeta_max, int(500 * zeta_max) + 1)
    path = _propagate(s, q, r, 0.0, zeta_max, _SUBSTEPS * (len(half) - 1),
                      (1.0, 0.0))
    kept = np.array(path[::_SUBSTEPS])
    amp = math.sqrt(_asymptotic_mean_square(half, *kept.T, s))
    p1, p2 = kept.T / amp

    zeta = np.concatenate([-half[:0:-1], half])
    phi1 = np.concatenate([p1[:0:-1], p1])
    phi2 = np.concatenate([-p2[:0:-1], p2])
    for arr in (zeta, phi1, phi2):
        arr.setflags(write=False)
    return PsiSolution(s=s, zeta_values=zeta, phi1=phi1, phi2=phi2,
                       zeta_max=zeta_max, q_s=q, qp_s=r)


def _asymptotic_mean_square(zeta, y1, y2, s):
    """Asymptotic mean of the squared amplitude.

    A^2(z) oscillates around its limit like (q/2z) sin(2 theta + phase);
    regressing on [1, sin(2 theta)/z, cos(2 theta)/z] over the outer half
    of the sweep recovers the limit to O(1/z^2).
    """
    sel = zeta >= 0.5 * zeta[-1]
    z = zeta[sel]
    p = y1[sel] ** 2 + y2[sel] ** 2
    two_theta = 2.0 * _theta(z, s)
    design = np.column_stack([np.ones_like(z),
                              np.sin(two_theta) / z,
                              np.cos(two_theta) / z])
    coef, *_ = np.linalg.lstsq(design, p, rcond=None)
    return float(coef[0])


def critical_kernel(u: float, v: float, psis: PsiSolution) -> float:
    """K(u, v) = (F1(u) F2(v) - F2(u) F1(v)) / (pi (u - v)).

    Within 1e-6 of the diagonal the L'Hospital form with ODE derivatives
    takes over.
    """
    if abs(u - v) < 1e-6:
        w = 0.5 * (u + v)
        p1, p2 = psis.phi_at(w)
        d1, d2 = psis.phi_prime_at(w)
        return (d1 * p2 - d2 * p1) / math.pi
    u1, u2 = psis.phi_at(u)
    v1, v2 = psis.phi_at(v)
    return (u1 * v2 - u2 * v1) / (math.pi * (u - v))


def kernel_integral_form(u: float, v: float, s: float,
                         painleve: PainleveGrid,
                         zeta_max: float = 8.0) -> float:
    """Second kernel expression: (1/pi) int_{-inf}^s (F1F1 + F2F2) d xi.

    One zeta-solve at s gives psi(u) and psi(v); one flow of the
    s-equation from s downward carries them and the running integral to
    the lower cutoff min(max(painleve.s_min, -8), s).  The integrand decays
    like exp(-(2 sqrt2 / 3)|xi|^{3/2}), so the cutoff truncates below 1e-8.
    The flow starts at s because the amplitude normalization is fitted
    there; at xi = -8 the fit is poor.
    """
    psis = integrate_psi(s, painleve, zeta_max=zeta_max)

    def rhs(xi, y):
        # y[4] = int_xi^s (F1(u) F1(v) + F2(u) F2(v)), zero at xi = s
        q = painleve.q_at(xi)
        return (*_s_rhs(q, u, y[0], y[1]), *_s_rhs(q, v, y[2], y[3]),
                -(y[0] * y[2] + y[1] * y[3]))

    lower = min(max(painleve.s_min, -8.0), s)
    sol = _solve(rhs, (s, lower), [*psis.phi_at(u), *psis.phi_at(v), 0.0],
                 rtol=1e-10, atol=1e-12)
    return sol.y[4, -1] / math.pi


def compatibility_defect(s_center: float, delta: float,
                         painleve: PainleveGrid) -> float:
    """Cross-derivative check of the two Lax equations.

    Builds a family whose edge data at zeta_max = DEFAULT_ZETA_MAX is
    evolved along the s-equation (so the family is exactly compatible when
    q solves Painleve II), sweeps each member inward on the Magnus mesh of
    ``integrate_psi``, finite-differences d/ds Phi across s_center +- delta,
    and returns the max defect against the s-equation right side
    (q F1 + z F2, -z F1 - q F2) at the mesh points zeta = 1.7, 0.9, 0.3.
    The defect is pure O(delta^2) differencing bias.
    """
    if not delta > 0.0:  # NaN fails too
        raise ValueError("delta must be > 0")
    zeta_max = DEFAULT_ZETA_MAX
    n = _SUBSTEPS * int(500 * zeta_max)
    spots = (1.7, 0.9, 0.3)
    qc = painleve.q_at(s_center)
    theta = _theta(zeta_max, s_center)

    def sweep(s_val):
        data = (math.cos(theta), -math.sin(theta))
        if s_val != s_center:
            data = _solve(lambda s, y: _s_rhs(painleve.q_at(s), zeta_max, *y),
                          (s_center, s_val), data, rtol=1e-13,
                          atol=1e-13).y[:, -1].tolist()
        path = _propagate(s_val, painleve.q_at(s_val),
                          painleve.q_prime_at(s_val), zeta_max, 0.0, n, data)
        return [path[round((zeta_max - z) * n / zeta_max)] for z in spots]

    up = sweep(s_center + delta)
    dn = sweep(s_center - delta)
    mid = sweep(s_center)
    worst = 0.0
    for z, (u1, u2), (d1, d2), (m1, m2) in zip(spots, up, dn, mid):
        fd1 = (u1 - d1) / (2.0 * delta)
        fd2 = (u2 - d2) / (2.0 * delta)
        worst = max(worst, abs(fd1 - (qc * m1 + z * m2)),
                    abs(fd2 - (-z * m1 - qc * m2)))
    return float(worst)
