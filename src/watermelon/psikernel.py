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
O(q/(2 zeta_max)) oscillation as a bias in the bulk.

Along s at fixed zeta the pair obeys the s-equation of the Lax pair
(Flaschka & Newell, Commun. Math. Phys. 76 (1980) 65-116),

    d/ds (F1, F2) = [[q(s), zeta], [-zeta, -q(s)]] (F1, F2).

Both equations are traceless 2x2 linear systems, and one integrator,
``_propagate``, takes closed-form sixth-order Magnus steps on either
(Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999) 983-1019): along
zeta outward here and inward in the compatibility check, and along s for
the kernel's integral form and the check's edge data.  The module needs
numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, CoverageError
from .painleve import NotAKnotSpline, PainleveGrid

DEFAULT_ZETA_MAX = 10.0
_SUBSTEPS = 4  # Magnus steps per 0.002 output interval
_S_STEP = 0.002  # spacing of the s-flows' Magnus steps


@dataclass(frozen=True)
class PsiSolution:
    """Psi-function pair on a symmetric zeta-grid at one fixed s, frozen;
    its arrays are read-only."""

    s: float
    zeta_values: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    q_s: float
    qp_s: float
    _splines: dict = field(default_factory=dict, repr=False, compare=False)

    def _spline(self, name):
        if name not in self._splines:
            self._splines[name] = NotAKnotSpline(self.zeta_values,
                                                 getattr(self, name))
        return self._splines[name]

    def phi_at(self, zeta):
        """The pair at zeta: floats for a scalar, arrays for an array."""
        top = float(self.zeta_values[-1])
        if not np.all(np.abs(zeta) <= top):  # NaN fails too
            raise CoverageError(f"zeta={zeta} outside [{-top}, {top}]")
        return self._spline("phi1")(zeta), self._spline("phi2")(zeta)

    def _prime(self, zeta, p1, p2):
        """The ODE right-hand side at zeta, given the pair (p1, p2) there."""
        a, b, c = _zeta_matrix(zeta, self.s, self.q_s, self.qp_s)
        return a * p1 + b * p2, c * p1 - a * p2


def _theta(zeta, s):
    return 4.0 * zeta**3 / 3.0 + s * zeta


def _zeta_matrix(z, s, q, r):
    """Entries (a, b, c) of the zeta-matrix [[a, b], [c, -a]] at z (array)."""
    beta = 4.0 * z * z + s + 2.0 * q * q
    return 4.0 * z * q, beta + 2.0 * r, -(beta - 2.0 * r)


def _s_matrix(painleve, zeta):
    """Entries (q(x), zeta, -zeta) of the s-matrix at fixed zeta, as a
    function of x (array)."""
    def matrix(x):
        q = painleve.q_at(x)
        return q, np.full_like(q, zeta), np.full_like(q, -zeta)
    return matrix


def _bracket(x, y):
    """Commutator of traceless 2x2 matrices held as (a, b, c) rows."""
    return np.array([x[1] * y[2] - y[1] * x[2], 2.0 * (x[0] * y[1] - x[1] * y[0]),
                     2.0 * (x[2] * y[0] - x[0] * y[2])])


def _magnus_steps(matrix, left, h):
    """Rows (e11, e12, e21, e22) of exp(Omega) on [t, t + h] for each t in
    ``left``, for d/dt y = M(t) y with M = [[a, b], [c, -a]] and
    ``matrix(t) -> (a, b, c)``.  Omega is the sixth-order Magnus expansion
    at the three Gauss points (Blanes, Casas, Oteo & Ros, Phys. Rep. 470
    (2009) 151-238, s. 5)."""
    m1, m2, m3 = (np.array(matrix(left + c * h)) for c in
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


def _propagate(matrix, t0, t1, n, y0):
    """States (F1, F2) at the n + 1 equispaced points from t0 to t1 (either
    way), by n Magnus steps on ``matrix`` from y0.  The step comes from the
    span: read off a mesh point rounded at t0, its error would build up over
    the sweep."""
    with np.errstate(all="ignore"):
        steps = _magnus_steps(matrix, np.linspace(t0, t1, n + 1)[:-1],
                              (t1 - t0) / n)
    f1, f2 = y0
    path = [(f1, f2)]
    for e11, e12, e21, e22 in steps.T.tolist():
        f1, f2 = e11 * f1 + e12 * f2, e21 * f1 + e22 * f2
        path.append((f1, f2))
    # a non-finite step coefficient or state makes every later state so
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise ConvergenceError(f"Magnus solve from {t0} to {t1} is not finite")
    return path


def integrate_psi(s: float, painleve: PainleveGrid) -> PsiSolution:
    """Build the psi-function pair at parameter s on |zeta| <=
    ``DEFAULT_ZETA_MAX``, with q(s) and q'(s) read from the Painleve grid.

    ``_SUBSTEPS`` Magnus steps per output interval carry (1, 0) out from
    zeta = 0.  The amplitude is normalized at infinity: the oscillation
    A^2(z) = c0 + (c1 sin 2theta + c2 cos 2theta)/z is fitted over the outer
    half of the sweep and the asymptotic mean c0 scaled to 1.
    """
    return _psi_pair(s, painleve, DEFAULT_ZETA_MAX)


def _psi_pair(s, painleve, zeta_max):
    """The pair of :func:`integrate_psi` on |zeta| <= zeta_max."""
    q = painleve.q_at(s)
    r = painleve.q_prime_at(s)

    # outer-half sampling must resolve the 2 theta oscillation for the
    # amplitude fit: keep the output spacing at 0.002
    half = np.linspace(0.0, zeta_max, int(500 * zeta_max) + 1)
    path = _propagate(lambda z: _zeta_matrix(z, s, q, r), 0.0, zeta_max,
                      _SUBSTEPS * (len(half) - 1), (1.0, 0.0))
    kept = np.array(path[::_SUBSTEPS])
    amp = math.sqrt(_asymptotic_mean_square(half, *kept.T, s))
    p1, p2 = kept.T / amp

    zeta = np.concatenate([-half[:0:-1], half])
    phi1 = np.concatenate([p1[:0:-1], p1])
    phi2 = np.concatenate([-p2[:0:-1], p2])
    for arr in (zeta, phi1, phi2):
        arr.setflags(write=False)
    return PsiSolution(s=s, zeta_values=zeta, phi1=phi1, phi2=phi2,
                       q_s=q, qp_s=r)


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
        return float(critical_kernel_matrix([0.5 * (u + v)], psis)[0, 0])
    return float(critical_kernel_matrix([u, v], psis)[0, 1])


def critical_kernel_matrix(points, psis: PsiSolution) -> np.ndarray:
    """K(u_i, u_j) on points at least 1e-6 apart, the diagonal in the
    L'Hospital form of :func:`critical_kernel`; one array read of the pair
    serves every entry, derivatives included.  Closer points raise
    ``ValueError``."""
    u = np.asarray(points, dtype=float)
    diff = np.subtract.outer(u, u)
    np.fill_diagonal(diff, 1.0)
    if np.any(np.abs(diff) < 1e-6):
        raise ValueError("kernel points must lie at least 1e-6 apart")
    p1, p2 = psis.phi_at(u)
    d1, d2 = psis._prime(u, p1, p2)
    K = (np.multiply.outer(p1, p2) - np.multiply.outer(p2, p1)) / (math.pi * diff)
    np.fill_diagonal(K, (d1 * p2 - d2 * p1) / math.pi)
    return K


def kernel_integral_form(u: float, v: float, psis: PsiSolution,
                         painleve: PainleveGrid) -> float:
    """Second kernel expression: (1/pi) int_{-inf}^s (F1F1 + F2F2) d xi,
    at s = psis.s.

    The pair ``psis`` gives psi(u) and psi(v) at s; two Magnus flows of the
    s-equation, on steps about ``_S_STEP`` apart, carry them from s down to
    the lower cutoff min(-8, s), inside every grid (``build_grid`` starts at
    -12), and the spline quadrature of the package integrates the product
    along the mesh.  The
    integrand decays like exp(-(2 sqrt2 / 3)|xi|^{3/2}), so the cutoff
    truncates below 1e-8.  The flows start at s because the amplitude
    normalization is fitted there; at xi = -8 the fit is poor.  Given the
    same pair, this and :func:`critical_kernel` agree to about 3e-9.
    """
    s = psis.s
    lower = min(-8.0, s)
    if s - lower < _S_STEP:
        # empty, or under 1% of the truncation below the cutoff (the
        # integrand falls by e^4 per unit of xi there)
        return 0.0
    n = max(3, math.ceil((s - lower) / _S_STEP))  # a spline needs 4 knots
    fu, fv = (np.array(_propagate(_s_matrix(painleve, z), s, lower, n,
                                  psis.phi_at(z))[::-1]) for z in (u, v))
    xi = np.linspace(s, lower, n + 1)[::-1]
    integrand = fu[:, 0] * fv[:, 0] + fu[:, 1] * fv[:, 1]
    return float(NotAKnotSpline(xi, integrand).tail_integrals()[0] / math.pi)


def compatibility_defect(s_center: float, delta: float,
                         painleve: PainleveGrid) -> float:
    """Cross-derivative check of the two Lax equations.

    Builds a family whose edge data at zeta_max = DEFAULT_ZETA_MAX is
    evolved along the s-equation by Magnus steps about ``_S_STEP`` apart
    (so the family is exactly compatible when q solves Painleve II), sweeps
    each member inward on the Magnus mesh of ``integrate_psi``,
    finite-differences d/ds Phi across s_center +- delta, and returns the
    max defect against the s-equation right side (q F1 + z F2, -z F1 - q F2)
    at the mesh points zeta = 1.7, 0.9, 0.3.  The defect is pure O(delta^2)
    differencing bias.  s_center +- delta off the grid raises
    :class:`CoverageError` before any mesh is built.
    """
    if not delta > 0.0:  # NaN fails too
        raise ValueError("delta must be > 0")
    # q at all three s first: off the grid q_at raises before any mesh
    members = [(s_val, painleve.q_at(s_val), painleve.q_prime_at(s_val))
               for s_val in (s_center + delta, s_center - delta, s_center)]
    zeta_max = DEFAULT_ZETA_MAX
    n = _SUBSTEPS * int(500 * zeta_max)
    spots = (1.7, 0.9, 0.3)
    theta = _theta(zeta_max, s_center)

    def sweep(s_val, q, r):
        data = (math.cos(theta), -math.sin(theta))
        if s_val != s_center:
            data = _propagate(_s_matrix(painleve, zeta_max), s_center, s_val,
                              math.ceil(delta / _S_STEP), data)[-1]
        path = _propagate(lambda z: _zeta_matrix(z, s_val, q, r), zeta_max,
                          0.0, n, data)
        return [path[round((zeta_max - z) * n / zeta_max)] for z in spots]

    up, dn, mid = (sweep(*m) for m in members)
    qc = members[2][1]
    worst = 0.0
    for z, (u1, u2), (d1, d2), (m1, m2) in zip(spots, up, dn, mid):
        fd1 = (u1 - d1) / (2.0 * delta)
        fd2 = (u2 - d2) / (2.0 * delta)
        worst = max(worst, abs(fd1 - (qc * m1 + z * m2)),
                    abs(fd2 - (-z * m1 - qc * m2)))
    return float(worst)
