"""Real Painleve II psi-functions and the critical saturation kernel.

The zeta-system

    d/dz (F1, F2) = [[4 z q, 4 z^2 + s + 2 q^2 + 2 r],
                     [-(4 z^2 + s + 2 q^2) + 2 r, -4 z q]] (F1, F2)

with q = q(s), r = q'(s) held fixed, has a one-dimensional space of
solutions with the parity (F1 even, F2 odd); that space contains the
psi-function pair normalized to unit amplitude cos/-sin at infinity.  We
therefore integrate outward from (1, 0) at zeta = 0, which pins the parity
exactly and follows the dominant direction through any trapped zone (the
inward sweep from leading-order asymptotic data picks up an O(1/zeta_max)
parity-violating admixture that is amplified for s < 0), then rescale so
the amplitude at zeta_max is 1.  The inward sweep is retained purely as a
validation path; its defect against the parity solution at 0 is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .errors import ConvergenceError, CoverageError
from .painleve import PainleveGrid

DEFAULT_ZETA_MAX = 10.0
DEFAULT_MESH = 4001


@dataclass
class PsiSolution:
    """Psi-function pair on a symmetric zeta-grid at one fixed s.

    ``match_defect`` is the distance at zeta = 0 between the inward
    validation sweep (leading-order data at +zeta_max) and the parity
    solution; it is None unless the validation sweep was requested.
    """

    s: float
    zeta_values: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    zeta_max: float
    q_s: float
    qp_s: float
    R_s: float
    match_defect: float | None = None
    _splines: dict = field(default_factory=dict, repr=False, compare=False)

    def _spline(self, name):
        if name not in self._splines:
            self._splines[name] = CubicSpline(self.zeta_values, getattr(self, name))
        return self._splines[name]

    def phi_at(self, zeta: float) -> tuple[float, float]:
        if abs(zeta) > self.zeta_max:
            raise CoverageError(f"zeta={zeta} outside [{-self.zeta_max}, {self.zeta_max}]")
        return float(self._spline("phi1")(zeta)), float(self._spline("phi2")(zeta))

    def phi_prime_at(self, zeta: float) -> tuple[float, float]:
        """Derivatives straight from the ODE right-hand side."""
        return _zeta_rhs(self.s, self.q_s, self.qp_s)(zeta, self.phi_at(zeta))

    def edge_amplitude(self) -> float:
        return math.hypot(self.phi1[-1], self.phi2[-1])


def _theta(zeta, s):
    return 4.0 * zeta**3 / 3.0 + s * zeta


def _solve(rhs, t_span, y0, **options):
    """DOP853 solve; on failure ``solve_ivp`` returns the partial trajectory,
    whose last point belongs to the wrong endpoint, so raise instead."""
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", **options)
    if not sol.success:
        raise ConvergenceError(f"integration over {t_span} failed: {sol.message}")
    return sol


def _zeta_rhs(s: float, q: float, r: float):
    def rhs(z, y):
        beta = 4.0 * z * z + s + 2.0 * q * q
        return (4.0 * z * q * y[0] + (beta + 2.0 * r) * y[1],
                -(beta - 2.0 * r) * y[0] - 4.0 * z * q * y[1])
    return rhs


def integrate_psi(s: float, zeta_max: float = DEFAULT_ZETA_MAX,
                  mesh: int = DEFAULT_MESH,
                  painleve: PainleveGrid | None = None,
                  coeffs: tuple[float, float] | None = None,
                  validate: bool = False,
                  match_tol: float | None = None,
                  rtol: float = 1e-12,
                  normalization: str = "edge") -> PsiSolution:
    """Build the psi-function pair at parameter s.

    ``coeffs`` injects (q, q') directly (test hook, e.g. the free-phase
    case q = r = 0); otherwise both come from the Painleve grid.  With
    ``validate`` the inward sweep from leading-order data at +zeta_max is
    run and its defect at 0 recorded; ``match_tol`` (when given) turns an
    excessive defect into an error.  Leading-order data makes that defect
    O(1/zeta_max) by construction, so meaningful tolerances are coarse.

    ``normalization``: "edge" pins the amplitude to exactly 1 at zeta_max
    (the leading-order convention; note the true pair's edge amplitude
    oscillates by O(q/(2 zeta_max)) around 1, so this leaves a bias of that
    size in the bulk).  "mean" instead fits the amplitude oscillation
    A^2(z) = c0 + (c1 sin 2theta + c2 cos 2theta)/z over the outer half and
    normalizes the asymptotic mean c0 to 1, removing the bias at first
    order (used by the integral-form cross-check).
    """
    if zeta_max < 8.0:
        raise ValueError("zeta_max must be >= 8")
    if mesh < 40 * zeta_max:
        raise ValueError("mesh too coarse for the requested zeta_max")
    if coeffs is not None:
        q, r = coeffs
        R_s = math.nan
    else:
        if painleve is None:
            raise ValueError("need a PainleveGrid unless coeffs are injected")
        q = painleve.q_at(s)
        r = painleve.q_prime_at(s)
        R_s = painleve.R_at(s)

    rhs = _zeta_rhs(s, q, r)
    half = np.linspace(0.0, zeta_max, mesh)
    sol = _solve(rhs, (0.0, zeta_max), [1.0, 0.0], rtol=rtol, atol=rtol,
                 t_eval=half)
    if normalization == "edge":
        amp = math.hypot(sol.y[0, -1], sol.y[1, -1])
    elif normalization == "mean":
        amp = math.sqrt(_asymptotic_mean_square(half, sol.y[0], sol.y[1], s))
    else:
        raise ValueError("normalization must be 'edge' or 'mean'")
    p1 = sol.y[0] / amp
    p2 = sol.y[1] / amp

    zeta = np.concatenate([-half[:0:-1], half])
    phi1 = np.concatenate([p1[:0:-1], p1])
    phi2 = np.concatenate([-p2[:0:-1], p2])
    out = PsiSolution(s=s, zeta_values=zeta, phi1=phi1, phi2=phi2,
                      zeta_max=zeta_max, q_s=q, qp_s=r, R_s=R_s)

    if validate:
        theta = _theta(zeta_max, s)
        sweep = _solve(rhs, (zeta_max, 0.0), [math.cos(theta), -math.sin(theta)],
                       rtol=rtol, atol=rtol)
        defect = math.hypot(sweep.y[0, -1] - p1[0], sweep.y[1, -1] - p2[0])
        out.match_defect = defect
        if match_tol is not None and defect > match_tol:
            raise ConvergenceError(
                f"matching defect {defect:.3e} exceeds {match_tol:.1e}",
                residual=defect)
    return out


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
                         xi_min: float | None = None,
                         n_xi: int = 49,
                         zeta_max: float = 8.0,
                         rtol: float = 1e-10) -> float:
    """Second kernel expression: (1/pi) int_{-inf}^s (F1F1 + F2F2) d xi.

    The psi pair is rebuilt on a coarse xi-grid (composite Simpson); the
    integrand decays like exp(-(2 sqrt2 / 3)|xi|^{3/2}) so the default
    lower cutoff max(painleve.s_min, -8) truncates below 1e-8.  Simpson's
    rule needs an odd ``n_xi`` >= 3; anything else raises ValueError.
    """
    if n_xi < 3 or n_xi % 2 == 0:
        raise ValueError(f"n_xi must be odd and >= 3, got {n_xi}")
    if xi_min is None:
        xi_min = max(painleve.s_min, -8.0)
    xis = np.linspace(xi_min, s, n_xi)
    vals = np.empty(n_xi)
    # outer-half sampling must resolve the 2 theta oscillation for the
    # mean normalization: keep the output spacing at 0.002
    mesh = int(500 * zeta_max) + 1
    for i, xi in enumerate(xis):
        psis = integrate_psi(xi, zeta_max=zeta_max, mesh=mesh,
                             painleve=painleve, rtol=rtol,
                             normalization="mean")
        u1, u2 = psis.phi_at(u)
        v1, v2 = psis.phi_at(v)
        vals[i] = u1 * v1 + u2 * v2
    h = xis[1] - xis[0]
    simpson = (h / 3.0) * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                           + 2.0 * vals[2:-1:2].sum())
    return simpson / math.pi


def compatibility_defect(s_center: float, delta: float,
                         painleve: PainleveGrid,
                         zeta_spots=(0.3, 0.9, 1.7),
                         zeta_max: float = DEFAULT_ZETA_MAX,
                         rtol: float = 1e-12) -> float:
    """Cross-derivative check of the two Lax equations.

    Builds a family whose edge data at zeta_max is evolved along the
    s-equation (so the family is exactly compatible when q solves Painleve
    II), finite-differences d/ds Phi across s_center +- delta, and returns
    the max defect against the s-equation right side (q F1 + z F2,
    -z F1 - q F2).  The defect is pure O(delta^2) differencing bias.
    """
    qc = painleve.q_at(s_center)

    def edge_data(s_target):
        theta = _theta(zeta_max, s_center)
        v0 = [math.cos(theta), -math.sin(theta)]
        if s_target == s_center:
            return v0

        def rhs(s, y):
            q = painleve.q_at(s)
            return (q * y[0] + zeta_max * y[1], -zeta_max * y[0] - q * y[1])

        sol = _solve(rhs, (s_center, s_target), v0, rtol=1e-13, atol=1e-13)
        return [sol.y[0, -1], sol.y[1, -1]]

    # the inward sweep needs distinct output points in decreasing order
    spots = sorted(set(zeta_spots), reverse=True)

    def sweep(s_val, data):
        rhs = _zeta_rhs(s_val, painleve.q_at(s_val), painleve.q_prime_at(s_val))
        return _solve(rhs, (zeta_max, 0.0), data, rtol=rtol, atol=rtol,
                      t_eval=spots).y

    up = sweep(s_center + delta, edge_data(s_center + delta))
    dn = sweep(s_center - delta, edge_data(s_center - delta))
    mid = sweep(s_center, edge_data(s_center))
    worst = 0.0
    for i, z in enumerate(spots):
        fd1 = (up[0, i] - dn[0, i]) / (2.0 * delta)
        fd2 = (up[1, i] - dn[1, i]) / (2.0 * delta)
        rhs1 = qc * mid[0, i] + z * mid[1, i]
        rhs2 = -z * mid[0, i] - qc * mid[1, i]
        worst = max(worst, abs(fd1 - rhs1), abs(fd2 - rhs2))
    return worst


def psi_table(psis: PsiSolution):
    """Optional CSV dump ``zeta,phi1,phi2`` with an ``# psi v1 ...`` header."""
    from .tableio import Table

    rows = [(float(z), float(p1), float(p2)) for z, p1, p2
            in zip(psis.zeta_values, psis.phi1, psis.phi2)]
    return Table(name="psi", params={"s": psis.s, "zeta_max": psis.zeta_max},
                 columns=("zeta", "phi1", "phi2"), rows=rows)
