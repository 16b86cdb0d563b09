"""Exact maximal-height CDFs for watermelons with a wall.

The absorbing-wall CDF is a prefactor times the product of odd-degree
normalizing constants of the discrete Gaussian family on the integer
lattice; the reflecting wall uses even degrees on the half-integer lattice.
The weight is even, so P_{2k+p}(x) = x^p S_k(x^2) with S_k orthogonal on
y = x^2 > 0: one Stieltjes pass of N degrees on the mesh-1 half-lattice
(n = 1, weight parameter 1/M^2) gives every norm a wall reads.  The
prefactor is the inverse of the product's M -> inf limit, a Laguerre
family in y, so log P is a sum of logs of ratios h_0/h_0^c and B_j/B_j^c
that tend to 1; it is exponentiated last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dgop
from .choices import WALLS
from .errors import OrderFitError, WindowError
from .oracles import (gue_log_integral, lue_log_integral,
                      vandermonde_lattice_sum)
from .painleve import PainleveGrid, tracy_widom

X_CUT = 8.0  # lattice cutoff of the Riemann sums (weight exp(-64) there)
# The sums hold len^2 arrays: 2,001 nodes is 32 MB each, eps >= 0.008 for GUE.
MAX_LATTICE_NODES = 2001


def _parity(wall: str) -> int:
    """Degree parity p: 1 absorbing (degrees 2k + 1, alpha 0), 0 reflecting
    (degrees 2k, alpha 1/2); ValueError for any other wall."""
    if wall not in WALLS:
        raise ValueError(f"wall must be one of {WALLS}")
    return 1 if wall == "absorbing" else 0


@dataclass
class HeightDistribution:
    """Tabulated CDF samples for one wall type.

    ``k_values`` is the rescaled grid k = 2^{11/6} N^{1/6} (M - sqrt(2N));
    ``clamped`` flags entries whose log-probability crossed 0 by roundoff
    before clamping.
    """

    N: int
    wall: str
    M_values: np.ndarray
    cdf: np.ndarray
    k_values: np.ndarray
    clamped: np.ndarray


def _half_lattice(M: float, p: int, k_max: int):
    """Stieltjes pass (A, B, log_h) in y = x^2 for degrees 2k + p, and h_0.

    h_{2k+p} of the mesh-1 family at a = 1/M^2 is h_k of the measure
    2 x^{2p} w(x) on the nodes x > 0, so log_h[k] = log h_{2k+p} and
    B[k] = h_{2k+p}/h_{2k+p-2}; h_0 is the dot product of the amplitudes,
    exact to rounding where exp(log_h[0]) is not.  The nodes come from
    ``dgop.build_lattice`` at degree 2 k_max + p, so its degree cap and
    window bound apply.  An M whose square underflows to 0 raises
    ``ValueError``.
    """
    if not M * M > 0.0:  # NaN fails too
        raise ValueError(f"barrier M={M} is too small: M^2 underflows")
    x, amp = dgop.build_lattice(1, (1 - p) / 2, 1.0 / (M * M), 2 * k_max + p)
    x, amp = x[x > 0.0], amp[x > 0.0]
    amp = math.sqrt(2.0) * x**p * amp
    return (*dgop.stieltjes(x * x, amp, k_max), float(amp @ amp))


def _log_ratio(v: float, limit: float) -> float:
    """log(v / limit), from the exact difference where they are close."""
    if v < 0.5 * limit:
        return math.log(v / limit)
    return math.log1p((v - limit) / limit)


def log_height_cdf(N: int, M: float, wall: str) -> float:
    """log P(max height < M), assembled relative to the M -> inf limit.

    P is the product of h_{2k+p}, k < N, over its limit as M -> inf, where
    the lattice sums become integrals of the Laguerre weight
    y^{p-1/2} e^{-y/theta}, theta = 2 M^2/pi^2: h_0 -> Gamma(p+1/2)
    theta^{p+1/2} and B_j -> j (j + p - 1/2) theta^2.  So log P is
    N log(h_0/h_0^c) + sum_j (N - j) log(B_j/B_j^c), each ratio near 1 for
    large M, summed with ``math.fsum``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not M > 0.0:  # NaN fails too
        raise ValueError("M must be positive")
    p = _parity(wall)
    _, B, _, h0 = _half_lattice(M, p, N - 1)
    # 1/theta = pi^2 a / 2 as the lattice amplitudes round it, a = 1/M^2:
    # dividing by it (the halving is exact) leaves each limit with roundings
    # of its own, where a rounded theta would bias all N^2 terms alike
    inv_theta = 0.5 * (math.pi**2 * (1.0 / (M * M)))
    terms = [N * _log_ratio(h0, math.gamma(p + 0.5) / inv_theta**p
                            / math.sqrt(inv_theta))]
    terms += [(N - j) * _log_ratio(B[j], j * (j + p - 0.5) / inv_theta
                                   / inv_theta) for j in range(1, N)]
    return math.fsum(terms)


def _clamped_exp(log_p: float) -> float:
    """P from log P, clamped to [0, 1]: the last step of every height CDF."""
    return min(1.0, math.exp(min(log_p, 0.0)))


def height_cdf(N: int, M: float, wall: str) -> float:
    """P(max height < M), clamped to [0, 1]."""
    return _clamped_exp(log_height_cdf(N, M, wall))


def rescale_M(N: int, k: float) -> float:
    """Barrier height for the edge-scaling variable k."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return math.sqrt(2.0 * N) + k * 2.0 ** (-11.0 / 6.0) * N ** (-1.0 / 6.0)


def rescaled_cdf(N: int, k: float, wall: str) -> float:
    """CDF at the rescaled coordinate k (the Tracy-Widom GOE variable)."""
    M = rescale_M(N, k)
    if M <= 0.0:
        raise ValueError(f"k={k} drives the barrier nonpositive at N={N}")
    return height_cdf(N, M, wall)


def tabulate_rescaled(N: int, k_grid, wall: str) -> HeightDistribution:
    k_grid = np.asarray(k_grid, dtype=float)
    M = np.array([rescale_M(N, k) for k in k_grid])
    logs = [log_height_cdf(N, m, wall) for m in M]
    return HeightDistribution(N=N, wall=wall, M_values=M,
                              cdf=np.array([_clamped_exp(v) for v in logs]),
                              k_values=k_grid, clamped=np.array(logs) > 0.0)


DEFAULT_K_GRID = np.linspace(-6.0, 4.0, 101)


def convergence_study(N_list, k_grid, wall: str, grid: PainleveGrid):
    """Sup-distance of the rescaled CDF to Tracy-Widom GOE per N.

    Returns a list of (N, d_N) with
    d_N = max_k |rescaled_cdf(N, k) - F1(k)|.
    """
    _parity(wall)
    k_grid = np.asarray(k_grid, dtype=float)
    f1 = np.array([tracy_widom(k, "F1", grid) for k in k_grid])
    out = []
    for N in N_list:
        dist = tabulate_rescaled(N, k_grid, wall)
        out.append((N, float(np.max(np.abs(dist.cdf - f1)))))
    return out


def small_a_check(N: int, a_list):
    """Absorbing-wall ratio (1 - P) / (a^2 / N^2) for small a, M = sqrt(2N/a).

    When |1 - P| is below 1e-15 N^2, the rounding of log P (which grows
    like N^2 ulps), the entry is flagged as indistinguishable from the
    limit instead of reporting a roundoff-noise ratio.  (For a <= 0.05 the
    true 1 - P is of order M^2 exp(-2 M^2), far below double resolution,
    so every entry carries the flag; the quadratic bound is then
    satisfied trivially.)
    """
    records = []
    for a in a_list:
        if not a > 0.0:  # NaN fails too
            raise ValueError("a must be positive")
        M = math.sqrt(2.0 * N / a)
        log_p = log_height_cdf(N, M, "absorbing")
        one_minus = -math.expm1(min(log_p, 0.0))
        distinguishable = abs(one_minus) >= 1e-15 * N * N
        ratio = one_minus / (a * a / N**2) if distinguishable else math.nan
        records.append({"a": a, "one_minus_p": one_minus,
                        "ratio": ratio, "distinguishable": distinguishable})
    return records


def deformation_identity_check(N: int, a: float, delta_a: float, wall: str):
    """Second a-difference of log prod h against the norm-ratio identity.

    Uses the unrescaled mesh-1 norms with M = sqrt(2N/a); the right side is
    (pi^2/4N)^2 h_{2N+p}/h_{2N+p-2}, p the wall's degree parity (1 absorbing,
    0 reflecting), which is the half-lattice coefficient B_N.  Each
    evaluation uses its own default window; the centre pass, run to degree
    N, gives both its first N log h and B_N.  Returns (lhs, rhs, defect).
    """
    p = _parity(wall)
    if not 0.0 < delta_a < a:  # NaN fails too
        raise ValueError("delta_a must lie in (0, a)")
    passes = [_half_lattice(math.sqrt(2.0 * N / av), p, k_max)
              for av, k_max in ((a - delta_a, N - 1), (a, N), (a + delta_a, N - 1))]
    lp = [float(sum(log_h[:N])) for _, _, log_h, _ in passes]
    lhs = (lp[2] - 2.0 * lp[1] + lp[0]) / delta_a**2
    rhs = (math.pi**2 / (4.0 * N))**2 * passes[1][1][N]
    return lhs, rhs, abs(lhs - rhs)


def _lattice(eps: float, ensemble: str) -> np.ndarray:
    """Mesh-eps nodes cut at X_CUT: [0, X_CUT) for LUE, symmetric for GUE.

    Raises ``ValueError`` unless eps is finite and positive and
    ``WindowError`` before allocating more than ``MAX_LATTICE_NODES``.
    """
    if not 0.0 < eps < math.inf:  # NaN fails too
        raise ValueError("eps must be finite and positive")
    # nodes per half-line before rounding up (inf for a subnormal eps);
    # rounding up cannot carry a count across the integer bound
    span = X_CUT / eps
    if (span if ensemble == "LUE" else 2 * span + 1) > MAX_LATTICE_NODES:
        raise WindowError(f"eps={eps} needs more than {MAX_LATTICE_NODES} "
                          f"lattice nodes; raise eps")
    if ensemble == "LUE":
        return np.arange(0.0, X_CUT, eps)
    half = math.ceil(span)
    return np.arange(-half, half + 1, dtype=float) * eps


def _riemann_sum(N: int, eps: float, ensemble: str) -> float:
    """eps^N times the Vandermonde sum on the mesh-eps lattice cut at X_CUT."""
    x = _lattice(eps, ensemble)
    if ensemble == "LUE":
        y, g = x * x, x * x * np.exp(-x * x)
    else:
        y, g = x, np.exp(-x * x)
    return vandermonde_lattice_sum(y, g, N) * eps**N


def riemann_sum_order(N: int, eps_list, ensemble: str) -> float:
    """Least-squares slope of log-error versus log-eps for lattice sums.

    The LUE integrand is the half-line Vandermonde-squared * prod x^2 *
    Gaussian; GUE is the full-line Vandermonde-squared Gaussian.  Both are
    summed by ``oracles.vandermonde_lattice_sum``; exact values come from
    the Gamma-function product forms.  Raises
    :class:`OrderFitError` when every error sits below 1e-14 (these
    analytic integrands are summed to far beyond any polynomial order, so
    small eps hits roundoff rather than an eps^4 regime).
    """
    if N not in (1, 2, 3):
        raise ValueError("N must be 1, 2, or 3")
    if len(eps_list) < 3:
        raise ValueError("need at least 3 eps values")
    if ensemble == "LUE":
        exact = math.exp(lue_log_integral(N))
    elif ensemble == "GUE":
        exact = math.exp(gue_log_integral(N))
    else:
        raise ValueError("ensemble must be 'LUE' or 'GUE'")
    sums = [_riemann_sum(N, e, ensemble) for e in eps_list]
    errs = np.abs(np.array(sums) - exact)
    if np.max(errs) < 1e-14:
        raise OrderFitError(
            f"errors {errs} all below 1e-14; cannot fit order, enlarge eps")
    if np.min(errs) == 0.0:
        raise OrderFitError("exact cancellation; cannot fit order")
    slope = float(np.polyfit(np.log(np.asarray(eps_list, dtype=float)),
                             np.log(errs), 1)[0])
    return slope
