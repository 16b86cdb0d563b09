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
from .painleve import PainleveGrid, tracy_widom


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


def _barrier(N: int, k: float) -> float:
    M = rescale_M(N, k)
    if M <= 0.0:
        raise ValueError(f"k={k} drives the barrier nonpositive at N={N}")
    return M


def rescaled_cdf(N: int, k: float, wall: str) -> float:
    """CDF at the rescaled coordinate k (the Tracy-Widom GOE variable)."""
    return height_cdf(N, _barrier(N, k), wall)


def tabulate_rescaled(N: int, k_grid, wall: str) -> HeightDistribution:
    k_grid = np.asarray(k_grid, dtype=float)
    logs = [log_height_cdf(N, _barrier(N, k), wall) for k in k_grid]
    return HeightDistribution(N=N, wall=wall,
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
