"""Independent numerical oracles.

These routines are deliberately decoupled from the main solvers: they use
different discretizations (Fredholm determinants, the Airy-kernel
resolvent, brute-force lattice sums) so that agreement with the production
path is meaningful evidence of correctness.  The one piece they share with
the Painleve solver is its Airy function ``painleve.airy_ai`` (checked
against mpmath on its own), so the Airy-kernel oracles cover arguments
x >= -30 like it.  The brute-force height CDF and the Riemann sums of
:func:`riemann_sum_order` share one integer lattice and one N <= 3 sum,
:func:`vandermonde_lattice_sum`, which never touches the Stieltjes engine;
the F2 Fredholm determinant and the resolvent q share one Gauss-Legendre
Nystrom rule on [s, s + SPAN], and :func:`nystrom_det` is that rule's
determinant for any kernel.  References only the tests consult (explicit
Gram-Schmidt, a software-float Stieltjes pass, the F1 determinant) live
with the tests, so the package needs numpy only.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import PrecisionError, WindowError
from .painleve import airy_ai


SPAN = 24.0  # truncation of (s, infinity): Ai and K_Ai decay superexponentially
X_CUT = 8.0  # lattice cutoff of the Riemann sums (weight exp(-64) there)
# The sums hold len^2 arrays: 2,001 nodes is 32 MB each, eps >= 0.008 for GUE.
MAX_LATTICE_NODES = 2001


def _airy_kernel(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """K_Ai(x_i, y_j) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y).

    Where x_i = y_j it takes the diagonal limit Ai'(x)^2 - x Ai(x)^2.
    """
    ai_x, aip_x = airy_ai(xs)
    ai_y, aip_y = airy_ai(ys)
    diff = np.subtract.outer(xs, ys)
    same = diff == 0.0
    num = np.multiply.outer(ai_x, aip_y) - np.multiply.outer(aip_x, ai_y)
    return np.where(same, (aip_x**2 - xs * ai_x**2)[:, None],
                    num / np.where(same, 1.0, diff))


@cache
def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1], read-only, computed once
    per m; ``numpy.polynomial`` loads on the first call, not on import."""
    from numpy.polynomial.legendre import leggauss
    rule = leggauss(m)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _gauss_nodes(lo: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m Gauss-Legendre nodes and weights on [lo, lo + SPAN]."""
    t, w = _legendre_rule(m)
    a, b = lo, lo + SPAN
    return 0.5 * (b - a) * t + 0.5 * (b + a), 0.5 * (b - a) * w


def nystrom_det(kernel, lo: float, m: int) -> float:
    """det(I - K) on L^2(lo, lo + SPAN) by Nystrom discretization.

    ``kernel(xs)`` returns the matrix K(x_i, x_j) on the m Gauss-Legendre
    nodes x of [lo, lo + SPAN]; the square-root weights symmetrize it
    before ``slogdet``.  F2 is ``nystrom_det(K_Ai, x, m)``; any other
    trace-class kernel on a half-line truncated at SPAN reads the same way.
    """
    xs, ws = _gauss_nodes(lo, m)
    sw = np.sqrt(ws)
    M = np.eye(m) - sw[:, None] * kernel(xs) * sw[None, :]
    sign, logdet = np.linalg.slogdet(M)
    return float(sign * math.exp(logdet))


def fredholm_f2(x: float, m: int = 201) -> float:
    """GUE edge CDF F2(x) = det(I - K_Ai) on L^2(x, infinity).

    Truncated to [x, x + SPAN] and discretized on an m-point Gauss-Legendre
    grid with square-root weight symmetrization.
    """
    return nystrom_det(lambda xs: _airy_kernel(xs, xs), x, m)


def resolvent_q(s: float, m: int = 120) -> float:
    """Hastings-McLeod q(s) = ((I - K_Ai)^{-1} Ai)(s) on L^2(s, infinity).

    The Tracy-Widom resolvent formula: solve (I - K_Ai W) Q = Ai on the m
    Gauss-Legendre nodes x_j, weights w_j, of [s, s + SPAN], then return
    Ai(s) + sum_j K_Ai(s, x_j) w_j Q_j.  A linear solve, independent of the
    Painleve II equation the production grid integrates.  m = 120 and 200
    agree to 1.4e-12 relative at s = -4; further left needs more nodes.
    """
    xs, ws = _gauss_nodes(s, m)
    Q = np.linalg.solve(np.eye(m) - _airy_kernel(xs, xs) * ws, airy_ai(xs)[0])
    return float(airy_ai(s)[0] + _airy_kernel(np.array([s]), xs)[0] @ (ws * Q))


def _lattice(lo: float, hi: float) -> np.ndarray:
    """The integers floor(lo)..ceil(hi), as floats."""
    return np.arange(math.floor(lo), math.ceil(hi) + 1, dtype=float)


def brute_force_height_cdf(N: int, M: float, wall: str) -> float:
    """Maximal-height CDF by direct summation of the Vandermonde formulas.

    Sums over Z^N (absorbing) or (Z - 1/2)^N (reflecting) with
    :func:`vandermonde_lattice_sum`, so N <= 3.
    """
    half = 10.0 * M + 2.0
    lam = math.pi**2 / (2.0 * M * M)
    if wall == "absorbing":
        x = _lattice(-half, half)
        log_pref = (-N / 2) * math.log(2.0) + (2 * N * N + N / 2) * math.log(math.pi) \
            - N * (2 * N + 1) * math.log(M) - math.lgamma(N + 1) \
            - sum(math.lgamma(2 * k + 2) for k in range(N))
    elif wall == "reflecting":
        x = _lattice(-half + 0.5, half + 0.5) - 0.5
        log_pref = (-N / 2) * math.log(2.0) + (2 * N * N - 3 * N / 2) * math.log(math.pi) \
            - N * (2 * N - 1) * math.log(M) - math.lgamma(N + 1) \
            - sum(math.lgamma(2 * k + 1) for k in range(N))
    else:
        raise ValueError(f"unknown wall {wall!r}")
    w = np.exp(-lam * x * x)
    g = x * x * w if wall == "absorbing" else w
    return math.exp(log_pref) * vandermonde_lattice_sum(x * x, g, N)


def vandermonde_lattice_sum(y: np.ndarray, g: np.ndarray, N: int) -> float:
    """sum over (i_1..i_N) of prod_{j<k} (y_{i_j} - y_{i_k})^2 prod_j g_{i_j}.

    The one N <= 3 Vandermonde sum: the brute-force height CDF, the Riemann
    sums of :func:`riemann_sum_order` and the tests' GUE quadrature all
    call it.  With D_ij = (y_i - y_j)^2 and E = D diag(g), N = 2 is
    g^T E 1 and N = 3 is g^T ((E D) o E) 1, so memory stays O(len(y)^2).
    """
    if N not in (1, 2, 3):
        raise ValueError("Vandermonde lattice sum capped at 1 <= N <= 3")
    if N == 1:
        return float(np.sum(g))
    d = np.subtract.outer(y, y) ** 2
    e = d * g
    if N == 2:
        return float(g @ e.sum(axis=1))
    return float(g @ np.sum((e @ d) * e, axis=1))


def lue_log_integral(N: int) -> float:
    """Closed form of the half-line Vandermonde-squared Gaussian integral.

    int_{R_+^N} prod_{j<k}(x_k^2-x_j^2)^2 prod x_j^2 exp(-sum x_j^2) dx
      = 2^{-N} N! prod_{k=0}^{N-1} k! Gamma(k + 3/2),
    by x_j = sqrt(t_j) reduction to the generalized Laguerre (a = 1/2)
    Hankel determinant with monic norms h_k = k! Gamma(k + 3/2).
    """
    lg = math.lgamma(N + 1) - N * math.log(2.0)
    for k in range(N):
        lg += math.lgamma(k + 1) + math.lgamma(k + 1.5)
    return lg


# log of the monic Hermite norms sqrt(pi) k! 2^{-k}, k < len: grown by
# rebinding, so a reader never sees a partly extended table
_gue_terms: tuple[float, ...] = ()


def gue_log_integral(n: int) -> float:
    """Closed form log Z for the GUE integral with weight exp(-x^2).

    n! times the product of monic Hermite norms sqrt(pi) k! 2^{-k};
    :func:`gue_free_energy` is -log Z / n^2.  The log norms are computed
    once per process and summed by the built-in ``sum`` in degree order.
    """
    global _gue_terms
    terms = _gue_terms
    if len(terms) < n:
        half_log_pi, log_2 = 0.5 * math.log(math.pi), math.log(2.0)
        terms = _gue_terms = terms + tuple(
            half_log_pi + math.lgamma(k + 1) - k * log_2
            for k in range(len(terms), n))
    return math.lgamma(n + 1) + sum(terms[:n])


def gue_free_energy(n: int) -> float:
    """GUE free energy -log Z / n^2 from :func:`gue_log_integral`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return -gue_log_integral(n) / n**2


def _riemann_nodes(eps: float, ensemble: str) -> np.ndarray:
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
    return _lattice(-span, span) * eps


def _riemann_sum(N: int, eps: float, ensemble: str) -> float:
    """eps^N times the Vandermonde sum on the mesh-eps lattice cut at X_CUT."""
    x = _riemann_nodes(eps, ensemble)
    if ensemble == "LUE":
        y, g = x * x, x * x * np.exp(-x * x)
    else:
        y, g = x, np.exp(-x * x)
    return vandermonde_lattice_sum(y, g, N) * eps**N


def riemann_sum_order(N: int, eps_list, ensemble: str) -> float:
    """Least-squares slope of log-error versus log-eps for lattice sums.

    The LUE integrand is the half-line Vandermonde-squared * prod x^2 *
    Gaussian; GUE is the full-line Vandermonde-squared Gaussian.  Both are
    summed by :func:`vandermonde_lattice_sum`; exact values come from the
    Gamma-function product forms.  Raises :class:`PrecisionError` when
    every error sits below 1e-14 or one is exactly 0 (these analytic
    integrands are summed to far beyond any polynomial order, so small eps
    hits roundoff rather than an eps^4 regime).
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
        raise PrecisionError(
            f"errors {errs} all below 1e-14; cannot fit order, enlarge eps")
    if np.min(errs) == 0.0:
        raise PrecisionError("exact cancellation; cannot fit order")
    return float(np.polyfit(np.log(np.asarray(eps_list, dtype=float)),
                            np.log(errs), 1)[0])
