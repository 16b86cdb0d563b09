"""Independent numerical oracles.

These routines are deliberately decoupled from the main solvers: they use
different discretizations (Fredholm determinants, the Airy-kernel
resolvent, explicit Gram-Schmidt, brute-force lattice sums, tensor
quadrature) so that agreement with the production path is meaningful
evidence of correctness.  The one piece they share with the Painleve
solver is its Airy function ``painleve.airy_ai`` (checked against mpmath on
its own), so the Airy-kernel oracles cover arguments x >= -30 like it.
The brute-force height CDF and the tensor quadrature share one N <= 3 sum,
:func:`vandermonde_lattice_sum`, which never touches the Stieltjes engine;
the F1 and F2 Fredholm determinants and the resolvent q share one
Gauss-Legendre Nystrom rule on [s, s + SPAN].
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.hermite import hermgauss

from .errors import PrecisionError
from .painleve import airy_ai


SPAN = 24.0  # truncation of (s, infinity): Ai and K_Ai decay superexponentially


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


def _gauss_nodes(lo: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m Gauss-Legendre nodes and weights on [lo, lo + SPAN]."""
    t, w = leggauss(m)
    a, b = lo, lo + SPAN
    return 0.5 * (b - a) * t + 0.5 * (b + a), 0.5 * (b - a) * w


def _nystrom_det(kernel, lo: float, m: int) -> float:
    """det(I - K) on L^2(lo, lo + SPAN) by Nystrom discretization.

    ``kernel(xs)`` returns the matrix K(x_i, x_j) on the m Gauss-Legendre
    nodes; the square-root weights symmetrize it before ``slogdet``.
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
    return _nystrom_det(lambda xs: _airy_kernel(xs, xs), x, m)


def fredholm_f1(s: float) -> float:
    """GOE edge CDF F1(s) = det(I - B_s) on L^2(0, infinity).

    B_s(x, y) = Ai(x + y + s) is the Ferrari-Spohn kernel; truncated to
    [0, SPAN] and discretized on 120 nodes like :func:`fredholm_f2`, so it
    is independent of the Painleve II solver.
    """
    return _nystrom_det(lambda xs: airy_ai(np.add.outer(xs, xs) + s)[0], 0.0, 120)


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


def gram_schmidt_log_norms(nodes: np.ndarray, weights: np.ndarray,
                           k_max: int) -> np.ndarray:
    """Explicit monic orthogonalization on a discrete measure.

    Brute-force reference for the Stieltjes recurrence: expensive
    (O(k_max^2 * nodes)) and run only at small degree in tests.
    """
    basis = [np.ones_like(nodes)]
    log_h = np.empty(k_max + 1)
    for k in range(k_max + 1):
        if k > 0:
            p = nodes**k
            for _ in range(2):  # reorthogonalize: classical GS drifts
                for prev in basis:
                    p = p - (np.sum(p * prev * weights) /
                             np.sum(prev * prev * weights)) * prev
            basis.append(p)
        log_h[k] = math.log(np.sum(basis[k] ** 2 * weights))
    return log_h


def gram_schmidt_log_norms_exact(nodes, weights, k_max: int,
                                 dps: int = 50) -> np.ndarray:
    """Gram-Schmidt in software floats.

    The monomial basis is too ill-conditioned for double precision past
    degree ~30; at 50 digits the orthogonalization itself is exact for all
    practical purposes, so the comparison isolates the recurrence engine's
    own roundoff.  Input doubles convert exactly.
    """
    from mpmath import mp, mpf

    with mp.workdps(dps):
        x = [mpf(float(v)) for v in nodes]
        w = [mpf(float(v)) for v in weights]
        basis = [[mpf(1)] * len(x)]
        norms = [mp.fsum(wi for wi in w)]
        log_h = [mp.log(norms[0])]
        for k in range(1, k_max + 1):
            p = [xi**k for xi in x]
            for prev, nrm in zip(basis, norms):
                c = mp.fsum(pi * bi * wi for pi, bi, wi in zip(p, prev, w)) / nrm
                p = [pi - c * bi for pi, bi in zip(p, prev)]
            nrm = mp.fsum(pi * pi * wi for pi, wi in zip(p, w))
            basis.append(p)
            norms.append(nrm)
            log_h.append(mp.log(nrm))
        return np.array([float(v) for v in log_h])


def stieltjes_exact(nodes, n: int, a: float, k_max: int,
                    prec_bits: int = 120):
    """Stieltjes recurrence in 120-bit software floats; returns (A, B, log_h).

    Reference for ``dgop.stieltjes`` at large k_max, where no weight
    exp(-n pi^2 a x^2 / 2)/n, evaluated here from (n, a), can underflow.
    Slow: about 9 s at n = k_max = 448.
    """
    from mpmath import mp, mpf

    with mp.workprec(prec_bits):
        x = [mpf(float(v)) for v in nodes]
        coef = mpf(n) * mp.pi**2 * mpf(repr(a)) / 2
        w = [mp.exp(-coef * xi * xi) / n for xi in x]
        m = len(x)
        A = [mp.zero] * (k_max + 1)
        B = [mp.zero] * (k_max + 1)
        log_h = [mp.zero] * (k_max + 1)
        raw = [mp.sqrt(wi) for wi in w]
        h0 = mp.fsum(r * r for r in raw)
        log_h[0] = mp.log(h0)
        root = mp.sqrt(h0)
        cur = [r / root for r in raw]
        prev = [mp.zero] * m
        A[0] = mp.fsum(xi * c * c for xi, c in zip(x, cur))
        sqrt_b_prev = mp.zero
        for k in range(1, k_max + 1):
            u = [(xi - A[k - 1]) * c - sqrt_b_prev * p
                 for xi, c, p in zip(x, cur, prev)]
            bk = mp.fsum(ui * ui for ui in u)
            if bk <= 0:
                raise PrecisionError(f"B_{k} nonpositive even at {prec_bits} bits")
            B[k] = bk
            log_h[k] = log_h[k - 1] + mp.log(bk)
            prev = cur
            sqrt_b_prev = mp.sqrt(bk)
            cur = [ui / sqrt_b_prev for ui in u]
            A[k] = mp.fsum(xi * c * c for xi, c in zip(x, cur))
        return (np.array([float(v) for v in A]),
                np.array([float(v) for v in B]),
                np.array([float(v) for v in log_h]))


def _lattice(alpha: float, half_width: float) -> np.ndarray:
    k = np.arange(math.floor(-half_width + alpha),
                  math.ceil(half_width + alpha) + 1, dtype=float)
    return k - alpha


def brute_force_height_cdf(N: int, M: float, wall: str) -> float:
    """Maximal-height CDF by direct summation of the Vandermonde formulas.

    Sums over Z^N (absorbing) or (Z - 1/2)^N (reflecting) with
    :func:`vandermonde_lattice_sum`, so N <= 3.
    """
    half = 10.0 * M + 2.0
    lam = math.pi**2 / (2.0 * M * M)
    if wall == "absorbing":
        x = _lattice(0.0, half)
        log_pref = (-N / 2) * math.log(2.0) + (2 * N * N + N / 2) * math.log(math.pi) \
            - N * (2 * N + 1) * math.log(M) - math.lgamma(N + 1) \
            - sum(math.lgamma(2 * k + 2) for k in range(N))
    elif wall == "reflecting":
        x = _lattice(0.5, half)
        log_pref = (-N / 2) * math.log(2.0) + (2 * N * N - 3 * N / 2) * math.log(math.pi) \
            - N * (2 * N - 1) * math.log(M) - math.lgamma(N + 1) \
            - sum(math.lgamma(2 * k + 1) for k in range(N))
    else:
        raise ValueError(f"unknown wall {wall!r}")
    w = np.exp(-lam * x * x)
    g = x * x * w if wall == "absorbing" else w
    return math.exp(log_pref) * vandermonde_lattice_sum(x * x, g, N)


def gue_log_partition_quadrature(n: int, order: int = 80) -> float:
    """log of the n-fold GUE integral by tensor Gauss-Hermite quadrature.

    Independent check of the closed-form Selberg value; n <= 3 keeps the
    tensor grid small.
    """
    t, w = hermgauss(order)
    return math.log(vandermonde_lattice_sum(t, w, n))


def vandermonde_lattice_sum(y: np.ndarray, g: np.ndarray, N: int) -> float:
    """sum over (i_1..i_N) of prod_{j<k} (y_{i_j} - y_{i_k})^2 prod_j g_{i_j}.

    The one N <= 3 Vandermonde sum: the brute-force height CDF, the Riemann
    sums of ``heights.riemann_sum_order`` and the GUE quadrature all call
    it.  With D_ij = (y_i - y_j)^2 and E = D diag(g), N = 2 is g^T E 1 and
    N = 3 is g^T ((E D) o E) 1, so memory stays O(len(y)^2).
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


def gue_log_integral(n: int) -> float:
    """Closed form log Z for the GUE integral with weight exp(-x^2).

    n! times the product of monic Hermite norms sqrt(pi) k! 2^{-k};
    ``dgop.gue_free_energy`` is -log Z / n^2.
    """
    return math.lgamma(n + 1) + sum(
        0.5 * math.log(math.pi) + math.lgamma(k + 1) - k * math.log(2.0)
        for k in range(n))


def stirling_series(n: int) -> float:
    """Truncated Stirling correction (e/n)^n n! / sqrt(2 pi n)."""
    return math.exp(math.lgamma(n + 1) + n - n * math.log(n)
                    - 0.5 * math.log(2 * math.pi * n))
