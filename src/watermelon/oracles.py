"""Independent numerical oracles.

Everything in this module is deliberately decoupled from the main solvers:
these routines use different discretizations (Fredholm determinants, shooting,
explicit Gram-Schmidt, brute-force lattice sums, tensor quadrature) so that
agreement with the production path is meaningful evidence of correctness.
The brute-force height CDF and the tensor quadrature share one N <= 3 sum,
:func:`vandermonde_lattice_sum`, which never touches the Stieltjes engine;
the F1 and F2 Fredholm determinants share one Nystrom step.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import solve_ivp
from scipy.special import airy, gammaln

from .errors import ConvergenceError, PrecisionError


def _nystrom_det(kernel, lo: float, m: int, span: float) -> float:
    """det(I - K) on L^2(lo, lo + span) by Nystrom discretization.

    ``kernel(xs)`` returns the matrix K(x_i, x_j) on the m Gauss-Legendre
    nodes; the square-root weights symmetrize it before ``slogdet``.
    """
    t, w = leggauss(m)
    a, b = lo, lo + span
    xs = 0.5 * (b - a) * t + 0.5 * (b + a)
    ws = 0.5 * (b - a) * w
    sw = np.sqrt(ws)
    M = np.eye(m) - sw[:, None] * kernel(xs) * sw[None, :]
    sign, logdet = np.linalg.slogdet(M)
    return float(sign * math.exp(logdet))


def fredholm_f2(x: float, m: int = 201, span: float = 24.0) -> float:
    """GUE edge CDF via a Nystrom discretization of the Airy-kernel determinant.

    det(I - K_Ai) on L^2(x, infinity), truncated to [x, x + span] (the kernel
    decays superexponentially) and discretized on an m-point Gauss-Legendre
    grid with square-root weight symmetrization.
    """
    def airy_kernel(xs):
        ai, aip, _, _ = airy(xs)
        diff = np.subtract.outer(xs, xs)
        num = np.multiply.outer(ai, aip) - np.multiply.outer(aip, ai)
        with np.errstate(divide="ignore", invalid="ignore"):
            K = np.where(diff != 0.0, num / np.where(diff == 0.0, 1.0, diff), 0.0)
        np.fill_diagonal(K, aip**2 - xs * ai**2)
        return K

    return _nystrom_det(airy_kernel, x, m, span)


def fredholm_f1(s: float) -> float:
    """GOE edge CDF F1(s) = det(I - B_s) on L^2(0, infinity).

    B_s(x, y) = Ai(x + y + s) is the Ferrari-Spohn kernel; truncated to
    [0, 24] and discretized on 120 nodes like :func:`fredholm_f2`, so it is
    independent of the Painleve II solver.
    """
    return _nystrom_det(lambda xs: airy(np.add.outer(xs, xs) + s)[0], 0.0, 120, 24.0)


def shooting_q0(s_start: float = 14.0, rtol: float = 1e-13) -> float:
    """Hastings-McLeod value at the origin by bisection shooting.

    Integrates q'' = s q + 2 q^3 from ``s_start`` down to 0 with initial data
    lam * (Ai, Ai') and bisects on the amplitude ``lam``.  Trials above the
    separatrix blow up, trials below cross zero; both are caught by events
    well before s = -8, so the bisection never consults a reference value.
    """
    ai0, aip0, _, _ = airy(s_start)

    def rhs(s, y):
        return (y[1], s * y[0] + 2.0 * y[0] ** 3)

    def classify(lam):
        def blow(s, y):
            return y[0] - 5.0

        def cross(s, y):
            return y[0]

        blow.terminal = True
        cross.terminal = True
        sol = solve_ivp(rhs, (s_start, -8.0), [lam * ai0, lam * aip0],
                        method="DOP853", rtol=rtol, atol=1e-280,
                        events=(blow, cross))
        if sol.t_events[0].size:
            return +1  # blew up: amplitude too large
        if sol.t_events[1].size:
            return -1  # crossed zero: amplitude too small
        return 0

    lo, hi = 0.5, 2.0
    if classify(lo) != -1 or classify(hi) != +1:
        raise ConvergenceError("shooting bracket does not straddle the separatrix")
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        c = classify(mid)
        if c > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 4e-17:
            break
    lam = 0.5 * (lo + hi)
    sol = solve_ivp(rhs, (s_start, 0.0), [lam * ai0, lam * aip0],
                    method="DOP853", rtol=rtol, atol=1e-280)
    if not sol.success:
        raise ConvergenceError(f"final shooting solve failed: {sol.message}")
    return float(sol.y[0, -1])


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
            - sum(gammaln(2 * k + 2) for k in range(N))
    elif wall == "reflecting":
        x = _lattice(0.5, half)
        log_pref = (-N / 2) * math.log(2.0) + (2 * N * N - 3 * N / 2) * math.log(math.pi) \
            - N * (2 * N - 1) * math.log(M) - math.lgamma(N + 1) \
            - sum(gammaln(2 * k + 1) for k in range(N))
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
