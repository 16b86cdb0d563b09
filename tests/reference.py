"""Reference computations that only the tests consult.

Brute-force, extended-precision or earlier counterparts of the package's
engines: explicit Gram-Schmidt (in doubles and in mpmath software floats),
a 120-bit Stieltjes recurrence and the 160-bit second a-difference of the
height norms built on it, the double-precision pass that stores phi, the
masked lattice window and pass columns, the image-sum height CDF, the tensor Gauss-Hermite GUE integral, the
Stirling correction and the Ferrari-Spohn Fredholm determinant for F1.
They are slow by design and never needed at run time, so they live here,
and mpmath is a test dependency only.  The CSV and JSON table parsers live
here too: the program only writes tables, and the tests read them back.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from watermelon import dgop
from watermelon.dgop import build_lattice
from watermelon.errors import PrecisionError, WatermelonError, WindowError
from watermelon.oracles import nystrom_det, vandermonde_lattice_sum
from watermelon.painleve import airy_ai
from watermelon.tableio import FORMAT_VERSION, Table


def fredholm_f1(s: float) -> float:
    """GOE edge CDF F1(s) = det(I - B_s) on L^2(0, infinity).

    B_s(x, y) = Ai(x + y + s) is the Ferrari-Spohn kernel; truncated to
    [0, SPAN] and discretized on 120 nodes like ``oracles.resolvent_q``, so
    it is independent of the Painleve II solver.
    """
    return nystrom_det(lambda xs: airy_ai(np.add.outer(xs, xs) + s)[0], 0.0, 120)


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
    from mpmath import mp

    with mp.workprec(prec_bits):
        return tuple(np.array([float(v) for v in values])
                     for values in _stieltjes_mp(nodes, n, a, k_max))


def _stieltjes_mp(nodes, n: int, a: float, k_max: int):
    """(A, B, log_h) as mpf lists at the caller's working precision."""
    from mpmath import mp, mpf

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
            raise PrecisionError(f"B_{k} nonpositive even at {mp.prec} bits")
        B[k] = bk
        log_h[k] = log_h[k - 1] + mp.log(bk)
        prev = cur
        sqrt_b_prev = mp.sqrt(bk)
        cur = [ui / sqrt_b_prev for ui in u]
        A[k] = mp.fsum(xi * c * c for xi, c in zip(x, cur))
    return A, B, log_h


def deformation_lhs_exact(N: int, a: float, delta_a: float, wall: str) -> float:
    """Left side of ``deformation_identity_check`` in 160-bit software floats.

    The second a-difference of sum_{k<N} log h_{2k+p}, read from the full
    mesh-1 family (n = 1, alpha = (1 - p)/2, weight parameter 1/M^2) on the
    double nodes and M values the package uses, with the difference itself
    taken at 160 bits: the three sums cancel to about 1e-5 of their size.
    """
    from mpmath import mp

    p = 1 if wall == "absorbing" else 0
    sums = []
    with mp.workprec(160):
        for av in (a - delta_a, a, a + delta_a):
            M = math.sqrt(2.0 * N / av)
            x, _ = build_lattice(1, (1 - p) / 2, 1.0 / (M * M), 2 * N - 2 + p)
            log_h = _stieltjes_mp(x, 1, 1.0 / (M * M), 2 * N - 2 + p)[2]
            sums.append(mp.fsum(log_h[p::2]))
        return float((sums[2] - 2 * sums[1] + sums[0]) / mp.mpf(delta_a)**2)


def stieltjes_keeping_phi(nodes: np.ndarray, amplitudes: np.ndarray,
                          k_max: int):
    """The double-precision Stieltjes pass, storing phi; (A, B, log_h, phi).

    The floating-point operations of ``dgop.stieltjes``, written plainly:
    tuple coefficients through ``np.dot`` on a buffer that keeps every
    row pair (u_k, x u_k), u_k = sqrt(B_k) phi_k, instead of
    wrapping, so that ``dgop.stieltjes``, ``OrthoSystem.phi_at`` and the
    kernels built on it can be held to it bit for bit.
    """
    m = len(nodes)
    if k_max >= m:
        raise WindowError(f"degree {k_max} unreachable with {m} nodes")
    h0 = float(amplitudes @ amplitudes)
    log_h = [math.log(h0)]
    buf = np.zeros((2 * k_max + 4, m))
    np.divide(amplitudes, math.sqrt(h0), out=buf[2])
    np.multiply(nodes, buf[2], out=buf[3])
    r = np.empty(2)
    np.dot(buf[2:4], buf[2], out=r)
    b0, ab = r.tolist()
    A = [ab / b0]
    B = [0.0]
    roots = [1.0]  # u_0 = phi_0
    s_prev = s = 1.0
    for k in range(1, k_max + 1):
        i = 2 * k + 2
        np.dot((-s / s_prev, 0.0, -A[k - 1] / s, 1.0 / s), buf[i - 4:i],
               out=buf[i])
        np.multiply(nodes, buf[i], out=buf[i + 1])
        np.dot(buf[i:i + 2], buf[i], out=r)
        bk, ab = r.tolist()
        if not bk > 0.0:
            raise PrecisionError(
                f"B_{k} lost positivity; double precision exhausted")
        B.append(bk)
        log_h.append(log_h[k - 1] + math.log(bk))
        A.append(ab / bk)
        s_prev, s = s, math.sqrt(bk)
        roots.append(s)
    phi = buf[2::2] / np.array(roots)[:, None]
    return np.array(A), np.array(B), np.array(log_h), phi


def masked_lattice_nodes(n: int, alpha: float, half_width: float):
    """Nodes (k - alpha)/n with |x| <= half_width, by a mask over the
    integers from floor(-half_width n + alpha) to ceil(half_width n + alpha):
    the rule ``dgop.lattice_nodes`` applied before it found the two ends
    directly, in the same arithmetic."""
    lo = math.floor(-half_width * n + alpha)
    hi = math.ceil(half_width * n + alpha)
    k = np.arange(lo, hi + 1)
    x = (k - alpha) / n
    return x[np.abs(x) <= half_width]


def masked_lattice(n: int, alpha: float, a: float):
    """A family's window by masks, (nodes, amplitudes): the nodes of
    ``masked_lattice_nodes`` within the underflow half-width, then those
    whose folded amplitude is nonzero, the rule ``dgop.build_lattice``
    applied before it found the underflowed ends directly."""
    x = masked_lattice_nodes(n, alpha, (2.0 / math.pi) * math.sqrt(
        dgop._UNDERFLOW_EXPONENT / (n * a)))
    amplitudes = np.exp(-n * math.pi**2 * a * x * x / 4.0) / math.sqrt(n)
    keep = amplitudes > 0.0
    return x[keep], amplitudes[keep]


def pass_start(nodes, amplitudes, n, a, k_max):
    """The amplitudes with 0 past degree k_max's reach: 8 Airy units
    (k_max^{-2/3} relative) beyond the band edge (2/pi) sqrt(k_max / (n a)),
    or beyond the packed half-width (k_max + 1)/(2n) once the family
    saturates.

    With ``pass_columns``, the rule a build's pass followed before
    ``dgop._pass_window`` found the same columns by bisection: a mask over
    the whole window, then ``np.where``.
    """
    if k_max == 0:
        return amplitudes
    reach = (1.0 + 8.0 * k_max ** (-2.0 / 3.0)) * max(
        (2.0 / math.pi) * math.sqrt(k_max / (n * a)), (k_max + 1) / (2.0 * n))
    return np.where(np.abs(nodes) > reach, 0.0, amplitudes)


def pass_columns(start, k_max):
    """The columns a build's pass runs on: the 32-column blocks that hold
    the nonzero starts, from the block of the first, and ending at the
    first column at or past the last + 1 + m mod 32 that leaves the
    window's remainder m mod 32.  Windows over 2,048 columns, windows with
    no nonzero start and cuts that keep no more than k_max columns run
    whole.
    """
    live = np.flatnonzero(start)
    m = len(start)
    if m > dgop._MAX_CUT or not live.size:
        return slice(None)
    lo = int(live[0]) // dgop._BLOCK * dgop._BLOCK
    hi = int(live[-1]) + 1 + m % dgop._BLOCK
    hi = min(hi + (m - hi) % dgop._BLOCK, m)
    return slice(lo, hi) if hi - lo > k_max else slice(None)


def image_sum_cdf(N: int, M: float, wall: str) -> float:
    """P(max height < M) by the method of images, in mpmath.

    Karlin-McGregor with image paths, start and end points coalesced at 0:
    det[T_{2i+2j+c}] / det[He_{2i+2j+c}(0)], i, j < N, with
    T_n = sum_{k in Z} sigma_k He_n(2kM) exp(-2 k^2 M^2) and He_n the
    probabilists' Hermite polynomials; c = 2, sigma_k = 1 for the absorbing
    wall and c = 0, sigma_k = (-1)^k for the reflecting one.  It is the
    Poisson dual of the lattice product and shares no code with it.  The
    Hankel determinants cancel heavily, so it runs at 40 + 9N digits.
    """
    from mpmath import mp, mpf

    c, sign = {"absorbing": (2, 1), "reflecting": (0, -1)}[wall]
    top = 4 * N - 4 + c

    def hermite(t):
        he = [mpf(1), t]
        for n in range(1, top):
            he.append(t * he[n] - n * he[n - 1])
        return he

    with mp.workdps(40 + 9 * N):
        at_zero = hermite(mpf(0))
        T = list(at_zero)
        tol = mpf(10) ** -(mp.dps + 10)
        k = 0
        while True:  # He_n is even for even n: images k and -k pair up
            k += 1
            t = 2 * k * mpf(M)
            terms = [2 * sign**k * mp.exp(-t * t / 2) * he for he in hermite(t)]
            T = [x + y for x, y in zip(T, terms)]
            if t * t > 4 * top + 4 and max(abs(x) for x in terms) < tol:
                break

        def hankel(v):
            return mp.det(mp.matrix([[v[2 * i + 2 * j + c] for j in range(N)]
                                     for i in range(N)]))

        return float(hankel(T) / hankel(at_zero))


def gue_log_partition_quadrature(n: int, order: int = 80) -> float:
    """log of the n-fold GUE integral by tensor Gauss-Hermite quadrature.

    Independent check of the closed-form Selberg value; n <= 3 keeps the
    tensor grid small.
    """
    t, w = hermgauss(order)
    return math.log(vandermonde_lattice_sum(t, w, n))


def stirling_series(n: int) -> float:
    """Truncated Stirling correction (e/n)^n n! / sqrt(2 pi n)."""
    return math.exp(math.lgamma(n + 1) + n - n * math.log(n)
                    - 0.5 * math.log(2 * math.pi * n))


def _check_version(version: str) -> None:
    if version != FORMAT_VERSION:
        raise WatermelonError(f"table format {version!r} is not {FORMAT_VERSION}")


def parse_csv(text: str) -> Table:
    """Read back a table written by ``tableio.to_csv``; params stay strings."""
    lines = text.splitlines()
    if len(lines) < 4 or not lines[0].startswith("# "):
        raise WatermelonError("not a watermelon CSV table")
    head = lines[0][2:].split()
    name = head[0]
    _check_version(head[1])
    params = {}
    for tok in head[2:]:
        k, _, v = tok.partition("=")
        params[k] = v
    if not lines[1].startswith("# tool:") or not lines[2].startswith("# generated: "):
        raise WatermelonError("missing provenance header lines")
    generated = lines[2][len("# generated: "):]
    columns = tuple(lines[3].split(","))
    rows = []
    for line in lines[4:]:
        if not line:
            continue
        cells = []
        for cell in line.split(","):
            if cell == "-0":  # negative zero must stay a float to round trip
                cells.append(-0.0)
                continue
            try:
                cells.append(int(cell))
            except ValueError:
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell)
        rows.append(tuple(cells))
    return Table(name=name, params=params, columns=columns, rows=rows,
                 generated=generated)


def _json_int(text: str):
    # negative zero must stay a float to round trip, as in parse_csv
    return -0.0 if text == "-0" else int(text)


def parse_json(text: str) -> Table:
    """Read back a table written by ``tableio.to_json``."""
    obj = json.loads(text, parse_int=_json_int)
    meta = obj["meta"]
    _check_version(meta["version"])
    return Table(name=meta["name"], params=dict(meta["params"]),
                 columns=tuple(obj["columns"]),
                 rows=[tuple(r) for r in obj["rows"]],
                 generated=meta["generated"])
