"""Discrete Gaussian orthogonal polynomial engine.

Monic polynomials orthogonal under w(x) = exp(-n pi^2 a x^2 / 2) summed over
the shifted lattice {(k - alpha)/n} with measure prefactor 1/n.  Everything
is carried in the weight-folded orthonormal form

    phi_k(x) = P_k(x) sqrt(w(x)/n) / sqrt(h_k),

so stored values stay O(1) at any degree; squared norms live in log domain
only.  The recurrence x phi_k = sqrt(B_{k+1}) phi_{k+1} + A_k phi_k
+ sqrt(B_k) phi_{k-1} yields A_k, B_k and log h_k = log h_{k-1} + log B_k.

The lattice is truncated where the folded amplitude underflows: past
X_u = (2/pi) sqrt(-ln(tiny) / (n a)), tiny the smallest positive double,
exp(-n pi^2 a x^2 / 4) is exactly 0, so no wider window can change a
double-precision result and one Stieltjes pass per family suffices.  It is
the only window: a node at amplitude 0 stays 0 through the recurrence, so
identities that difference across a (``toda_residual``) need no shared one.
The pass of a build starts at 0 past its degree's reach (``_pass_start``),
where every product it would add is below half an ulp of its sums.

The pass (Gautschi, Orthogonal Polynomials: Computation and Approximation,
2004, sec. 2.2) carries u_k = sqrt(B_k) phi_k and x u_k as row pairs of a
small buffer whose row views are built once per pass: one gemv with a
coefficient vector written in place, one multiply and one (2, m) product
per degree.

That window depends on (n, alpha, a) only, and degree k of the pass on lower
degrees only, so the memo holds one recurrence-only entry, the family built
last: a request for it at a lower degree is served as a prefix of the stored
arrays, bit for bit what a fresh build returns.  ``phi`` is read from the
stored recurrence: the pass's gemv steps replayed from A and B on the node
columns asked for alone, with no dot product and no second pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import CoverageError, PrecisionError, WindowError

# exp(-_UNDERFLOW_EXPONENT) is the smallest positive double (744.4).
_UNDERFLOW_EXPONENT = -math.log(np.finfo(float).smallest_subnormal)
# sqrt(w/n) is exp(-k_max)/sqrt(n) at the degree-k_max spectral edge for all
# n and a, so double range ends at a fixed degree: log_h matches the 120-bit
# oracle to 2e-15 relative up to k_max = 672; by 704 edge amplitudes underflow.
MAX_DEGREE = 672
# The window holds about (4/pi) sqrt(744.4 n / a) nodes, so a small a asks
# for an unbounded one; no test, example or benchmark family exceeds 2,000.
MAX_NODES = 100_000


def lattice_nodes(n: int, alpha: float, half_width: float) -> np.ndarray:
    """Nodes (k - alpha)/n, k integer, with |x| <= half_width.

    Raises ``WindowError`` before allocating more than ``MAX_NODES``.
    """
    bound = f"exceeds the {MAX_NODES}-node bound; raise a or lower n"
    if not half_width * n <= MAX_NODES:  # inf and NaN fail too
        raise WindowError(f"window of half-width {half_width} at n={n} {bound}")
    lo = math.floor(-half_width * n + alpha)
    hi = math.ceil(half_width * n + alpha)
    if hi - lo + 1 > MAX_NODES:
        raise WindowError(f"window of {hi - lo + 1} nodes {bound}")
    k = np.arange(lo, hi + 1)
    x = (k - alpha) / n
    return x[np.abs(x) <= half_width]


@dataclass
class OrthoSystem:
    """Recurrence data for one (n, alpha, a) family up to degree k_max.

    ``phi`` holds the orthonormal weight-folded values, one row per degree,
    on the retained nodes: the psi-functions of the Christoffel-Darboux
    kernel.  The build stores none; ``phi_at`` replays the pass's steps from
    the stored A and B on the node columns asked for alone, and ``phi`` is
    ``phi_at`` on every node, replayed on each read.
    """

    n: int
    alpha: float
    a: float
    k_max: int
    log_h: np.ndarray
    A: np.ndarray
    B: np.ndarray
    nodes: np.ndarray
    amplitudes: np.ndarray

    @property
    def phi(self) -> np.ndarray:
        return self.phi_at(slice(None))

    def phi_at(self, idx) -> np.ndarray:
        """Rows 0..k_max of phi at the node columns ``idx``.

        The pass's steps on the row views of ``_fills`` and the columns
        ``idx`` alone, every degree's gemv coefficients computed once from A
        and B by the pass's divisions.  A degree's gemv and multiply act on
        each column alone and phi_0 divides by the whole window's h_0, so
        inside the reach of ``_pass_start`` each value is bit for bit the
        pass's own; past it, where the pass starts at 0, the true value.
        """
        cols = np.arange(len(self.nodes))
        keep = cols[idx]
        # OpenBLAS runs a gemv 2 or 3 columns wide by another path, which moved
        # phi in 591 of 752 families; so a gather repeats its first column up
        # to 4, and a window under 4 nodes replays whole: no bit moved in 1,124
        if len(cols) >= 4:
            cols = np.append(keep, keep[:1].repeat(max(0, 4 - len(keep))))
            keep = slice(len(keep))
        nodes, multiply = self.nodes[cols], np.multiply
        s = np.sqrt(self.B)
        s[0] = 1.0  # u_0 = phi_0
        coef = np.zeros((self.k_max, 4))
        coef[:, 0] = -s[:-1] / np.append(1.0, s[:-2])
        coef[:, 2] = -self.A[:-1] / s[:-1]
        coef[:, 3] = 1.0 / s[:-1]
        rows = iter(coef)
        buf = _first_rows(nodes, self.amplitudes[cols],
                          float(self.amplitudes @ self.amplitudes), self.k_max)
        u = np.empty((self.k_max + 1, len(cols)))
        first, top = 0, 2  # first u_k not kept, and its buffer row
        for fill in _fills(buf, self.k_max):
            for (src, row, x_row, _), c in zip(fill, rows):
                c.dot(src, out=row)
                multiply(nodes, row, x_row)
            kept = buf[top:2 * len(fill) + 4:2]
            u[first:first + len(kept)] = kept
            first, top = first + len(kept), 4
        u /= s[:, None]
        return u[:, keep]

    @property
    def span(self) -> float:
        return float(self.nodes[-1] - self.nodes[0])

    def node_index(self, x: float) -> int:
        # the retained nodes are consecutive lattice points 1/n apart; a
        # non-finite x reads node 0 and fails the check below
        t = (x - self.nodes[0]) * self.n
        i = min(max(round(t), 0), len(self.nodes) - 1) if math.isfinite(t) else 0
        if not abs(self.nodes[i] - x) <= 1e-9 / self.n:  # NaN fails too
            raise CoverageError(f"x={x} is not a retained node")
        return i


# Rows of the pass's work buffer (see ``_first_rows``): 64 rows of a
# 2,000-node window are 1 MB, and a full buffer copies 4 rows per 30 degrees.
_ROWS = 64


def _first_rows(nodes, amplitudes, h0, k_max):
    """A pass's work buffer, phi_0 = amplitude / sqrt(h0) and x phi_0 in rows
    2, 3: row pairs (u_k, x u_k), u_k = sqrt(B_k) phi_k, each below the pair
    of degree k - 1, where rows 0, 1 stand for u_{-1} = 0.  A full buffer
    copies its last two pairs to the front.
    """
    buf = np.zeros((min(_ROWS, 2 * k_max + 4), len(nodes)))
    np.divide(amplitudes, math.sqrt(h0), out=buf[2])
    np.multiply(nodes, buf[2], out=buf[3])
    return buf


def _fills(buf, k_max):
    """The step views of a pass's k_max degrees, one buffer fill at a time.

    Step k writes u_k and x u_k to a row pair (``row``, ``x_row``) from
    the four rows ``src`` above it, and ``pair`` views both rows.  The
    views are built once; between fills the last two pairs are copied to
    the front.
    """
    steps = [(buf[i - 4:i], buf[i], buf[i + 1], buf[i:i + 2])
             for i in range(4, len(buf), 2)]
    yield steps
    done = len(steps)
    while done < k_max:
        buf[:4] = buf[-4:]
        yield steps[:k_max - done]
        done += len(steps)


def stieltjes(nodes: np.ndarray, amplitudes: np.ndarray, k_max: int):
    """Discrete Stieltjes procedure on the folded amplitudes sqrt(w(x)/n).

    Each degree makes three numpy calls on the row views of ``_fills``: one
    gemv, u_k = (x u_{k-1} - A_{k-1} u_{k-1}) / s - (s / s_prev) u_{k-2}
    with s = sqrt(B_{k-1}) and its coefficients written in place; a multiply
    for x u_k; and one (2, m) product giving B_k = u_k.u_k and A_k B_k =
    x u_k.u_k, u_k = sqrt(B_k) phi_k.  Returns (A, B, log_h): no phi is
    kept, ``OrthoSystem.phi_at`` replays the steps.  B_0 is stored as 0 by
    convention.  A loss of positivity in any computed B_k means double
    precision is exhausted for this family.
    """
    m = len(nodes)
    if k_max >= m:
        raise WindowError(f"degree {k_max} unreachable with {m} nodes")
    h0 = float(amplitudes @ amplitudes)
    buf = _first_rows(nodes, amplitudes, h0, k_max)
    r = np.empty(2)
    buf[2:4].dot(buf[2], out=r)
    b0, ab = r.tolist()
    a_k = ab / b0
    A = [a_k]
    B = [0.0]
    c = np.zeros(4)  # slot 1, the weight of x u_{k-2}, stays 0
    coef = memoryview(c)
    gemv, multiply, read, sqrt = c.dot, np.multiply, r.tolist, math.sqrt
    push_a, push_b = A.append, B.append
    s_prev = s = 1.0
    for fill in _fills(buf, k_max):
        for src, row, x_row, pair in fill:
            coef[0], coef[2], coef[3] = -s / s_prev, -a_k / s, 1.0 / s
            gemv(src, out=row)
            multiply(nodes, row, x_row)
            pair.dot(row, out=r)
            bk, ab = read()
            if not bk > 0.0:
                raise PrecisionError(
                    f"B_{len(B)} lost positivity; double precision exhausted")
            push_b(bk)
            a_k = ab / bk
            push_a(a_k)
            s_prev, s = s, sqrt(bk)
    log_h = accumulate(map(math.log, B[1:]), initial=math.log(h0))
    return np.array(A), np.array(B), np.array(list(log_h))


def build_lattice(n: int, alpha: float, a: float, k_max: int):
    """Retained nodes and folded amplitudes sqrt(w(x)/n) of one family.

    The window is every node whose amplitude is nonzero in double precision.
    """
    if n < 1:
        raise ValueError("lattice mesh parameter n must be >= 1")
    if not -0.5 <= alpha <= 0.5:
        raise ValueError("alpha must lie in [-1/2, 1/2]")
    if not 0.0 < n * math.pi**2 * a < math.inf:  # NaN fails too
        raise ValueError("weight a and n pi^2 a must be positive and finite")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if k_max > MAX_DEGREE:
        raise PrecisionError(f"k_max={k_max} > {MAX_DEGREE}, the double-range cap")
    x = lattice_nodes(n, alpha, (2.0 / math.pi) * math.sqrt(
        _UNDERFLOW_EXPONENT / (n * a)))
    amplitudes = np.exp(-n * math.pi**2 * a * x * x / 4.0) / math.sqrt(n)
    keep = amplitudes > 0.0
    return x[keep], amplitudes[keep]


def build_system(n: int, alpha: float, a: float, k_max: int) -> OrthoSystem:
    """Construct an OrthoSystem; the family built last is memoized.

    Any other family, or a higher degree, rebuilds and replaces the entry;
    a request that raises leaves it in place.
    """
    global _memo
    entry = _memo
    if (entry is None or (entry.n, entry.alpha, entry.a) != (n, alpha, a)
            or not 0 <= k_max <= entry.k_max):
        entry = _memo = _build(n, alpha, a, k_max)
    m = k_max + 1
    return OrthoSystem(n=n, alpha=alpha, a=a, k_max=k_max,
                       log_h=entry.log_h[:m], A=entry.A[:m], B=entry.B[:m],
                       nodes=entry.nodes, amplitudes=entry.amplitudes)


def _pass_start(nodes, amplitudes, n, a, k_max):
    """The amplitudes with 0 past degree k_max's reach: 8 Airy units
    (k_max^{-2/3} relative) beyond the band edge (2/pi) sqrt(k_max / (n a)),
    or beyond the packed half-width (k_max + 1)/(2n) once the family
    saturates.  What those nodes add is below half an ulp of the sums they
    join, so B and log h keep every bit (A too, but where it cancels to
    noise below 1e-70), and the pass no longer pays for their subnormal
    arithmetic.  At 5 units 7 of 2,000 swept families change bits of B or
    log h.
    """
    if k_max == 0:
        return amplitudes
    reach = (1.0 + 8.0 * k_max ** (-2.0 / 3.0)) * max(
        (2.0 / math.pi) * math.sqrt(k_max / (n * a)), (k_max + 1) / (2.0 * n))
    return np.where(np.abs(nodes) > reach, 0.0, amplitudes)


def _build(n, alpha, a, k_max):
    nodes, amplitudes = build_lattice(n, alpha, a, k_max)
    A, B, log_h = stieltjes(
        nodes, _pass_start(nodes, amplitudes, n, a, k_max), k_max)
    # every system of the family views these arrays, so none may write them
    for arr in (nodes, amplitudes, A, B, log_h):
        arr.setflags(write=False)
    return OrthoSystem(n=n, alpha=alpha, a=a, k_max=k_max, log_h=log_h,
                       A=A, B=B, nodes=nodes, amplitudes=amplitudes)


# The entry is never handed out, so it holds no phi.
_memo: OrthoSystem | None = None


def rescale_check(system: OrthoSystem, direction: int) -> float:
    """Max defect of the lattice rescaling identities against a companion.

    h_{n,j}(a) = xi^{2j+1} h_{n+-1,j}(a xi) is checked relatively;
    A_{n,j}(a) = xi A_{n+-1,j}(a xi) is checked on the lattice-span scale
    (A vanishes identically on symmetric lattices, so a relative defect
    would be 0/0 there).
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    n = system.n
    xi = 1.0 + direction / n
    companion = build_system(n + direction, system.alpha, system.a * xi,
                             system.k_max)
    j = np.arange(system.k_max + 1)
    h_defect = np.abs(np.expm1(system.log_h - companion.log_h
                               - (2 * j + 1) * math.log(xi)))
    a_defect = np.abs(system.A - xi * companion.A) / system.span
    return float(max(h_defect.max(), a_defect.max()))


def partition_and_free_energy(n: int, alpha: float, a: float):
    """log Z = log n! + sum_{k<n} log h_k and F = -log Z / n^2."""
    system = build_system(n, alpha, a, n - 1)
    log_z = math.lgamma(n + 1) + float(np.sum(system.log_h[:n]))
    return log_z, -log_z / n**2


def _check_particles(system: OrthoSystem, n_particles: int) -> None:
    if not 0 <= n_particles <= system.k_max + 1:
        raise ValueError("n_particles must lie in [0, k_max + 1]")


def cd_kernel(system: OrthoSystem, x: float, y: float, n_particles: int) -> float:
    """Christoffel-Darboux kernel K(x, y) = sum_{k<n} phi_k(x) phi_k(y)."""
    _check_particles(system, n_particles)
    phi = system.phi_at([system.node_index(x), system.node_index(y)])
    return float(phi[:n_particles, 0] @ phi[:n_particles, 1])


def cd_kernel_matrix(system: OrthoSystem, n_particles: int) -> np.ndarray:
    """Full kernel matrix on the retained nodes (rank-n_particles projection)."""
    _check_particles(system, n_particles)
    phi = system.phi[:n_particles]
    return phi.T @ phi


def correlation_det(system: OrthoSystem, points, n_particles: int) -> float:
    """m-point correlation function det[K(x_i, x_j)]."""
    _check_particles(system, n_particles)
    P = system.phi_at([system.node_index(p) for p in points])[:n_particles]
    return float(np.linalg.det(P.T @ P))


def toda_residual(n: int, alpha: float, a: float, delta_a: float):
    """Second a-difference of log Z against the recurrence-coefficient form.

    Returns (lhs, rhs, defect) with rhs = (n pi^2 / 2)^2 B_n (B_{n-1}
    + B_{n+1} + (A_n + A_{n-1})^2).  Each a keeps its own window: the
    nodes one a drops have amplitude exactly 0 there and stay 0 through the
    recurrence, so the identity is exact per measure and the defect is pure
    O(delta_a^2) differencing bias.
    """
    if not 0.0 < delta_a < a:  # NaN fails too
        raise ValueError("delta_a must lie in (0, a)")
    # the degree-(n + 1) family first: the memo serves log Z at a from it
    system = build_system(n, alpha, a, n + 1)
    lz_mid, lz_lo, lz_hi = (partition_and_free_energy(n, alpha, av)[0]
                            for av in (a, a - delta_a, a + delta_a))
    lhs = (lz_hi - 2.0 * lz_mid + lz_lo) / delta_a**2
    A, B = system.A, system.B
    rhs = (n * math.pi**2 / 2.0)**2 * B[n] * (
        B[n - 1] + B[n + 1] + (A[n] + A[n - 1])**2)
    return lhs, rhs, abs(lhs - rhs)
