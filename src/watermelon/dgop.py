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

That window depends on (n, alpha, a) only, and degree k of the pass on lower
degrees only, so the memo holds one recurrence-only entry, the family built
last: a request for it at a lower degree is served as a prefix of the stored
arrays, bit for bit what a fresh build returns.  ``phi`` is recomputed on
first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoverageError, PrecisionError, WindowError
from .oracles import gue_log_integral

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
    lo = math.floor(-half_width * n + alpha)
    hi = math.ceil(half_width * n + alpha)
    if hi - lo + 1 > MAX_NODES:
        raise WindowError(f"window of {hi - lo + 1} nodes exceeds the "
                          f"{MAX_NODES}-node bound; raise a or lower n")
    k = np.arange(lo, hi + 1)
    x = (k - alpha) / n
    return x[np.abs(x) <= half_width]


@dataclass
class OrthoSystem:
    """Recurrence data for one (n, alpha, a) family up to degree k_max.

    ``phi`` holds the orthonormal weight-folded values, one row per degree,
    on the retained nodes; these are exactly the psi-functions entering the
    Christoffel-Darboux kernel.  It is not stored by the build: the first
    read reruns the Stieltjes pass on the same nodes, so it is bit-identical.
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

    @cached_property
    def phi(self) -> np.ndarray:
        return stieltjes(self.nodes, self.amplitudes, self.k_max)[3]

    @property
    def span(self) -> float:
        return float(self.nodes[-1] - self.nodes[0])

    def node_index(self, x: float) -> int:
        i = int(np.argmin(np.abs(self.nodes - x)))
        if not abs(self.nodes[i] - x) <= 1e-9 / self.n:  # NaN fails too
            raise CoverageError(f"x={x} is not a retained node")
        return i


def stieltjes(nodes: np.ndarray, amplitudes: np.ndarray, k_max: int,
              keep_phi: bool = True):
    """Discrete Stieltjes procedure on the folded amplitudes sqrt(w(x)/n).

    Returns (A, B, log_h, phi).  B_0 is stored as 0 by convention.  A loss
    of positivity in any computed B_k means double precision is exhausted
    for this family.
    """
    m = len(nodes)
    if k_max >= m:
        raise WindowError(f"degree {k_max} unreachable with {m} nodes")
    A = np.zeros(k_max + 1)
    B = np.zeros(k_max + 1)
    log_h = np.zeros(k_max + 1)
    phi = np.zeros((k_max + 1, m)) if keep_phi else None

    h0 = float(amplitudes @ amplitudes)
    log_h[0] = math.log(h0)
    cur = amplitudes / math.sqrt(h0)
    prev = np.zeros(m)
    # u and t are scratch: each degree rotates (prev, cur, u) in place
    u = np.empty(m)
    t = cur * cur
    A[0] = float(nodes @ t)
    if keep_phi:
        phi[0] = cur
    sqrt_b_prev = 0.0
    for k in range(1, k_max + 1):
        np.subtract(nodes, A[k - 1], out=t)
        np.multiply(t, cur, out=t)
        np.multiply(prev, sqrt_b_prev, out=u)
        np.subtract(t, u, out=u)
        bk = float(u @ u)
        if not bk > 0.0:
            raise PrecisionError(
                f"B_{k} lost positivity; double precision exhausted")
        B[k] = bk
        log_h[k] = log_h[k - 1] + math.log(bk)
        sqrt_b_prev = math.sqrt(bk)
        np.divide(u, sqrt_b_prev, out=u)
        prev, cur, u = cur, u, prev
        np.multiply(cur, cur, out=t)
        A[k] = float(nodes @ t)
        if keep_phi:
            phi[k] = cur
    return A, B, log_h, phi


def build_lattice(n: int, alpha: float, a: float, k_max: int):
    """Retained nodes and folded amplitudes sqrt(w(x)/n) of one family.

    The window is every node whose amplitude is nonzero in double precision.
    """
    if n < 1:
        raise ValueError("lattice mesh parameter n must be >= 1")
    if not -0.5 <= alpha <= 0.5:
        raise ValueError("alpha must lie in [-1/2, 1/2]")
    if not 0.0 < a < math.inf:  # NaN fails too
        raise ValueError("weight parameter a must be positive and finite")
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


def _build(n, alpha, a, k_max):
    nodes, amplitudes = build_lattice(n, alpha, a, k_max)
    A, B, log_h, _ = stieltjes(nodes, amplitudes, k_max, keep_phi=False)
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


def gue_free_energy(n: int) -> float:
    """GUE free energy -log Z / n^2 from ``oracles.gue_log_integral``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return -gue_log_integral(n) / n**2


def _check_particles(system: OrthoSystem, n_particles: int) -> None:
    if not 0 <= n_particles <= system.k_max + 1:
        raise ValueError("n_particles must lie in [0, k_max + 1]")


def cd_kernel(system: OrthoSystem, x: float, y: float, n_particles: int) -> float:
    """Christoffel-Darboux kernel K(x, y) = sum_{k<n} phi_k(x) phi_k(y)."""
    _check_particles(system, n_particles)
    i = system.node_index(x)
    j = system.node_index(y)
    return float(system.phi[:n_particles, i] @ system.phi[:n_particles, j])


def cd_kernel_matrix(system: OrthoSystem, n_particles: int) -> np.ndarray:
    """Full kernel matrix on the retained nodes (rank-n_particles projection)."""
    _check_particles(system, n_particles)
    phi = system.phi[:n_particles]
    return phi.T @ phi


def correlation_det(system: OrthoSystem, points, n_particles: int) -> float:
    """m-point correlation function det[K(x_i, x_j)]."""
    _check_particles(system, n_particles)
    idx = [system.node_index(p) for p in points]
    P = system.phi[:n_particles, idx]
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
