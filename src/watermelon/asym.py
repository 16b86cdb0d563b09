"""Closed-form asymptotic expansions in the double-scaling variable s.

The double-scaling variable is

    s(a; n) = -[3 pi n (z1 - int_0^{z1} rho)]^{2/3},
    z1 = (2 / pi a) sqrt(a - 1),  rho(x) = (pi a / 2) sqrt(4/(pi^2 a) - x^2).

For a > 1, z1 is real and the semicircle antiderivative gives
s = -[3n (arcsin sqrt(1 - 1/a) - sqrt(a-1)/a)]^{2/3} < 0.  For a < 1, z1
is imaginary; the bracket is purely imaginary and the branch of the 2/3
power is pinned by continuity with the small-(1-a) series (sign(s) =
sign(1-a)), giving s = +[3n (sqrt(1-a)/a - log((1+sqrt(1-a))/sqrt(a)))]^{2/3}.
Near a = 1 the series s = 2^{2/3} n^{2/3} ((1-a) + (4/5)(1-a)^2
+ (122/175)(1-a)^3) takes over.
"""

from __future__ import annotations

import math

from . import dgop
from .errors import CoverageError
from .oracles import gue_free_energy
from .painleve import PainleveGrid, tracy_widom
from .psikernel import PsiSolution, critical_kernel_matrix

SERIES_SWITCH = 1e-3
KERNEL_SCALE_C = math.pi * 2.0 ** (-5.0 / 3.0)


def _check_n(n: int) -> None:
    if not n >= 1:
        raise ValueError("n must be >= 1")


def a_of_L(n: int, L: float) -> float:
    """a = 1 - L n^{-2/3}; ValueError unless n >= 1, L is finite and a > 0."""
    _check_n(n)
    if not math.isfinite(L):
        raise ValueError(f"L must be finite, not {L}")
    a = 1.0 - L * n ** (-2.0 / 3.0)
    if a <= 0.0:
        raise ValueError("L too large; a nonpositive")
    return a


def s_of_a(a: float, n: int) -> float:
    """Double-scaling variable s(a; n); positive iff a < 1."""
    _check_n(n)
    if not 0.0 < a <= 2.0:
        raise CoverageError("a must lie in (0, 2]")
    d = 1.0 - a
    if abs(d) < SERIES_SWITCH:
        return 2.0 ** (2.0 / 3.0) * n ** (2.0 / 3.0) * (
            d + 0.8 * d * d + (122.0 / 175.0) * d**3)
    if a > 1.0:
        bracket = math.asin(math.sqrt(1.0 - 1.0 / a)) - math.sqrt(a - 1.0) / a
        return -(3.0 * n * bracket) ** (2.0 / 3.0)
    bracket = math.sqrt(d) / a - math.log((1.0 + math.sqrt(d)) / math.sqrt(a))
    return (3.0 * n * bracket) ** (2.0 / 3.0)


def _t_u(n: int, alpha: float, q: float, qp: float, r: float):
    """(T_n, U_n) from q(s), q'(s) and R(s): with c = (-1)^n cos(2 pi alpha),
    T_n = R - c q and U_n = R^2 - c (q' + 2qR) - q^2 sin^2(2 pi alpha)."""
    c = (-1) ** n * math.cos(2 * math.pi * alpha)
    return r - c * q, (r * r - c * (qp + 2.0 * q * r)
                       - q * q * math.sin(2 * math.pi * alpha) ** 2)


def t_prime(n: int, alpha: float, s: float, grid: PainleveGrid) -> float:
    """T_n'(s) = -q^2 - (-1)^n cos(2 pi alpha) q', analytic (no differencing)."""
    return -grid.q_at(s) ** 2 \
        - (-1) ** n * math.cos(2 * math.pi * alpha) * grid.q_prime_at(s)


def _leading_log_h(n: int, a: float) -> tuple[float, float]:
    """Leading log h_{n,n} and log 1/h_{n,n-1}, on both sides of saturation."""
    return (math.log(2.0 / math.sqrt(a)) - n * math.log(math.pi**2 * a * math.e),
            -math.log(2.0 * math.sqrt(a) * math.pi**2)
            + n * math.log(math.pi**2 * a * math.e))


def asymptotic_h(n: int, alpha: float, a: float, grid: PainleveGrid):
    """Log-domain predictions for h_{n,n} and 1/h_{n,n-1}.

    h_{n,n}   ~ (2/sqrt a)(pi^2 a e)^{-n} (1 - 2^{2/3} T_n/n^{1/3}
                 + 2^{1/3} U_n/n^{2/3})
    1/h_{n,n-1} ~ (1/(2 sqrt a pi^2))(pi^2 a e)^{n} (1 + 2^{2/3} T_{n-1}/n^{1/3}
                 + 2^{1/3} U_{n-1}/n^{2/3})
    """
    s = s_of_a(a, n)
    base, base_inv = _leading_log_h(n, a)
    q, qp, r = grid.q_at(s), grid.q_prime_at(s), grid.R_at(s)
    t, u = _t_u(n, alpha, q, qp, r)
    corr = (1.0 - 2.0 ** (2.0 / 3.0) / n ** (1.0 / 3.0) * t
            + 2.0 ** (1.0 / 3.0) / n ** (2.0 / 3.0) * u)
    log_h_nn = base + math.log(corr)
    t, u = _t_u(n - 1, alpha, q, qp, r)
    corr_inv = (1.0 + 2.0 ** (2.0 / 3.0) / n ** (1.0 / 3.0) * t
                + 2.0 ** (1.0 / 3.0) / n ** (2.0 / 3.0) * u)
    log_inv_h = base_inv + math.log(corr_inv)
    return log_h_nn, log_inv_h


def asymptotic_A(n: int, alpha: float, a: float, grid: PainleveGrid) -> float:
    """Leading behavior of the recurrence coefficient A_{n,n-1}."""
    s = s_of_a(a, n)
    return ((-1) ** n * 2.0 ** (4.0 / 3.0) * math.sin(2 * math.pi * alpha)
            / (math.pi * n ** (1.0 / 3.0))
            * (2.0 ** (1.0 / 3.0) * grid.q_at(s) + grid.q_prime_at(s) / n ** (1.0 / 3.0)))


def ratio_asymptotics(n: int, alpha: float, a: float, grid: PainleveGrid):
    """Both normalizing-constant ratios to their n^{-2/3} term.

    ratio_minus = h_{n,n}(a) / h_{n-1,n-2}(a xi_-)
    ratio_plus  = h_{n+1,n+1}(a xi_+) / h_{n,n-1}(a)
    Both equal (pi^4 a^2 e^2)^{-1} (1 + 2^{7/3} T'(s)/n^{2/3}) with the
    index carried by T'.
    """
    s = s_of_a(a, n)
    base = 1.0 / (math.pi**4 * a * a * math.e**2)
    minus = base * (1.0 + 2.0 ** (7.0 / 3.0) * t_prime(n, alpha, s, grid)
                    / n ** (2.0 / 3.0))
    plus = base * (1.0 + 2.0 ** (7.0 / 3.0) * t_prime(n + 1, alpha, s, grid)
                   / n ** (2.0 / 3.0))
    return minus, plus


def exact_h_ratios(n: int, alpha: float, a: float):
    """Exact counterparts of :func:`ratio_asymptotics` from the engine."""
    xi_m = 1.0 - 1.0 / n
    xi_p = 1.0 + 1.0 / n
    sys_mid = dgop.build_system(n, alpha, a, n)
    sys_m = dgop.build_system(n - 1, alpha, a * xi_m, n)
    sys_p = dgop.build_system(n + 1, alpha, a * xi_p, n + 1)
    minus = math.exp(sys_mid.log_h[n] - sys_m.log_h[n - 2])
    plus = math.exp(sys_p.log_h[n + 1] - sys_mid.log_h[n - 1])
    return minus, plus


def subcritical_h(n: int, a: float):
    """Continuous-regime predictions (Stirling series) plus exact Hermite norms.

    Valid away from saturation (tests enforce a <= 0.9).  Returns log-domain
    values: the two predicted lines and the exact continuous norms
    h_n^(c) = n! sqrt(2 pi) / (sqrt(n a) pi)^{2n+1}.
    """
    _check_n(n)
    if not a > 0.0:  # NaN fails too
        raise ValueError("a must be positive")
    if a >= 1.0:
        raise CoverageError("subcritical expansion needs a < 1")
    series = 1.0 + 1.0 / (12.0 * n) + 1.0 / (288.0 * n * n) \
        - 139.0 / (51840.0 * n**3)
    series_inv = 1.0 - 1.0 / (12.0 * n) + 1.0 / (288.0 * n * n) \
        + 139.0 / (51840.0 * n**3)
    base, base_inv = _leading_log_h(n, a)

    def log_hermite(k):
        return math.lgamma(k + 1) + 0.5 * math.log(2.0 * math.pi) \
            - (2 * k + 1) * math.log(math.sqrt(n * a) * math.pi)

    return {"log_h_nn": base + math.log(series),
            "log_inv_h_nnm1": base_inv + math.log(series_inv),
            "log_hermite_n": log_hermite(n), "log_hermite_nm1": log_hermite(n - 1)}


def free_energy_comparison(n: int, L: float, grid: PainleveGrid,
                           alpha: float = 0.0) -> dict:
    """Both sides of the free-energy comparison at a = 1 - L n^{-2/3}.

    exact      = F_n(a) - F_n^GUE
    asymptotic = log(a)/2 - log(2/(n pi^2))/2
                 - n^{-2} log F2(2^{2/3} n^{2/3} (1-a))
    residual   = |exact - asymptotic|
    """
    a = a_of_L(n, L)
    _, f_dope = dgop.partition_and_free_energy(n, alpha, a)
    exact = f_dope - gue_free_energy(n)
    f2_arg = 2.0 ** (2.0 / 3.0) * n ** (2.0 / 3.0) * (1.0 - a)
    f2_val = tracy_widom(f2_arg, "F2", grid)
    asymptotic = (math.log(a) / 2.0 - 0.5 * math.log(2.0 / (n * math.pi**2))
                  - math.log(f2_val) / n**2)
    return {"exact": exact, "asymptotic": asymptotic,
            "residual": abs(exact - asymptotic)}


def kernel_limit_table(n: int, L: float, u_grid, v_grid,
                         grid: PainleveGrid, psis: PsiSolution,
                         alpha: float = 0.0):
    """Scaled Christoffel-Darboux kernel against the critical kernel.

    For each requested (u, v), both are snapped to nearest lattice points
    x = (k - alpha)/n with u ~ c n^{1/3} x, c = pi 2^{-5/3}; the comparison
    evaluates the limit kernel at the snapped coordinates.  Rows hold
    (u, v, k_n, m_n, scaled exact, limit, abs diff, rel diff); pairs whose
    distinct u, v collapse onto one node are reported in ``skipped``.
    ``psis`` must be the pair at s = 2^{2/3} L (else ``ValueError``);
    ``grid`` is unused, and stays because callers pass ``psis`` after it.
    """
    a = a_of_L(n, L)
    s = 2.0 ** (2.0 / 3.0) * L
    if not abs(psis.s - s) <= 1e-12 * abs(s):  # NaN fails too
        raise ValueError(f"psis is at s={psis.s}, not 2^(2/3) L for L={L}")
    u_grid, v_grid = tuple(u_grid), tuple(v_grid)  # each is read twice
    if not all(map(math.isfinite, u_grid + v_grid)):
        raise ValueError("u and v must be finite")
    system = dgop.build_system(n, alpha, a, n)
    scale = n ** (2.0 / 3.0) / KERNEL_SCALE_C
    node = {t: round(alpha + t * n ** (2.0 / 3.0) / KERNEL_SCALE_C)
            for t in (*u_grid, *v_grid)}
    pairs, skipped = [], []
    for u_t in u_grid:
        for v_t in v_grid:
            if u_t != v_t and node[u_t] == node[v_t]:
                skipped.append((u_t, v_t))
            else:
                pairs.append((node[u_t], node[v_t]))
    ks = sorted({k for pair in pairs for k in pair})
    column = {k: i for i, k in enumerate(ks)}
    if ks:
        phi = system.phi_at([system.node_index((k - alpha) / n)
                             for k in ks])[:n]
        # distinct nodes lie C n^{-2/3} >= 1e-6 apart in u for n <= MAX_DEGREE
        us = [KERNEL_SCALE_C * ((k - alpha) / n) * n ** (1.0 / 3.0) for k in ks]
        limits = critical_kernel_matrix(us, psis)
    rows = []
    for k_n, m_n in pairs:
        i, j = column[k_n], column[m_n]
        u, v = us[i], us[j]
        kn = float(phi[:, i] @ phi[:, j])
        limit = float(limits[i, j])
        if k_n == m_n:
            exact = scale * (1.0 - kn)
        else:
            exact = (-1.0) ** (k_n + m_n + 1) * scale * kn
        diff = abs(exact - limit)
        rel = diff / abs(limit) if limit != 0.0 else math.inf
        rows.append({"u": u, "v": v, "k_n": k_n, "m_n": m_n,
                     "exact": exact, "limit": limit,
                     "abs_diff": diff, "rel_diff": rel,
                     "diagonal": k_n == m_n})
    return rows, skipped


def kernel_table_distance(rows) -> dict:
    """Sup distances of the comparison table, scaled by the kernel size.

    Per-entry relative error is meaningless where the limit kernel happens
    to vanish (antipodal pairs), so convergence is judged on the sup of
    |exact - limit| over each sub-table divided by the sup of |limit|.
    """
    out = {}
    for tag, flag in (("diagonal", True), ("offdiagonal", False)):
        sub = [r for r in rows if r["diagonal"] == flag]
        if not sub:
            continue
        scale = max(abs(r["limit"]) for r in sub)
        out[tag] = max(r["abs_diff"] for r in sub) / scale
    return out
