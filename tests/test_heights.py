import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import watermelon as wm
from watermelon.errors import OrderFitError, PrecisionError, WindowError
from watermelon.heights import _lattice, rescale_M, tabulate_rescaled
from watermelon.oracles import brute_force_height_cdf

from reference import deformation_lhs_exact, image_sum_cdf


def test_single_path_absorbing_direct_sum():
    M = 2.0
    x = np.arange(-40, 41, dtype=float)
    direct = (2.0 ** -0.5 * math.pi ** 2.5 / M**3
              * float(np.sum(x * x * np.exp(-math.pi**2 * x * x / (2 * M * M)))))
    assert abs(wm.height_cdf(1, M, "absorbing") / direct - 1.0) < 1e-12


@pytest.mark.parametrize("wall", ["absorbing", "reflecting"])
@pytest.mark.parametrize("M", [1.5, 2.5, 4.0])
def test_vandermonde_oracle_small_N(wall, M):
    for N in (1, 2):
        assert abs(wm.height_cdf(N, M, wall)
                   - brute_force_height_cdf(N, M, wall)) <= 1e-10


def test_three_paths_against_oracle():
    assert abs(wm.height_cdf(3, 2.5, "absorbing")
               - brute_force_height_cdf(3, 2.5, "absorbing")) <= 1e-10


def test_single_excursion_matches_theta_law():
    # one absorbing path is a Brownian excursion; its maximum follows the
    # classical theta law P = 1 + 2 sum_{k>=1} (1 - 4 k^2 M^2) e^{-2 k^2 M^2}
    for M in (0.8, 1.2, 2.0):
        k = np.arange(1, 60, dtype=float)
        theta = 1.0 + 2.0 * float(np.sum((1.0 - 4.0 * k * k * M * M)
                                         * np.exp(-2.0 * k * k * M * M)))
        assert abs(wm.height_cdf(1, M, "absorbing") - theta) < 1e-13


def test_single_reflected_path_matches_ks_law():
    # one reflecting path is |Brownian bridge|; its maximum follows the
    # Kolmogorov-Smirnov law P = sum_{k in Z} (-1)^k e^{-2 k^2 M^2}
    for M in (0.8, 1.2, 2.0):
        k = np.arange(1, 60, dtype=float)
        ks = 1.0 + 2.0 * float(np.sum((-1.0) ** k * np.exp(-2.0 * k * k * M * M)))
        assert abs(wm.height_cdf(1, M, "reflecting") - ks) < 1e-13


@pytest.mark.parametrize("wall", ["absorbing", "reflecting"])
@pytest.mark.parametrize("N", [4, 8, 16, 32])
def test_image_sum_oracle(N, wall):
    # the Poisson dual of the lattice product, in mpmath at 40 + 9N digits;
    # log P sums N terms log(B_j / B_j^c), each rounded to ~N ulps
    for k in (-3.0, 0.0, 3.0):
        M = rescale_M(N, k)
        want = image_sum_cdf(N, M, wall)
        assert abs(wm.height_cdf(N, M, wall) / want - 1.0) <= 1e-14 * N


def test_height_pins_near_extended_precision():
    # log P is ~1e-5 here, the sum of ratios each off by a few ulps, so the
    # frozen pins may move only toward these 60-digit Stieltjes values and
    # the exact 1 - P of the image sum (its Hankel form, 1 - P in mpmath)
    for wall, want in (("absorbing", -2.0931909340408428e-5),
                       ("reflecting", -4.5632998198580908e-6)):
        assert math.isclose(wm.log_height_cdf(8, 5.0, wall), want,
                            rel_tol=2e-8)
    assert math.isclose(wm.small_a_check(2, [0.5])[0]["one_minus_p"],
                        0.0009118359664530497, rel_tol=1e-12)


@pytest.mark.parametrize("wall", ["absorbing", "reflecting"])
def test_deformation_lhs_near_extended_precision(wall):
    # the second difference divides rounding by delta_a^2 = 1e-6, so the
    # frozen left sides may move only toward these 160-bit values
    got = wm.deformation_identity_check(6, 0.9, 1e-3, wall)[0]
    assert math.isclose(got, deformation_lhs_exact(6, 0.9, 1e-3, wall),
                        rel_tol=1e-9)


@pytest.mark.parametrize("wall", ["absorbing", "reflecting"])
@pytest.mark.parametrize("N", [1, 8, 64, 336])
def test_half_lattice_reduces_full_lattice(N, wall):
    # P_{2k+p}(x) = x^p S_k(x^2): the half-lattice pass in y = x^2 carries
    # exactly the norms of one parity of the full mesh-1 family
    p = wm.heights._parity(wall)
    for k in (-6.0, 0.0, 4.0):
        M = rescale_M(N, k)
        half = wm.heights._half_lattice(M, p, N - 1)[2]
        full = wm.build_system(1, (1 - p) / 2, 1.0 / M**2, 2 * N - 2 + p).log_h
        np.testing.assert_array_less(
            np.abs(half - full[p::2]), 1e-14 * np.maximum(1.0, np.abs(full[p::2])))


def test_cdf_saturates_for_large_M():
    for N in (1, 3, 5):
        M = math.sqrt(2.0 * N / 0.15)
        assert wm.height_cdf(N, M, "absorbing") >= 1.0 - 1e-6
        assert wm.height_cdf(N, M, "reflecting") >= 1.0 - 1e-6


def test_frozen_oracle_values():
    # literals computed once with oracles.brute_force_height_cdf
    frozen = {
        (2, 2.5, "absorbing"): 0.98684691873363717,
        (2, 2.5, "reflecting"): 0.99802859774993358,
        (3, 3.0, "absorbing"): 0.99295143405141972,
        (3, 3.0, "reflecting"): 0.99868403510094528,
    }
    for (N, M, wall), want in frozen.items():
        assert abs(wm.height_cdf(N, M, wall) - want) < 1e-12


@settings(max_examples=25, deadline=None)
@given(N=st.integers(1, 6),
       m_lo=st.floats(1.0, 7.0),
       dm=st.floats(0.05, 2.0),
       wall=st.sampled_from(wm.heights.WALLS))
def test_cdf_shape_property(N, m_lo, dm, wall):
    # monotone up to the log-domain assembly roundoff: log P is a sum of
    # terms of magnitude ~1e2, so P carries ~1e-13 absolute noise near 1
    lo = wm.height_cdf(N, m_lo, wall)
    hi = wm.height_cdf(N, m_lo + dm, wall)
    assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
    assert hi >= lo - 1e-12


def test_cdf_monotone_in_M():
    Ms = np.linspace(1.2, 6.0, 25)
    for wall in ("absorbing", "reflecting"):
        vals = [wm.height_cdf(3, float(M), wall) for M in Ms]
        assert np.all(np.diff(vals) >= -1e-14)
        assert all(0.0 <= v <= 1.0 for v in vals)


def test_rescaled_grid_centering():
    assert rescale_M(16, 0.0) == math.sqrt(32.0)
    assert wm.rescaled_cdf(16, -10.0, "absorbing") < 0.05
    assert wm.rescaled_cdf(16, 4.0, "absorbing") > 0.9


def test_tabulate_records_k_grid():
    ks = np.linspace(-2, 2, 5)
    dist = tabulate_rescaled(8, ks, "reflecting")
    assert dist.k_values is not None and len(dist.cdf) == 5
    assert np.all(dist.cdf[:-1] <= dist.cdf[1:] + 1e-14)
    assert not np.any(dist.clamped)


def test_convergence_toward_goe_edge_small(grid):
    ks = np.linspace(-6, 4, 41)
    for wall in ("absorbing", "reflecting"):
        table = wm.convergence_study([8, 16, 32], ks, wall, grid)
        ds = [d for _, d in table]
        assert ds[1] < ds[0] and ds[2] < ds[1]


def test_walls_share_a_limit(grid):
    ks = np.linspace(-6, 4, 41)
    d_abs = wm.convergence_study([32], ks, "absorbing", grid)[0][1]
    d_ref = wm.convergence_study([32], ks, "reflecting", grid)[0][1]
    assert abs(d_abs - d_ref) < 0.5 * max(d_abs, d_ref)


@pytest.mark.parametrize("wall", ["absorbing", "reflecting"])
def test_large_N_cdf_approaches_goe_edge(wall, f1_of):
    # N >= 208 needs degrees whose Gaussian weight underflows at the edge;
    # the folded amplitude keeps the CDF near F1 and the gap shrinking
    gaps = [abs(wm.rescaled_cdf(N, 0.0, wall) - f1_of(0.0))
            for N in (176, 208, 256)]
    assert max(gaps) <= 0.05
    assert gaps[1] <= gaps[0] and gaps[2] <= gaps[1]


def test_height_past_double_range_raises():
    start = time.perf_counter()
    with pytest.raises(PrecisionError):
        wm.rescaled_cdf(352, 0.0, "absorbing")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("wall, last", [("absorbing", 336), ("reflecting", 337)])
def test_height_degree_cap_edge(wall, last):
    # degree 2N - 2 + p <= 672 (dgop.MAX_DEGREE)
    assert 0.0 < wm.rescaled_cdf(last, 0.0, wall) < 1.0
    with pytest.raises(PrecisionError):
        wm.rescaled_cdf(last + 1, 0.0, wall)


@pytest.mark.parametrize("wall", ["absorbing", "reflecting"])
def test_height_window_edge(wall):
    # at N = 64 the window of nonzero amplitudes holds fewer than N
    # half-lattice nodes below M = 3.7
    with pytest.raises(WindowError):
        wm.log_height_cdf(64, 3.6, wall)
    assert math.isfinite(wm.log_height_cdf(64, 3.7, wall))


def test_small_a_underflows_to_limit():
    # 1 - P is of order M^2 exp(-2 M^2) here, far below double resolution;
    # every record must carry the indistinguishable flag rather than a
    # roundoff-noise ratio.
    for N in (2, 8):
        recs = wm.small_a_check(N, [0.02, 0.01, 0.005])
        assert all(not r["distinguishable"] for r in recs)
        assert all(abs(r["one_minus_p"]) < 1e-15 for r in recs)


def test_small_a_verdict_scales_with_rounding():
    # log P rounds to about N^2 ulps; where the true 1 - P is below 1e-30
    # no entry may be flagged, while a measurable tail still is
    grid = np.linspace(0.002, 0.05, 40)
    for N in (1, 2, 4, 8, 16):
        assert not any(r["distinguishable"]
                       for r in wm.small_a_check(N, grid)), N
    for N in (2, 8):
        assert wm.small_a_check(N, [0.5])[0]["distinguishable"], N


def test_small_a_rejects_nonpositive_a():
    for a in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="a must be positive"):
            wm.small_a_check(2, [0.5, a])


def test_small_a_single_path_theta_tail():
    # N = 1 closed-form theta sum: same underflow verdict as the general path
    N, a = 1, 0.01
    M = math.sqrt(2.0 * N / a)
    x = np.arange(-3000, 3001, dtype=float)
    direct = (2.0 ** -0.5 * math.pi ** 2.5 / M**3
              * float(np.sum(x * x * np.exp(-math.pi**2 * x * x / (2 * M * M)))))
    rec = wm.small_a_check(N, [a])[0]
    assert abs((1.0 - direct) - rec["one_minus_p"]) < 1e-14
    assert not rec["distinguishable"]


@pytest.mark.parametrize("wall", ["absorbing", "reflecting"])
def test_deformation_identity_second_order(wall):
    d1 = wm.deformation_identity_check(6, 0.9, 1e-3, wall)[2]
    d2 = wm.deformation_identity_check(6, 0.9, 5e-4, wall)[2]
    assert 0.8 * 4.0 <= d1 / d2 <= 1.2 * 4.0


@pytest.mark.parametrize("wall", ["absorbing", "reflecting"])
def test_deformation_rhs_matches_B_products(wall):
    # even/odd telescoping on the full lattice:
    # h_{2N+p}/h_{2N+p-2} = B_{2N+p-1} B_{2N+p}
    N, a = 6, 0.9
    p = wm.heights._parity(wall)
    _, rhs, _ = wm.deformation_identity_check(N, a, 1e-3, wall)
    M = math.sqrt(2.0 * N / a)
    system = wm.build_system(1, (1 - p) / 2, 1.0 / M**2, 2 * N + p)
    prod = system.B[2 * N + p - 1] * system.B[2 * N + p]
    assert abs(rhs / ((math.pi**2 / (4 * N)) ** 2 * prod) - 1.0) < 1e-10


def test_riemann_sum_errors_below_fit_threshold():
    # The pinned analytic integrands are summed to beyond any polynomial
    # order (Poisson summation); at the spec's eps the error is roundoff,
    # and the documented cannot-fit error is the contractual outcome.
    for ens in ("LUE", "GUE"):
        with pytest.raises(OrderFitError):
            wm.riemann_sum_order(2, [0.2, 0.1, 0.05], ens)


def gue_shift_sum(N: int, eps: float) -> float:
    """eps^N sum of A_1 = -2 (sum x_j) f for the GUE integrand.

    Telescopes to zero on the symmetric lattice: the sanity check that the
    first Euler-Maclaurin correction really cancels.
    """
    x = _lattice(eps, "GUE")
    w = np.exp(-x * x)
    if N == 1:
        return float(np.sum(-2.0 * x * w)) * eps
    x1 = x[:, None]; x2 = x[None, :]
    f = (x1 - x2) ** 2 * w[:, None] * w[None, :]
    return float(np.sum(-2.0 * (x1 + x2) * f)) * eps**2


def test_riemann_shift_sum_telescopes():
    for eps in (0.2, 0.07):
        assert abs(gue_shift_sum(2, eps)) < 1e-13


def test_fourth_order_mechanism_on_boundary_degenerate_integrand():
    # Half-line left-rule sum of x^3 exp(-x^2): first two Euler-Maclaurin
    # corrections vanish (f(0) = f'(0) = f''(0) = 0) and the genuine eps^4
    # term f'''(0)/120 survives; this is the sharp version of the order-4
    # bound that the Gaussian ensemble integrands overshoot.
    exact = 0.5  # int_0^inf x^3 exp(-x^2) dx
    errs = []
    eps_list = [0.2, 0.1, 0.05]
    for eps in eps_list:
        x = np.arange(0.0, 9.0, eps)
        errs.append(abs(float(np.sum(x**3 * np.exp(-x * x))) * eps - exact))
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert 3.5 <= slope <= 4.5


def test_height_cdf_rejects_nonpositive_M():
    for M in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="M must be positive"):
            wm.height_cdf(2, M, "absorbing")


def test_riemann_lattice_bounded():
    # the sums hold arrays of the node count squared: eps = 0.001 would
    # be 16,001 GUE nodes, 2 GB per array
    for bad in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            wm.riemann_sum_order(2, [0.2, 0.1, bad], "GUE")
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            gue_shift_sum(2, bad)
    for tiny in (0.001, 1e-300, 5e-324):
        for ens in ("LUE", "GUE"):
            with pytest.raises(WindowError):
                wm.riemann_sum_order(2, [0.2, 0.1, tiny], ens)
        with pytest.raises(WindowError):
            gue_shift_sum(2, tiny)
    # the edge of the bound: 2,001 GUE and 2,000 LUE nodes pass
    assert wm.heights._lattice(0.008, "GUE").size == 2001
    assert wm.heights._lattice(0.004, "LUE").size == 2000
    for ens, eps in (("GUE", 0.0079), ("LUE", 0.00399)):
        with pytest.raises(WindowError):
            wm.heights._lattice(eps, ens)


def test_riemann_order_input_validation():
    with pytest.raises(ValueError):
        wm.riemann_sum_order(4, [0.2, 0.1, 0.05], "GUE")
    with pytest.raises(ValueError):
        wm.riemann_sum_order(2, [0.2, 0.1], "GUE")
    with pytest.raises(ValueError):
        wm.riemann_sum_order(2, [0.2, 0.1, 0.05], "XUE")
