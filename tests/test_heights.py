import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import watermelon as wm
from watermelon.errors import OrderFitError, PrecisionError
from watermelon.heights import gue_shift_sum, rescale_M, tabulate_rescaled
from watermelon.oracles import brute_force_height_cdf


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


def test_small_a_underflows_to_limit():
    # 1 - P is of order M^2 exp(-2 M^2) here, far below double resolution;
    # every record must carry the indistinguishable flag rather than a
    # roundoff-noise ratio.
    for N in (2, 8):
        recs = wm.small_a_check(N, [0.02, 0.01, 0.005])
        assert all(not r["distinguishable"] for r in recs)
        assert all(abs(r["one_minus_p"]) < 1e-15 for r in recs)


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


def test_deformation_rhs_matches_B_products():
    # even/odd telescoping: h_{2N+1}/h_{2N-1} = B_{2N} B_{2N+1}
    N, a = 6, 0.9
    _, rhs, _ = wm.deformation_identity_check(N, a, 1e-3, "absorbing")
    M = math.sqrt(2.0 * N / a)
    system = wm.build_system(1, 0.0, 1.0 / M**2, 2 * N + 1)
    prod = system.B[2 * N] * system.B[2 * N + 1]
    assert abs(rhs / ((math.pi**2 / (4 * N)) ** 2 * prod) - 1.0) < 1e-10


def test_riemann_sum_errors_below_fit_threshold():
    # The pinned analytic integrands are summed to beyond any polynomial
    # order (Poisson summation); at the spec's eps the error is roundoff,
    # and the documented cannot-fit error is the contractual outcome.
    for ens in ("LUE", "GUE"):
        with pytest.raises(OrderFitError):
            wm.riemann_sum_order(2, [0.2, 0.1, 0.05], ens)


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


def test_riemann_order_input_validation():
    with pytest.raises(ValueError):
        wm.riemann_sum_order(4, [0.2, 0.1, 0.05], "GUE")
    with pytest.raises(ValueError):
        wm.riemann_sum_order(2, [0.2, 0.1], "GUE")
    with pytest.raises(ValueError):
        wm.riemann_sum_order(2, [0.2, 0.1, 0.05], "XUE")
