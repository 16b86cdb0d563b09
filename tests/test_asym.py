import math

import numpy as np
import pytest

import watermelon as wm
from watermelon import asym
from watermelon.asym import KERNEL_SCALE_C, t_prime
from watermelon.errors import CoverageError
from reference import stieltjes_keeping_phi, stirling_series


class TestScalingVariable:
    def test_critical_point(self):
        assert wm.s_of_a(1.0, 50) == 0.0

    def test_edge_scaling_limit(self):
        n = 10**6
        a = 1.0 - n ** (-2.0 / 3.0)
        assert abs(wm.s_of_a(a, n) - 2.0 ** (2.0 / 3.0)) < 1e-3

    def test_branch_series_consistency(self):
        for d in (2e-3, -2e-3):
            a = 1.0 - d
            formula = wm.s_of_a(a, 100)
            series = 2 ** (2 / 3) * 100 ** (2 / 3) * (
                d + 0.8 * d * d + (122.0 / 175.0) * d**3)
            assert abs(formula / series - 1.0) < 1e-8

    def test_sign_and_monotonicity(self):
        n = 64
        vals = [wm.s_of_a(a, n) for a in (0.9, 0.95, 1.0, 1.05, 1.1)]
        assert vals[0] > vals[1] > vals[2] == 0.0 > vals[3] > vals[4]
        with pytest.raises(CoverageError):
            wm.s_of_a(2.5, 10)

    def test_nonpositive_n_rejected(self, grid, psis_critical):
        # n^{2/3} at n = 0 or -8 is 0 or complex: no scaling variable exists
        for n in (0, -8):
            with pytest.raises(ValueError, match="n must be >= 1"):
                wm.s_of_a(0.9, n)
            with pytest.raises(ValueError, match="n must be >= 1"):
                wm.free_energy_comparison(n, 1.0, grid)
            with pytest.raises(ValueError, match="n must be >= 1"):
                wm.kernel_limit_table(n, 1.0, [0.5], [0.5], grid, psis_critical)


def t_u(n, alpha, s, grid):
    return asym._t_u(n, alpha, grid.q_at(s), grid.q_prime_at(s), grid.R_at(s))


class TestExpansionCoefficients:
    def test_alpha_zero_even_n(self, grid):
        s = 0.5
        assert math.isclose(t_u(4, 0.0, s, grid)[0],
                            grid.R_at(s) - grid.q_at(s), rel_tol=1e-14)

    def test_alpha_half_specialization(self, grid):
        s, n = 0.5, 7
        want = grid.R_at(s) ** 2 + (-1) ** n * (
            grid.q_prime_at(s) + 2 * grid.q_at(s) * grid.R_at(s))
        assert math.isclose(t_u(n, 0.5, s, grid)[1], want, rel_tol=1e-13)

    def test_alpha_quarter_specialization(self, grid):
        # cos(2 pi/4) = 0, sin^2 = 1: T = R, U = R^2 - q^2 for every n
        s = -0.6
        for n in (9, 10):
            assert math.isclose(t_u(n, 0.25, s, grid)[0], grid.R_at(s),
                                rel_tol=1e-13)
            want = grid.R_at(s) ** 2 - grid.q_at(s) ** 2
            assert math.isclose(t_u(n, 0.25, s, grid)[1], want, rel_tol=1e-12)

    def test_u_minus_t_squared_is_t_prime(self, grid):
        h = 1e-3
        for n, alpha, s in ((10, 0.0, 0.4), (11, 0.25, -0.8), (12, 0.5, 1.3)):
            lhs = t_u(n, alpha, s, grid)[1] - t_u(n, alpha, s, grid)[0] ** 2
            assert abs(lhs - t_prime(n, alpha, s, grid)) < 1e-10
            fd = (t_u(n, alpha, s + h, grid)[0]
                  - t_u(n, alpha, s - h, grid)[0]) / (2 * h)
            assert abs(fd - t_prime(n, alpha, s, grid)) < 5e-6

    def test_t_prime_finite_at_critical(self, grid):
        for n in (10, 11):
            want = -grid.q_at(0.0) ** 2 - (-1) ** n * grid.q_prime_at(0.0)
            assert math.isclose(t_prime(n, 0.0, 0.0, grid), want, rel_tol=1e-14)
            assert math.isfinite(want)


class TestNormAsymptotics:
    def test_h_nn_error_halves(self, grid):
        errs = []
        for n in (32, 64):
            a = 1.0 - 1.0 * n ** (-2.0 / 3.0)
            system = wm.build_system(n, 0.0, a, n)
            pred, _ = wm.asymptotic_h(n, 0.0, a, grid)
            errs.append(abs(math.expm1(system.log_h[n] - pred)))
        assert 0.3 <= errs[1] / errs[0] <= 0.8

    def test_inverse_line_error_halves(self, grid):
        errs = []
        for n in (32, 64):
            a = 1.0 - 1.0 * n ** (-2.0 / 3.0)
            system = wm.build_system(n, 0.0, a, n)
            _, pred_inv = wm.asymptotic_h(n, 0.0, a, grid)
            errs.append(abs(math.expm1(-system.log_h[n - 1] - pred_inv)))
        assert 0.3 <= errs[1] / errs[0] <= 0.8

    def test_A_asymptotics(self, grid):
        assert wm.asymptotic_A(10, 0.0, 1.0, grid) == 0.0
        v_even = wm.asymptotic_A(64, 0.25, 1.0, grid)
        v_odd = wm.asymptotic_A(65, 0.25, 1.0, grid)
        assert v_even * v_odd < 0.0
        errs = []
        for n in (64, 128):
            system = wm.build_system(n, 0.25, 1.0, n)
            errs.append(abs(system.A[n - 1] / wm.asymptotic_A(n, 0.25, 1.0, grid) - 1.0))
        assert errs[1] < errs[0]

    def test_ratio_formulas_match_exact(self, grid):
        n, a = 64, 1.0
        pred_minus, pred_plus = wm.ratio_asymptotics(n, 0.0, a, grid)
        exact_minus, exact_plus = wm.exact_h_ratios(n, 0.0, a)
        assert abs(exact_minus / pred_minus - 1.0) < 10.0 / n
        assert abs(exact_plus / pred_plus - 1.0) < 10.0 / n

    def test_ratio_consistent_with_composed_h(self, grid):
        # composing the norm expansion across (n-1, a xi_-) reproduces the
        # ratio formula to O(1/n)
        n, a = 64, 1.0
        xi_m = 1.0 - 1.0 / n
        log_h_nn, _ = wm.asymptotic_h(n, 0.0, a, grid)
        _, log_inv_other = wm.asymptotic_h(n - 1, 0.0, a * xi_m, grid)
        # log_inv_other predicts 1/h_{n-1,n-2}(a xi_-)
        composed = math.exp(log_h_nn + log_inv_other)
        direct, _ = wm.ratio_asymptotics(n, 0.0, a, grid)
        assert abs(composed / direct - 1.0) < 5.0 / n

    def test_outside_painleve_grid_raises(self, grid):
        # a = 2 puts s(a; 672) near -69.2, below the grid; the grid's own
        # check raises on the first q/R read
        with pytest.raises(CoverageError):
            wm.asymptotic_h(672, 0.0, 2.0, grid)


class TestSubcritical:
    def test_norm_lines_at_tenth_scale(self):
        n, a = 40, 0.5
        system = wm.build_system(n, 0.25, a, n)
        pred = wm.subcritical_h(n, a)
        bound = 10.0 * n ** (-4.0)
        assert abs(math.expm1(system.log_h[n] - pred["log_h_nn"])) <= bound
        assert abs(math.expm1(-system.log_h[n - 1] - pred["log_inv_h_nnm1"])) <= bound

    def test_recurrence_A_exponentially_small(self):
        system = wm.build_system(40, 0.25, 0.5, 40)
        assert np.max(np.abs(system.A)) <= 1e-10

    def test_stirling_oracle_reproduces_series(self):
        for n in (20, 40):
            series = 1 + 1 / (12 * n) + 1 / (288 * n**2) - 139 / (51840 * n**3)
            assert abs(stirling_series(n) / series - 1.0) < 5.0 * n ** (-4.0)

    def test_matches_continuous_hermite_norms(self):
        n, a = 40, 0.5
        pred = wm.subcritical_h(n, a)
        assert abs(pred["log_h_nn"] - pred["log_hermite_n"]) < 1e-9
        assert abs(-pred["log_inv_h_nnm1"] - pred["log_hermite_nm1"]) < 1e-9

    def test_regime_gate(self):
        with pytest.raises(CoverageError):
            wm.subcritical_h(40, 1.0)
        with pytest.raises(ValueError, match="n must be"):
            wm.subcritical_h(0, 0.5)
        for a in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="a must be positive"):
                wm.subcritical_h(10, a)


class TestFreeEnergyTheorem:
    def test_critical_point_residual_small(self, grid):
        assert wm.free_energy_comparison(32, 0.0, grid)["residual"] < 1e-2

    @pytest.mark.parametrize("L", [-1.0, 1.0])
    def test_residual_decreases(self, grid, L):
        r32 = wm.free_energy_comparison(32, L, grid)["residual"]
        r64 = wm.free_energy_comparison(64, L, grid)["residual"]
        assert r64 < r32 < 1e-2


class TestKernelLimit:
    def test_table_symmetry_and_structure(self, grid, psis_critical):
        rows, skipped = wm.kernel_limit_table(
            64, 1.0, [0.5, -0.5], [0.5, -0.5], grid, psis_critical)
        assert not skipped
        by_pair = {(r["k_n"], r["m_n"]): r for r in rows}
        for (k, m), r in by_pair.items():
            mirror = by_pair[(m, k)]
            assert math.isclose(r["exact"], mirror["exact"], rel_tol=1e-12)
        diag = [r for r in rows if r["diagonal"]]
        assert all(r["exact"] >= 0.0 for r in diag)
        # the grids may be any iterables, generators included
        assert wm.kernel_limit_table(64, 1.0, iter([0.5, -0.5]), iter([0.5, -0.5]),
                                     grid, psis_critical) == (rows, skipped)

    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    @pytest.mark.parametrize("u_grid, v_grid", [
        ((0.5, -0.5, 1.0, -1.0), (0.5, -0.5, 1.0, -1.0)),
        ((0.5, -0.5), (0.5,)), ((0.5,), (0.5,)), ((0.01,), (0.02,))],
        ids=["four-node", "two-node", "one-node", "all-skipped"])
    def test_entries_match_phi_keeping_pass(self, grid, psis_critical,
                                            u_grid, v_grid, alpha):
        n = 128
        rows, skipped = wm.kernel_limit_table(n, 1.0, u_grid, v_grid, grid,
                                              psis_critical, alpha)
        assert len(rows) + len(skipped) == len(u_grid) * len(v_grid)
        system = wm.build_system(n, alpha, 1.0 - n ** (-2.0 / 3.0), n)
        phi = stieltjes_keeping_phi(system.nodes, system.amplitudes, n)[3]
        scale = n ** (2.0 / 3.0) / KERNEL_SCALE_C
        for r in rows:
            i = system.node_index((r["k_n"] - alpha) / n)
            j = system.node_index((r["m_n"] - alpha) / n)
            kn = float(phi[:n, i] @ phi[:n, j])
            sign = (-1.0) ** (r["k_n"] + r["m_n"] + 1)
            assert r["exact"] == (scale * (1.0 - kn) if r["diagonal"]
                                  else sign * scale * kn)

    def test_psi_pair_must_match_L(self, grid, psis_critical):
        # the pair at s = 2^{2/3} serves L = 1 only; at L = 0.5 the limit
        # column would be read at the wrong s
        for L in (0.5, -1.0):
            with pytest.raises(ValueError, match=r"not 2\^\(2/3\) L"):
                wm.kernel_limit_table(64, L, [0.5], [0.5], grid, psis_critical)
        rows, _ = wm.kernel_limit_table(64, 1.0 + 1e-13, [0.5], [0.5], grid,
                                        psis_critical)
        assert len(rows) == 1

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_point_rejected(self, grid, psis_critical, bad):
        # inf overflowed round() and NaN failed in it, both untyped
        for u_grid, v_grid in (([bad], [0.5]), ([0.5], [0.5, bad])):
            with pytest.raises(ValueError, match="u and v must be finite"):
                wm.kernel_limit_table(64, 1.0, u_grid, v_grid, grid,
                                      psis_critical)

    def test_L_with_nonpositive_a_rejected(self, grid, psis_critical):
        # a = 1 - L n^{-2/3} is -0.25 at (8, 5): both comparisons name L
        with pytest.raises(ValueError, match="L too large; a nonpositive"):
            wm.free_energy_comparison(8, 5.0, grid)
        with pytest.raises(ValueError, match="L too large; a nonpositive"):
            wm.kernel_limit_table(8, 5.0, [0.5], [0.5], grid, psis_critical)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_L_rejected(self, grid, psis_critical, bad):
        # NaN and -inf made a NaN or infinite a, which the lattice blamed
        with pytest.raises(ValueError, match="L must be finite"):
            wm.free_energy_comparison(8, bad, grid)
        with pytest.raises(ValueError, match="L must be finite"):
            wm.kernel_limit_table(64, bad, [0.5], [0.5], grid, psis_critical)

    def test_collision_reported(self, grid, psis_critical):
        rows, skipped = wm.kernel_limit_table(
            64, 1.0, [0.01], [0.02], grid, psis_critical)
        assert skipped == [(0.01, 0.02)]
        assert not rows
