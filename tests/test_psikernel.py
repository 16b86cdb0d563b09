import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import watermelon as wm
from watermelon.errors import ConvergenceError, CoverageError
from watermelon import psikernel
from watermelon.psikernel import kernel_integral_form


def theta(z, s):
    return 4.0 * z**3 / 3.0 + s * z


class FreePhase:
    """Stand-in grid with q = q' = 0: the zeta-system has the exact free
    solution (cos theta, -sin theta)."""

    def q_at(self, s):
        return 0.0

    q_prime_at = q_at


def test_free_phase_exact():
    s = 1.3
    psis = wm.integrate_psi(s, FreePhase())
    z = psis.zeta_values
    assert np.max(np.abs(psis.phi1 - np.cos(theta(z, s)))) < 1e-9
    assert np.max(np.abs(psis.phi2 + np.sin(theta(z, s)))) < 1e-9


def test_free_phase_kernel_is_sine_kernel():
    s = 0.7
    psis = wm.integrate_psi(s, FreePhase())
    for u, v in ((0.3, -0.7), (0.5, 0.25), (-1.0, 0.1)):
        want = math.sin(theta(u, s) - theta(v, s)) / (math.pi * (u - v))
        assert abs(wm.critical_kernel(u, v, psis) - want) < 1e-10


def test_parity_exact_by_construction(grid):
    psis = wm.integrate_psi(1.0, painleve=grid)
    assert np.array_equal(psis.phi1, psis.phi1[::-1])
    assert np.array_equal(psis.phi2, -psis.phi2[::-1])
    mid = len(psis.zeta_values) // 2
    assert psis.phi2[mid] == 0.0


def test_kernel_symmetry_and_diagonal_positivity(psis_critical):
    assert (wm.critical_kernel(0.3, -0.7, psis_critical)
            == wm.critical_kernel(-0.7, 0.3, psis_critical))
    for u in np.linspace(-2.0, 2.0, 21):
        assert wm.critical_kernel(float(u), float(u), psis_critical) >= 0.0


def test_validation_sweep_defect_scales_like_inverse_zeta_max(grid):
    # the inward sweep from leading-order data (cos theta, -sin theta) at
    # +zeta_max, against the parity solution at zeta = 0
    s = 2.0 ** (2.0 / 3.0)

    def defect(zeta_max):
        psis = wm.integrate_psi(s, zeta_max=zeta_max, painleve=grid)
        theta = psikernel._theta(zeta_max, s)
        n = psikernel._SUBSTEPS * int(500 * zeta_max)
        f1, f2 = psikernel._propagate(s, psis.q_s, psis.qp_s, zeta_max, 0.0,
                                      n, (math.cos(theta), -math.sin(theta)))[-1]
        mid = len(psis.zeta_values) // 2
        return math.hypot(f1 - psis.phi1[mid], f2 - psis.phi2[mid])

    d10 = defect(10.0)
    d20 = defect(20.0)
    # leading-order edge data leaves an O(1/zeta_max) defect
    assert 1e-5 < d10 < 2e-2
    assert d20 < 0.7 * d10


def test_zeta_max_truncation_effect_on_kernel(grid, psis_critical):
    s = 2.0 ** (2.0 / 3.0)
    wide = wm.integrate_psi(s, zeta_max=20.0, painleve=grid)
    worst = max(abs(wm.critical_kernel(u, v, psis_critical)
                    - wm.critical_kernel(u, v, wide))
                for u in (-1.0, 0.0, 0.5) for v in (-0.5, 0.25, 1.0))
    assert worst < 5e-3


def test_amplitude_fit_independent_of_zeta_max(grid, psis_critical):
    # the amplitude is fitted at infinity, so the truncation point moves the
    # kernel by far less than the O(q/(2 zeta_max)) oscillation of an
    # amplitude pinned at zeta_max (5.2e-3 relative over 8, 10, 12)
    s = 2.0 ** (2.0 / 3.0)
    others = [wm.integrate_psi(s, zeta_max=z, painleve=grid) for z in (8.0, 12.0)]
    for u, v in ((0.5, -0.5), (1.0, 1.0), (-1.0, 0.5), (0.3, -0.7)):
        ref = wm.critical_kernel(u, v, psis_critical)
        for psis in others:
            assert abs(wm.critical_kernel(u, v, psis) / ref - 1.0) <= 1e-4


def test_lhospital_matches_integral_form(grid):
    s, u = 1.0, 0.4
    psis = wm.integrate_psi(s, painleve=grid)
    direct = wm.critical_kernel(u, u, psis)
    integral = kernel_integral_form(u, u, s, grid, zeta_max=12.0)
    assert abs(direct - integral) < 1e-3


def test_integral_form_agrees_with_closed_form(grid):
    for u, v, s in ((0.4, -0.3, 0.5), (0.4, 0.4, 1.0), (0.3, -0.2, 0.5),
                    (1.0, 0.5, -1.0), (-0.7, 0.9, 2.0)):
        psis = wm.integrate_psi(s, grid, zeta_max=8)
        integral = kernel_integral_form(u, v, s, grid)
        assert abs(integral - wm.critical_kernel(u, v, psis)) <= 1e-7
    # at or below the -8 cutoff the integral is empty: K is ~1e-12 there
    assert 0.0 <= kernel_integral_form(0.4, 0.4, -9.0, grid) <= 1e-8


def test_ode_solve_counts(grid, monkeypatch):
    # the zeta-solve is the Magnus propagator, so the integral form's one
    # DOP853 solve is its s-flow, not one zeta-solve per xi-node, and the
    # compatibility check's two are its edge flows, not its three sweeps
    real = psikernel.solve_ivp

    def counting(*args, **kwargs):
        counting.calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(psikernel, "solve_ivp", counting)
    for run, calls in ((lambda: wm.integrate_psi(1.0, grid), 0),
                       (lambda: kernel_integral_form(0.4, 0.4, 1.0, grid), 1),
                       (lambda: wm.compatibility_defect(1.0, 0.02, grid), 2)):
        counting.calls = 0
        run()
        assert counting.calls == calls


def test_magnus_matches_tight_dop853(grid):
    for s in (2.0 ** (2.0 / 3.0), -1.5):
        psis = wm.integrate_psi(s, grid, zeta_max=8)
        rhs = psikernel._zeta_rhs(s, psis.q_s, psis.qp_s)
        # outward from (1, 0): both pairs scaled by their own fitted
        # amplitude, on the half-mesh
        half = psis.zeta_values[len(psis.zeta_values) // 2:]
        sol = psikernel._solve(rhs, (0.0, 8.0), [1.0, 0.0], rtol=1e-13,
                               atol=1e-13, t_eval=half)
        amp = math.sqrt(psikernel._asymptotic_mean_square(half, *sol.y, s))
        mid = len(half) - 1
        assert np.max(np.abs(psis.phi1[mid:] - sol.y[0] / amp)) <= 3e-11
        assert np.max(np.abs(psis.phi2[mid:] - sol.y[1] / amp)) <= 3e-11
        # inward from leading-order edge data at zeta = 10, read at the
        # compatibility check's mesh points: 4.9e-12 and 1.7e-11 off; with
        # the step read off the mesh instead of the span, 1.6e-9 and 5.1e-9
        theta = psikernel._theta(10.0, s)
        edge = (math.cos(theta), -math.sin(theta))
        spots = (1.7, 0.9, 0.3)
        path = psikernel._propagate(s, psis.q_s, psis.qp_s, 10.0, 0.0, 20000,
                                    edge)
        got = np.array([path[round((10.0 - z) * 2000)] for z in spots])
        sol = psikernel._solve(rhs, (10.0, 0.0), edge, rtol=2.3e-14,
                               atol=2.3e-14, t_eval=spots)
        assert np.max(np.abs(got - sol.y.T)) <= 5e-11


def test_non_finite_zeta_matrix_raises():
    class Huge:
        """Stand-in grid whose q = q' = 1e200 overflows the zeta-matrix."""

        def q_at(self, s):
            return 1e200

        q_prime_at = q_at

    class HugeSlope(FreePhase):
        """q = 0 keeps the compatibility check's edge flows finite, and
        q' = 1e200 overflows its inward sweeps."""

        def q_prime_at(self, s):
            return 1e200

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: wm.integrate_psi(1.0, Huge()),
                    lambda: wm.compatibility_defect(1.0, 0.02, HugeSlope())):
            with pytest.raises(ConvergenceError):
                run()


def test_cross_derivative_compatibility(grid):
    d_02 = wm.compatibility_defect(1.0, 0.02, grid)
    d_01 = wm.compatibility_defect(1.0, 0.01, grid)
    assert 0.8 * 4.0 <= d_02 / d_01 <= 1.2 * 4.0


def test_coverage_and_precondition_errors(grid):
    psis = wm.integrate_psi(1.0, painleve=grid)
    with pytest.raises(CoverageError):
        psis.phi_at(11.0)
    for zeta_max in (5.0, 65.0, 1e9, float("inf")):
        with pytest.raises(ValueError):
            wm.integrate_psi(1.0, zeta_max=zeta_max, painleve=grid)
    with pytest.raises(ValueError):
        kernel_integral_form(0.4, 0.4, 1.0, grid, zeta_max=float("inf"))
    for delta in (0.0, -0.02, float("nan")):
        with pytest.raises(ValueError):
            wm.compatibility_defect(1.0, delta, grid)
    with pytest.raises(CoverageError):
        wm.integrate_psi(grid.s_max + 1.0, painleve=grid)
    with pytest.raises(CoverageError):
        wm.integrate_psi(float("nan"), painleve=grid)


def test_parallel_construction_matches_serial(grid):
    svals = (0.5, 1.5)
    serial = [wm.integrate_psi(s, zeta_max=8.0, painleve=grid)
              for s in svals]
    with ThreadPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(
            lambda s: wm.integrate_psi(s, zeta_max=8.0, painleve=grid),
            svals))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.phi1, b.phi1)
        assert np.array_equal(a.phi2, b.phi2)


def test_failed_ode_solve_raises(grid, monkeypatch):
    # a failed solve returns a partial trajectory, whose last point would
    # otherwise be read as the endpoint value; the integral form's s-flow is
    # its only solve, so it fails from the first call, the compatibility
    # check from the second, its edge flow down to s_center - delta
    real = psikernel.solve_ivp

    def failing(*args, **kwargs):
        failing.calls += 1
        sol = real(*args, **kwargs)
        if failing.calls > failing.good:
            sol.success = False
            sol.message = "injected failure"
        return sol

    for good, run in ((0, lambda: kernel_integral_form(0.4, 0.4, 1.0, grid)),
                      (1, lambda: wm.compatibility_defect(1.0, 0.02, grid))):
        failing.calls = 0
        failing.good = good
        monkeypatch.setattr(psikernel, "solve_ivp", failing)
        with pytest.raises(ConvergenceError):
            run()
        monkeypatch.undo()


def test_nan_arguments_raise(grid, psis_critical):
    nan = float("nan")
    with pytest.raises(CoverageError):
        psis_critical.phi_at(nan)
    with pytest.raises(CoverageError):
        wm.critical_kernel(nan, 0.3, psis_critical)
    with pytest.raises(ValueError):
        wm.integrate_psi(1.0, zeta_max=nan, painleve=grid)
