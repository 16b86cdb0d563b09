import math
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import watermelon as wm
from watermelon.errors import ConvergenceError, CoverageError
from watermelon import psikernel
from watermelon.psikernel import _s_matrix, _zeta_matrix, kernel_integral_form


def theta(z, s):
    return 4.0 * z**3 / 3.0 + s * z


class FreePhase:
    """Stand-in grid with q = q' = 0: the zeta-system has the exact free
    solution (cos theta, -sin theta), and E = 1 exactly.  Like a real grid,
    it returns an array for an array."""

    def q_at(self, s):
        return np.zeros(np.shape(s))[()]

    q_prime_at = q_at

    def spline(self, name):
        assert name == "E"
        return lambda s: 1.0


def test_free_phase_exact():
    s = 1.3
    psis = wm.integrate_psi(s, FreePhase())
    z = psis.zeta_values
    assert np.max(np.abs(psis.phi1 - np.cos(theta(z, s)))) < 1e-9
    assert np.max(np.abs(psis.phi2 + np.sin(theta(z, s)))) < 1e-9


def test_free_phase_s_flow_is_exact_rotation():
    # with q = 0 the s-equation turns (cos theta, -sin theta) at d theta/ds
    # = zeta, so the Magnus s-flow is exact up to rounding
    for zeta, s0, s1, n in ((10.0, 1.0, 1.02, 10), (0.7, 2.0, -8.0, 5000)):
        start = (math.cos(theta(zeta, s0)), -math.sin(theta(zeta, s0)))
        f1, f2 = psikernel._propagate(_s_matrix(FreePhase(), zeta), s0, s1,
                                      n, start)[-1]
        assert abs(f1 - math.cos(theta(zeta, s1))) <= 1e-13
        assert abs(f2 + math.sin(theta(zeta, s1))) <= 1e-13


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
    psis = wm.integrate_psi(s, grid)

    def defect(zeta_max):
        theta = psikernel._theta(zeta_max, s)
        n = psikernel._SUBSTEPS * int(500 * zeta_max)
        f1, f2 = psikernel._propagate(
            lambda z: _zeta_matrix(z, s, psis.q_s, psis.qp_s), zeta_max, 0.0,
            n, (math.cos(theta), -math.sin(theta)))[-1]
        mid = len(psis.zeta_values) // 2
        return math.hypot(f1 - psis.phi1[mid], f2 - psis.phi2[mid])

    d10 = defect(10.0)
    d20 = defect(20.0)
    # leading-order edge data leaves an O(1/zeta_max) defect
    assert 1e-5 < d10 < 2e-2
    assert d20 < 0.7 * d10


def _swept_to(zeta_max, grid, monkeypatch):
    monkeypatch.setattr(psikernel, "DEFAULT_ZETA_MAX", zeta_max)
    return wm.integrate_psi(2.0 ** (2.0 / 3.0), grid)


def _assert_prefix(short, wide):
    offset = (len(wide.zeta_values) - len(short.zeta_values)) // 2
    inner = slice(offset, len(wide.zeta_values) - offset)
    for name in ("zeta_values", "phi1", "phi2"):
        assert np.array_equal(getattr(short, name), getattr(wide, name)[inner])


def test_zeta_max_truncation_effect_on_kernel(grid, psis_critical,
                                               monkeypatch):
    # the scale E(s)^2 does not depend on the truncation point, so the pair
    # is the prefix of a 20-unit sweep, and the kernel reads the same bits
    wide = _swept_to(20.0, grid, monkeypatch)
    _assert_prefix(psis_critical, wide)
    for u in (-1.0, 0.0, 0.5):
        for v in (-0.5, 0.25, 1.0):
            assert (wm.critical_kernel(u, v, psis_critical)
                    == wm.critical_kernel(u, v, wide))


def test_amplitude_fit_independent_of_zeta_max(grid, psis_critical,
                                               monkeypatch):
    # no amplitude is fitted any more: pairs swept to 8, 10 and 12 share
    # their bits on |zeta| <= 8 (a fitted amplitude moved the kernel by
    # 2.4e-5 relative over 8, 10 and 12)
    short = _swept_to(8.0, grid, monkeypatch)
    wide = _swept_to(12.0, grid, monkeypatch)
    _assert_prefix(short, psis_critical)
    _assert_prefix(psis_critical, wide)
    for u, v in ((0.5, -0.5), (1.0, 1.0), (-1.0, 0.5), (0.3, -0.7)):
        ref = wm.critical_kernel(u, v, psis_critical)
        for psis in (short, wide):
            assert wm.critical_kernel(u, v, psis) == ref


def _s_flow(painleve, s, zeta, start=12.0):
    """The pair at (zeta, s) by a Magnus s-flow from (cos theta, -sin theta)
    at s = start, where q is 1.4e-13 at 12."""
    th = theta(zeta, start)
    n = math.ceil((start - s) / psikernel._S_STEP)
    return psikernel._propagate(_s_matrix(painleve, zeta), start, s, n,
                                (math.cos(th), -math.sin(th)))[-1]


def test_pair_matches_s_flow_from_large_s(grid):
    # the flow into the trapped zone at s = -8 is subdominant: flows from
    # s = 10 and s = 12 differ by 1.5e-6 there, so the reference is the
    # weak side (measured 4.1e-13, 4.1e-13, 6.4e-13, 1.0e-11, 9.6e-9)
    for s, bound in ((2.0 ** (2.0 / 3.0), 1e-9), (0.0, 1e-9), (-1.5, 1e-9),
                     (-4.0, 1e-9), (-8.0, 1e-7)):
        psis = wm.integrate_psi(s, grid)
        zetas = (0.0, 0.37, 1.3, 3.1, 8.0)
        ref = np.array([_s_flow(grid, s, z) for z in zetas])
        got = np.array([psis.phi_at(z) for z in zetas])
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))
    # the kernel at L = -1 from the flowed pair (measured <= 1.0e-11)
    s = -(2.0 ** (2.0 / 3.0))
    psis = wm.integrate_psi(s, grid)
    for u, v in ((0.5, -0.5), (1.0, 0.25), (-1.0, 0.3), (0.3, -0.7)):
        (f1u, f2u), (f1v, f2v) = _s_flow(grid, s, u), _s_flow(grid, s, v)
        want = (f1u * f2v - f2u * f1v) / (math.pi * (u - v))
        assert abs(wm.critical_kernel(u, v, psis) / want - 1.0) <= 1e-9


def test_pair_between_samples_matches_s_flow(grid):
    # phi_at reads between the 0.002-spaced samples through the spline, as
    # kernel tables do at snapped points; its error grows with zeta
    # (measured at s = 2^{2/3}: 7.9e-12, 5.8e-11, 7.1e-10, 3.5e-9 of the
    # larger |pair| component; 6.9e-8 at 3.0013 and 3.1e-4 at 9.9017)
    for s in (2.0 ** (2.0 / 3.0), 0.0, -2.0):
        psis = wm.integrate_psi(s, grid)
        for zeta in (0.5011, 1.0007, 1.5009, 2.0011):
            ref = np.array(_s_flow(grid, s, zeta))
            got = np.array(psis.phi_at(zeta))
            assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_lhospital_matches_integral_form(grid):
    s, u = 1.0, 0.4
    psis = wm.integrate_psi(s, painleve=grid)
    direct = wm.critical_kernel(u, u, psis)
    integral = kernel_integral_form(u, u, psis, grid)
    assert abs(direct - integral) < 1e-3


def test_integral_form_agrees_with_closed_form(grid):
    for u, v, s in ((0.4, -0.3, 0.5), (0.4, 0.4, 1.0), (0.3, -0.2, 0.5),
                    (1.0, 0.5, -1.0), (-0.7, 0.9, 2.0)):
        psis = wm.integrate_psi(s, grid)
        integral = kernel_integral_form(u, v, psis, grid)
        assert abs(integral - wm.critical_kernel(u, v, psis)) <= 1e-7
    # at, below or just above the -8 cutoff the integral is (nearly) empty:
    # K is ~1e-12 there
    for s in (-9.0, math.nextafter(-8.0, 0.0), -7.99):
        psis = wm.integrate_psi(s, grid)
        assert 0.0 <= kernel_integral_form(0.4, 0.4, psis, grid) <= 1e-8


def _dop853(rhs, t_span, y0, tol, atol=None, t_eval=None):
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=tol,
                    atol=tol if atol is None else atol, t_eval=t_eval)
    assert sol.success, sol.message
    return sol.y


def test_magnus_matches_tight_dop853(grid):
    for s in (2.0 ** (2.0 / 3.0), -1.5):
        psis = wm.integrate_psi(s, grid)

        def rhs(z, y):
            a, b, c = _zeta_matrix(z, s, psis.q_s, psis.qp_s)
            return a * y[0] + b * y[1], c * y[0] - a * y[1]

        # outward from (1, 0), scaled by E(s)^2, on zeta <= 8 of the
        # half-mesh
        mid = len(psis.zeta_values) // 2
        inner = slice(mid, mid + 4001)
        y = _dop853(rhs, (0.0, 8.0), [1.0, 0.0], 1e-13,
                    t_eval=psis.zeta_values[inner])
        y *= grid.spline("E")(s) ** 2
        assert np.max(np.abs(psis.phi1[inner] - y[0])) <= 3e-11
        assert np.max(np.abs(psis.phi2[inner] - y[1])) <= 3e-11
        # inward from leading-order edge data at zeta = 10, read at the
        # compatibility check's mesh points: 4.9e-12 and 1.7e-11 off; with
        # the step read off the mesh instead of the span, 1.6e-9 and 5.1e-9
        theta = psikernel._theta(10.0, s)
        edge = (math.cos(theta), -math.sin(theta))
        spots = (1.7, 0.9, 0.3)
        path = psikernel._propagate(
            lambda z: _zeta_matrix(z, s, psis.q_s, psis.qp_s), 10.0, 0.0,
            20000, edge)
        got = np.array([path[round((10.0 - z) * 2000)] for z in spots])
        y = _dop853(rhs, (10.0, 0.0), edge, 2.3e-14, t_eval=spots)
        assert np.max(np.abs(got - y.T)) <= 5e-11
    # the two Magnus s-flows and the spline quadrature of the integral form
    # against one DOP853 flow of both pairs and the running integral:
    # <= 7.2e-13 apart (the former DOP853 flow at rtol 1e-10, 3.0e-12)
    lower = max(grid.s_min, -8.0)
    for u, v, s in ((0.4, -0.3, 0.5), (0.4, 0.4, 1.0), (0.3, -0.2, 0.5),
                    (1.0, 0.5, -1.0), (-0.7, 0.9, 2.0)):
        psis = wm.integrate_psi(s, grid)

        def rhs(xi, y):
            q = grid.q_at(xi)
            return (q * y[0] + u * y[1], -u * y[0] - q * y[1],
                    q * y[2] + v * y[3], -v * y[2] - q * y[3],
                    -(y[0] * y[2] + y[1] * y[3]))

        y = _dop853(rhs, (s, lower), [*psis.phi_at(u), *psis.phi_at(v), 0.0],
                    1e-13, atol=1e-15)
        assert abs(kernel_integral_form(u, v, psis, grid) - y[4, -1] / math.pi) <= 2e-12


def test_non_finite_zeta_matrix_raises():
    class Huge:
        """Stand-in grid whose q = q' = 1e200 overflows the zeta-matrix."""

        def q_at(self, s):
            return np.full(np.shape(s), 1e200)[()]

        q_prime_at = q_at

    class HugeSlope(FreePhase):
        """q = 0 keeps the compatibility check's edge flows finite, and
        q' = 1e200 overflows its inward sweeps."""

        def q_prime_at(self, s):
            return np.full(np.shape(s), 1e200)[()]

    class HugeOffCenter(FreePhase):
        """q = q' = 0 at s = 1 keeps the zeta-sweep there finite, and
        q = 1e200 everywhere else overflows the s-flows from s = 1."""

        def q_at(self, s):
            return np.where(np.asarray(s) == 1.0, 0.0, 1e200)[()]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run, where in (
                (lambda: wm.integrate_psi(1.0, Huge()), "0.0 to 10.0"),
                (lambda: wm.compatibility_defect(1.0, 0.02, HugeSlope()),
                 "10.0 to 0.0"),
                (lambda: kernel_integral_form(
                    0.4, 0.4, wm.integrate_psi(1.0, HugeOffCenter()),
                    HugeOffCenter()), "1.0 to -8.0"),
                (lambda: wm.compatibility_defect(1.0, 0.02, HugeOffCenter()),
                 "1.0 to 1.02")):
            with pytest.raises(ConvergenceError, match=f"from {where} is"):
                run()


def test_kernel_matrix_rejects_coincident_points(psis_critical):
    # off-diagonal points closer than 1e-6 would divide by ~0; they raise
    # before any warning, and points 1e-6 apart are still served
    for points in ([0.1, 0.1, 0.3], [0.1, 0.3, 0.1 + 5e-7]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="1e-6 apart"):
                psikernel.critical_kernel_matrix(points, psis_critical)
    K = psikernel.critical_kernel_matrix([0.1, 0.1 + 2e-6], psis_critical)
    assert np.all(np.isfinite(K))


def test_cross_derivative_compatibility(grid):
    d_02 = wm.compatibility_defect(1.0, 0.02, grid)
    d_01 = wm.compatibility_defect(1.0, 0.01, grid)
    assert 0.8 * 4.0 <= d_02 / d_01 <= 1.2 * 4.0


def test_coverage_and_precondition_errors(grid):
    psis = wm.integrate_psi(1.0, painleve=grid)
    with pytest.raises(CoverageError):
        psis.phi_at(11.0)
    for delta in (0.0, -0.02, float("nan")):
        with pytest.raises(ValueError):
            wm.compatibility_defect(1.0, delta, grid)
    # the edge flows' span is checked before any mesh is sized from it
    for delta in (1e3, 1e12, float("inf")):
        with pytest.raises(CoverageError, match=r"^s=\S+ outside grid"):
            wm.compatibility_defect(1.0, delta, grid)
    with pytest.raises(CoverageError):
        wm.integrate_psi(grid.s_max + 1.0, painleve=grid)
    with pytest.raises(CoverageError):
        wm.integrate_psi(float("nan"), painleve=grid)


def test_parallel_construction_matches_serial(grid):
    svals = (0.5, 1.5)
    serial = [wm.integrate_psi(s, grid) for s in svals]
    with ThreadPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(
            lambda s: wm.integrate_psi(s, grid), svals))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.phi1, b.phi1)
        assert np.array_equal(a.phi2, b.phi2)


def test_s_flows_load_no_scipy(cli_env):
    code = ("import sys, watermelon as wm; grid = wm.build_grid(); "
            "wm.kernel_integral_form(0.4, 0.4, wm.integrate_psi(1.0, grid), grid); "
            "wm.compatibility_defect(1.0, 0.02, grid); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_nan_arguments_raise(psis_critical):
    nan = float("nan")
    with pytest.raises(CoverageError):
        psis_critical.phi_at(nan)
    with pytest.raises(CoverageError):
        wm.critical_kernel(nan, 0.3, psis_critical)
