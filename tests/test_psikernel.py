import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import watermelon as wm
from watermelon.errors import ConvergenceError, CoverageError
from watermelon import psikernel
from watermelon.psikernel import kernel_integral_form, psi_table


def theta(z, s):
    return 4.0 * z**3 / 3.0 + s * z


def test_free_phase_exact():
    s = 1.3
    psis = wm.integrate_psi(s, coeffs=(0.0, 0.0), rtol=1e-13)
    z = psis.zeta_values
    assert np.max(np.abs(psis.phi1 - np.cos(theta(z, s)))) < 1e-9
    assert np.max(np.abs(psis.phi2 + np.sin(theta(z, s)))) < 1e-9


def test_free_phase_kernel_is_sine_kernel():
    s = 0.7
    psis = wm.integrate_psi(s, coeffs=(0.0, 0.0), rtol=1e-13)
    for u, v in ((0.3, -0.7), (0.5, 0.25), (-1.0, 0.1)):
        want = math.sin(theta(u, s) - theta(v, s)) / (math.pi * (u - v))
        assert abs(wm.critical_kernel(u, v, psis) - want) < 1e-10


def test_parity_exact_by_construction(grid):
    psis = wm.integrate_psi(1.0, painleve=grid)
    assert np.array_equal(psis.phi1, psis.phi1[::-1])
    assert np.array_equal(psis.phi2, -psis.phi2[::-1])
    mid = len(psis.zeta_values) // 2
    assert psis.phi2[mid] == 0.0


def test_edge_amplitude_normalized(grid):
    psis = wm.integrate_psi(1.0, painleve=grid)
    assert abs(psis.edge_amplitude() - 1.0) < 1e-6
    assert abs(math.hypot(psis.phi1[0], psis.phi2[0]) - 1.0) < 1e-6


def test_kernel_symmetry_and_diagonal_positivity(psis_critical):
    assert (wm.critical_kernel(0.3, -0.7, psis_critical)
            == wm.critical_kernel(-0.7, 0.3, psis_critical))
    for u in np.linspace(-2.0, 2.0, 21):
        assert wm.critical_kernel(float(u), float(u), psis_critical) >= 0.0


def test_validation_sweep_defect_scales_like_inverse_zeta_max(grid):
    s = 2.0 ** (2.0 / 3.0)
    d10 = wm.integrate_psi(s, painleve=grid, validate=True).match_defect
    d20 = wm.integrate_psi(s, zeta_max=20.0, mesh=8001, painleve=grid,
                           validate=True).match_defect
    # leading-order edge data leaves an O(1/zeta_max) defect
    assert 1e-5 < d10 < 2e-2
    assert d20 < 0.7 * d10
    with pytest.raises(ConvergenceError):
        wm.integrate_psi(s, painleve=grid, validate=True, match_tol=1e-9)


def test_zeta_max_truncation_effect_on_kernel(grid, psis_critical):
    s = 2.0 ** (2.0 / 3.0)
    wide = wm.integrate_psi(s, zeta_max=20.0, mesh=8001, painleve=grid)
    worst = max(abs(wm.critical_kernel(u, v, psis_critical)
                    - wm.critical_kernel(u, v, wide))
                for u in (-1.0, 0.0, 0.5) for v in (-0.5, 0.25, 1.0))
    assert worst < 5e-3


def test_lhospital_matches_integral_form(grid):
    # both sides under the de-biased normalization; the edge-pinned one
    # carries an O(q/(2 zeta_max)) amplitude bias that exceeds 1e-3 here
    s, u = 1.0, 0.4
    psis = wm.integrate_psi(s, painleve=grid, normalization="mean")
    direct = wm.critical_kernel(u, u, psis)
    integral = kernel_integral_form(u, u, s, grid, zeta_max=12.0)
    assert abs(direct - integral) < 1e-3


def test_cross_derivative_compatibility(grid):
    d_02 = wm.compatibility_defect(1.0, 0.02, grid)
    d_01 = wm.compatibility_defect(1.0, 0.01, grid)
    assert 0.8 * 4.0 <= d_02 / d_01 <= 1.2 * 4.0


def test_coverage_and_precondition_errors(grid):
    psis = wm.integrate_psi(1.0, painleve=grid)
    with pytest.raises(CoverageError):
        psis.phi_at(11.0)
    with pytest.raises(ValueError):
        wm.integrate_psi(1.0, zeta_max=5.0, painleve=grid)
    with pytest.raises(ValueError):
        wm.integrate_psi(1.0, mesh=100, painleve=grid)
    with pytest.raises(CoverageError):
        wm.integrate_psi(grid.s_max + 1.0, painleve=grid)
    with pytest.raises(CoverageError):
        wm.integrate_psi(float("nan"), painleve=grid)
    with pytest.raises(ValueError):
        wm.integrate_psi(1.0)


def test_parallel_construction_matches_serial(grid):
    svals = (0.5, 1.5)
    serial = [wm.integrate_psi(s, zeta_max=8.0, mesh=2001, painleve=grid)
              for s in svals]
    with ThreadPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(
            lambda s: wm.integrate_psi(s, zeta_max=8.0, mesh=2001, painleve=grid),
            svals))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.phi1, b.phi1)
        assert np.array_equal(a.phi2, b.phi2)


def test_psi_table_rows(grid):
    from watermelon.tableio import to_csv

    psis = wm.integrate_psi(1.0, zeta_max=8.0, mesh=2001, painleve=grid)
    table = psi_table(psis)
    text = to_csv(table)
    assert text.startswith("# psi v1 s=1 zeta_max=8")
    assert table.columns == ("zeta", "phi1", "phi2")
    assert len(table.rows) == len(psis.zeta_values)


def test_failed_ode_solve_raises(grid, monkeypatch):
    # every solve after the first reports failure with a partial trajectory,
    # whose last point would otherwise be read as the endpoint value
    real = psikernel.solve_ivp

    def failing(*args, **kwargs):
        failing.calls += 1
        sol = real(*args, **kwargs)
        if failing.calls > 1:
            sol.success = False
            sol.message = "injected failure"
        return sol

    for run in (lambda: wm.integrate_psi(1.0, zeta_max=8.0, mesh=2001,
                                         painleve=grid, validate=True),
                lambda: wm.compatibility_defect(1.0, 0.02, grid)):
        failing.calls = 0
        monkeypatch.setattr(psikernel, "solve_ivp", failing)
        with pytest.raises(ConvergenceError):
            run()
        monkeypatch.undo()


def test_kernel_integral_form_rejects_bad_n_xi(grid):
    for n_xi in (1, 2, 48):
        with pytest.raises(ValueError):
            kernel_integral_form(0.4, 0.4, 1.0, grid, n_xi=n_xi)
