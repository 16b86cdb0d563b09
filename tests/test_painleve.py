import dataclasses
import math

import numpy as np
import pytest

import watermelon as wm
from watermelon import cli, oracles, painleve
from watermelon.errors import ConvergenceError, CoverageError


def test_airy_gamma_representation():
    # Ai(0) = 3^{-2/3}/Gamma(2/3), Ai'(0) = -3^{-1/3}/Gamma(1/3)
    ai, aip = wm.airy_ai(0.0)
    assert abs(ai - 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)) < 1e-14
    assert abs(aip + 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)) < 1e-14


def test_airy_monotone_decay_positive_axis():
    a0 = wm.airy_ai(0.0)[0]
    a5 = wm.airy_ai(5.0)[0]
    a10 = wm.airy_ai(10.0)[0]
    assert a10 < a5 < a0
    assert a10 > 0.0


def test_airy_asymptotic_form():
    # One-term asymptotic at s=8: the deviation is the classical first
    # correction u1/zeta = 5/(72 zeta), about 4.6e-3 here.
    s = 8.0
    zeta = (2.0 / 3.0) * s**1.5
    lead = math.exp(-zeta) / (2.0 * math.sqrt(math.pi) * s**0.25)
    dev = abs(wm.airy_ai(s)[0] / lead - 1.0)
    assert dev < 6e-3
    assert abs(dev / (5.0 / (72.0 * zeta)) - 1.0) < 0.2


def test_airy_matches_mpmath():
    # error relative to the amplitude envelope: sqrt(Ai^2 + Bi^2) (and the
    # same for the derivatives) on the oscillatory side, |Ai| (|Ai'|) on the
    # decaying side.  Measured: 2.2e-15 on [-30, 10], 6.0e-14 on [10, 60],
    # where the rounding of exp(-zeta) dominates (scipy's airy: 2.4e-14 on
    # [-30, 10]).
    import mpmath

    xs = np.linspace(-30.0, 60.0, 361)
    ai, aip = wm.airy_ai(xs)
    with mpmath.workdps(30):
        for x, got, dgot in zip(xs, ai, aip):
            want = mpmath.airyai(x)
            dwant = mpmath.airyai(x, derivative=1)
            env, denv = abs(want), abs(dwant)
            if x < 0.0:
                env = mpmath.hypot(want, mpmath.airybi(x))
                denv = mpmath.hypot(dwant, mpmath.airybi(x, derivative=1))
            bound = 5e-15 if x < 10.0 else 1e-13
            assert abs(got - want) <= bound * env, x
            assert abs(dgot - dwant) <= bound * denv, x


def test_airy_rejects_uncovered_arguments():
    for bad in (-30.5, float("nan")):
        with pytest.raises(CoverageError):
            wm.airy_ai(np.array([0.0, bad]))
        with pytest.raises(CoverageError):
            wm.airy_ai(bad)
    assert np.all(np.isfinite(wm.airy_ai(np.array([-30.0, 10.0, 200.0]))))


def test_airy_scalar_in_scalars_out():
    for x in (-7.3, 0.0, 12.0, 31.0):
        ai, aip = wm.airy_ai(x)
        assert np.ndim(ai) == 0 and np.ndim(aip) == 0
        assert isinstance(ai, float) and isinstance(aip, float)
    ai, aip = wm.airy_ai(np.array([-1.0, 1.0]))
    assert ai.shape == aip.shape == (2,)


def test_tridiagonal_solve_matches_lapack(grid, psis_critical, monkeypatch):
    # every tridiagonal system a grid solve makes (the Newton Jacobians and
    # the not-a-knot slope system of q'), and the spline systems on the
    # s-knots and the zeta-knots, agree with LAPACK's gtsv bit for bit
    from scipy.linalg import solve_banded

    from watermelon import painleve

    systems = []
    solve = painleve._solve_tridiagonal

    def recording(sub, diag, sup, rhs):
        x = solve(sub, diag, sup, rhs)
        systems.append((sub, diag, sup, rhs, x))
        return x

    monkeypatch.setattr(painleve, "_solve_tridiagonal", recording)
    painleve._solve(painleve.DEFAULT_MESH)
    newton = len(systems) - 1
    for x, y in ((grid.s_values, grid.q), (grid.s_values, grid.R),
                 (psis_critical.zeta_values, psis_critical.phi1)):
        painleve.NotAKnotSpline(x, y)
    assert newton >= 3 and len(systems) == newton + 4
    for sub, diag, sup, rhs, x in systems:
        ab = np.zeros((3, diag.size))
        ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
        assert np.array_equal(x, solve_banded((1, 1), ab, rhs))


def test_tail_quadrature_splines_serve_q_and_R(grid, monkeypatch):
    # build_grid hands its quadrature's q and R splines to the grid, so
    # their first reads make no slope solve and agree with fresh splines bit
    # for bit
    from watermelon import painleve

    fresh = wm.build_grid()
    solves = []
    solve = painleve._solve_tridiagonal

    def counted(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(painleve, "_solve_tridiagonal", counted)
    points = np.linspace(grid.s_min, grid.s_max, 97)
    q, R = fresh.q_at(points), fresh.R_at(points)
    scalars = fresh.q_at(-1.25), fresh.R_at(3.5)
    assert len(solves) == 0
    for got, values in ((q, grid.q), (R, grid.R)):
        assert np.array_equal(got, painleve.NotAKnotSpline(grid.s_values,
                                                           values)(points))
    assert scalars == (painleve.NotAKnotSpline(grid.s_values, grid.q)(-1.25),
                       painleve.NotAKnotSpline(grid.s_values, grid.R)(3.5))


def test_solver_preconditions():
    with pytest.raises(ValueError, match="spline data must be finite"):
        painleve.NotAKnotSpline([0.0, 1.0, 2.0, 3.0], [0.0, math.nan, 1.0, 2.0])


def test_R_right_tail_matches_airy_identity(grid):
    # R(s) = int_s^inf q^2 with q ~ Ai, and int_s^inf Ai^2 = Ai'^2 - s Ai^2;
    # differencing the full antiderivative cancelled to noise from s ~ 6 on
    for s in (6.0, 8.0, 10.0):
        ai, aip = wm.airy_ai(s)
        want = aip**2 - s * ai**2
        assert abs(grid.R_at(s) / want - 1.0) <= 1e-6, (s, grid.R_at(s), want)


def test_spline_matches_scipy_bit_for_bit(grid, psis_critical):
    # the in-package spline reproduces scipy's CubicSpline exactly; its
    # downward-summed tail integrals agree with scipy's differenced
    # antiderivative to rounding
    from scipy.interpolate import CubicSpline

    from watermelon.painleve import NotAKnotSpline

    rng = np.random.default_rng(11)
    cases = [(grid.s_values, grid.q), (grid.s_values, grid.R),
             (grid.s_values, grid.f1),
             (psis_critical.zeta_values, psis_critical.phi1)]
    for x, y in cases:
        ours, ref = NotAKnotSpline(x, y), CubicSpline(x, y)
        span = x[-1] - x[0]
        points = np.concatenate([rng.uniform(x[0] - 0.1 * span,
                                             x[-1] + 0.1 * span, 2000), x])
        got = np.array([ours(float(p)) for p in points])
        assert np.array_equal(got, ref(points))
        assert np.array_equal(ours(points), got)
        anti = ref.antiderivative()
        want = anti(x[-1]) - anti(x)
        assert (np.max(np.abs(ours.tail_integrals() - want))
                <= 1e-13 * np.max(np.abs(want)))


def test_right_tail_slope_tracks_airy(grid):
    # q' sums its tail integral from s_max down; differencing a forward
    # antiderivative loses the tail to cancellation (4e-5 off at s = 11.9)
    for s in (10.0, 11.0, 11.9):
        assert abs(grid.q_prime_at(s) / wm.airy_ai(s)[1] - 1.0) <= 1e-8


def test_residual_and_positivity(grid):
    assert grid.residual_norm <= 1e-10
    assert np.all(grid.q > 0.0)


def test_right_tail_tracks_airy(grid):
    s = grid.s_values
    sel = s >= 7.0
    ai = np.array([wm.airy_ai(v)[0] for v in s[sel]])
    assert np.max(np.abs(grid.q[sel] / ai - 1.0)) <= 1e-4
    assert abs(grid.q_at(8.0) / wm.airy_ai(8.0)[0] - 1.0) <= 1e-5


def test_left_asymptote(grid):
    s = grid.s_values
    r8 = grid.q[np.argmin(np.abs(s + 8.0))] ** 2 / 4.0
    r10 = grid.q[np.argmin(np.abs(s + 10.0))] ** 2 / 5.0
    assert abs(r8 - 1.0) <= 2e-2
    assert abs(r10 - 1.0) < abs(r8 - 1.0)


def test_collocation_matches_resolvent(grid):
    # measured: <= 1.4e-12 relative on [-4, 2], 7.9e-10 at s = 8, the
    # grid's own tail error (criterion 1's |q(8)/Ai(8)-1|)
    for s in np.linspace(-4.0, 8.0, 25):
        assert abs(grid.q_at(s) / oracles.resolvent_q(s) - 1.0) <= 2e-9, s


def test_mesh_refinement_order():
    ref_q = painleve._solve(8192)[1]
    errs = []
    for mesh in (1024, 2048):
        q = painleve._solve(mesh)[1]
        stride = 8192 // mesh
        errs.append(np.max(np.abs(q - ref_q[::stride])))
    assert errs[1] <= errs[0] / 3.0


def test_tail_quantities(grid):
    assert grid.R[-1] <= 1e-12
    assert np.all(np.diff(grid.R) <= 1e-15)
    for arr in (grid.E, grid.F, grid.f1, grid.f2):
        assert np.all(arr > 0.0) and np.all(arr <= 1.0)
        assert np.all(np.diff(arr) >= -1e-15)
    assert abs(grid.E[-1] - 1.0) <= 1e-10
    assert abs(grid.F[-1] - 1.0) <= 1e-10
    assert np.array_equal(grid.f1, grid.F * grid.E)
    assert np.array_equal(grid.f2, grid.F * grid.F)


def test_derivative_relations(grid):
    # R' = -q^2, E' = q E / 2, F' = R F / 2 under central differences
    s, q = grid.s_values, grid.q
    h = s[1] - s[0]
    dR = (grid.R[2:] - grid.R[:-2]) / (2 * h)
    assert np.max(np.abs(dR + q[1:-1] ** 2)) <= 1e-5
    dE = (grid.E[2:] - grid.E[:-2]) / (2 * h)
    assert np.max(np.abs(dE - 0.5 * q[1:-1] * grid.E[1:-1])) <= 1e-5
    dF = (grid.F[2:] - grid.F[:-2]) / (2 * h)
    assert np.max(np.abs(dF - 0.5 * grid.R[1:-1] * grid.F[1:-1])) <= 1e-5


def test_accumulate_requires_converged_q(grid, monkeypatch):
    # a zero step stops Newton at the initial guess, whose residual fails;
    # a non-finite step raises at once, and the CLI reports it as a
    # numerical failure (exit 2), not as a usage error
    for step, why in ((0.0, "Newton stalled"), (math.nan, "not finite")):
        monkeypatch.setattr(painleve, "_solve_tridiagonal",
                            lambda sub, diag, sup, rhs: np.full(len(diag), step))
        with pytest.raises(ConvergenceError, match=why):
            wm.build_grid()
    assert cli.main(["tw", "--which", "f1"]) == cli.EXIT_NUMERICAL


def test_tail_closures_negligible(grid):
    # build_grid checks no closure at run time: at S_MAX = 12 the Airy
    # closure is what each integral holds at the last knot.  Measured:
    # q^2 7.7e-29, q 2.0e-15, R rounds to 0 in F
    assert grid.R[-1] <= 1e-10 * grid.R[0]
    for piece in (grid.E, grid.F):
        minus_log = -np.log(piece)
        assert minus_log[-1] <= 1e-10 * minus_log[0]


def test_tracy_widom_values(grid):
    assert abs(wm.tracy_widom(grid.s_max, "F2", grid) - 1.0) <= 1e-8
    for x in np.linspace(-5.0, 3.0, 17):
        f1 = wm.tracy_widom(x, "F1", grid)
        f2 = wm.tracy_widom(x, "F2", grid)
        assert 0.0 <= f1 <= 1.0 and 0.0 <= f2 <= 1.0
        assert f1 <= math.sqrt(f2) + 1e-12
    with pytest.raises(CoverageError):
        wm.tracy_widom(grid.s_min - 1.0, "F2", grid)
    with pytest.raises(ValueError):
        wm.tracy_widom(0.0, "F3", grid)


def test_tracy_widom_monotone(grid):
    xs = np.linspace(-6.0, 4.0, 41)
    for which in ("F1", "F2"):
        vals = [wm.tracy_widom(x, which, grid) for x in xs]
        assert np.all(np.diff(vals) >= -1e-13)


def test_f2_against_fredholm_oracle(grid):
    from watermelon.oracles import fredholm_f2
    worst = max(abs(wm.tracy_widom(float(x), "F2", grid) - fredholm_f2(float(x)))
                for x in range(-4, 3))
    assert worst <= 1e-5


def test_build_grid_writes_no_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WATERMELON_CACHE", raising=False)
    g = wm.build_grid()
    assert g.f2.size > 0
    assert list(tmp_path.iterdir()) == []


def test_tracy_widom_rejects_nan(grid):
    for which in ("F1", "F2"):
        with pytest.raises(CoverageError):
            wm.tracy_widom(float("nan"), which, grid)


def test_grid_reads_reject_uncovered_points(grid):
    inside = np.array([grid.s_min, 0.0, grid.s_max])
    for read in (grid.q_at, grid.q_prime_at, grid.R_at):
        assert np.all(np.isfinite(read(inside)))
        assert math.isfinite(read(0)) and math.isfinite(read(np.float64(1.5)))
        for bad in (float("nan"), grid.s_min - 1e-9, grid.s_max + 1.0):
            with pytest.raises(CoverageError):
                read(bad)
            with pytest.raises(CoverageError):
                read(np.array([0.0, bad]))


def test_grid_and_psi_solution_are_frozen(grid, psis_critical):
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.R = grid.q
    with pytest.raises(dataclasses.FrozenInstanceError):
        psis_critical.q_s = 0.0


def test_grid_and_psi_arrays_are_read_only(grid, psis_critical):
    # splines view these arrays: a write would change later evaluations
    for arr in (grid.f2, grid.q, psis_critical.phi1):
        with pytest.raises(ValueError):
            arr[:] = 0.5


@pytest.mark.parametrize("name", ["q", "q_prime", "R", "f1", "f2"])
def test_scalar_spline_reads_match_array_path(grid, name):
    spline = painleve.NotAKnotSpline(grid.s_values, getattr(grid, name))
    lo, hi = grid.s_min, grid.s_max
    rng = np.random.default_rng(30)
    points = np.concatenate((grid.s_values, [lo - 3.0, lo - 1e-9, hi + 1e-9,
                                             hi + 3.0],
                             rng.uniform(lo, hi, 10_000)))
    want = spline(points)
    got = np.array([spline(p) for p in points.tolist()])
    assert all(type(spline(p)) is float for p in points[:5].tolist())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
