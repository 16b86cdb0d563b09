import dataclasses
import math
import time

import numpy as np
import pytest

import watermelon as wm
from watermelon import dgop
from watermelon.dgop import MAX_DEGREE, build_lattice, lattice_nodes
from watermelon.errors import (CoverageError, PrecisionError, WatermelonError,
                               WindowError)
from reference import (gram_schmidt_log_norms, gram_schmidt_log_norms_exact,
                       gue_log_partition_quadrature, stieltjes_exact,
                       stieltjes_keeping_phi)


def test_lattice_nodes_alpha_zero():
    nodes, amps = build_lattice(4, 0.0, 1.0, 0)
    assert np.any(nodes == 0.0)
    assert np.allclose(nodes, -nodes[::-1])
    # folded amplitudes sqrt(w/n): weights w/n in (0, 1/4]
    assert np.all(amps > 0.0) and np.all(amps * amps <= 0.25)


def test_lattice_nodes_alpha_half():
    nodes, _ = build_lattice(4, 0.5, 1.0, 0)
    assert not np.any(nodes == 0.0)
    for v in (0.125, 0.375):
        assert np.any(np.isclose(nodes, v)) and np.any(np.isclose(nodes, -v))


def test_window_doubling_leaves_log_h_fixed():
    sys1 = wm.build_system(6, 0.0, 0.9, 8)
    wide = lattice_nodes(6, 0.0, 2.0 * np.max(np.abs(sys1.nodes)))
    amplitudes = (np.exp(-6 * math.pi**2 * 0.9 * wide * wide / 4.0)
                  / math.sqrt(6))
    log_h2 = wm.stieltjes(wide, amplitudes, 8)[2]
    assert np.max(np.abs(sys1.log_h - log_h2)) < 1e-12


def test_degree_unreachable():
    # only 35 nodes carry a nonzero amplitude at n = 1, a = 1
    with pytest.raises(WindowError):
        wm.build_system(1, 0.0, 1.0, 50)


def test_node_bound_edge():
    # the window holds about (4/pi) sqrt(744.4 n / a) nodes; at the smallest
    # a inside the bound the family builds, just below it nothing is allocated
    for n in (1, 4, 64):
        a_edge = (4 / math.pi) ** 2 * 744.44 * n / dgop.MAX_NODES ** 2
        nodes, _ = build_lattice(n, 0.0, 1.01 * a_edge, 2)
        assert 0.9 * dgop.MAX_NODES < nodes.size <= dgop.MAX_NODES
        with pytest.raises(WindowError):
            build_lattice(n, 0.0, 0.99 * a_edge, 2)
    with pytest.raises(WindowError):
        wm.height_cdf(2, 3000.0, "absorbing")       # n = 1, a = 1/M^2
    # a half-width that is not a finite number is refused before the floor
    for half_width in (math.inf, math.nan):
        with pytest.raises(WindowError):
            lattice_nodes(4, 0.0, half_width)
    with pytest.raises(WindowError):                # 744.4/(n a) overflows
        build_lattice(4, 0.0, 5e-324, 2)


def test_log_h0_is_weight_mass():
    sys1 = wm.build_system(5, 0.25, 1.1, 3)
    assert math.isclose(sys1.log_h[0],
                        math.log(float(np.sum(sys1.amplitudes**2))),
                        rel_tol=1e-14)


def test_symmetric_lattice_kills_A():
    for alpha in (0.0, 0.5):
        sys1 = wm.build_system(8, alpha, 0.9, 10)
        assert np.max(np.abs(sys1.A)) <= 1e-12
        assert np.max(np.abs(sys1.A)) <= 1e-10 * sys1.span


def test_stieltjes_against_gram_schmidt():
    sys1 = wm.build_system(6, 0.0, 0.9, 4)
    ref = gram_schmidt_log_norms(sys1.nodes, sys1.amplitudes**2, 4)
    assert np.max(np.abs(np.expm1(sys1.log_h - ref))) < 1e-10


def test_stieltjes_against_gram_schmidt_high_degree():
    # the monomial basis is too ill-conditioned for a double-precision
    # Gram-Schmidt at degree 40, so the oracle runs in software floats
    sys1 = wm.build_system(20, 0.25, 0.9, 40)
    assert len(sys1.nodes) <= 200
    ref = gram_schmidt_log_norms_exact(sys1.nodes, sys1.amplitudes**2, 40)
    assert np.max(np.abs(np.expm1(sys1.log_h - ref))) < 1e-10


def test_log_h_telescopes_via_B():
    sys1 = wm.build_system(9, 0.25, 0.7, 12)
    assert np.all(sys1.B[1:] > 0.0)
    diffs = sys1.log_h[1:] - sys1.log_h[:-1]
    assert np.allclose(diffs, np.log(sys1.B[1:]), rtol=0, atol=1e-12)


def test_orthonormality_of_phi():
    sys1 = wm.build_system(10, 0.0, 0.8, 15)
    G = sys1.phi @ sys1.phi.T
    assert np.max(np.abs(G - np.eye(16))) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.25])
@pytest.mark.parametrize("direction", [+1, -1])
def test_rescaling_identity(alpha, direction):
    sys1 = wm.build_system(30, alpha, 0.9, 20)
    assert wm.rescale_check(sys1, direction) <= 1e-9
    with pytest.raises(ValueError, match="direction must be"):
        wm.rescale_check(sys1, 0)


def test_mesh_one_bridge():
    # norms of the unit-mesh family with weight exp(-pi^2 x^2 / (2 M^2))
    # equal n^{2k+1} times the mesh-1/n norms at a = n / M^2
    n, M, k_max = 5, 3.0, 6
    unit = wm.build_system(1, 0.0, 1.0 / M**2, k_max)
    fine = wm.build_system(n, 0.0, n / M**2, k_max)
    k = np.arange(k_max + 1)
    defect = np.abs(np.expm1(unit.log_h - fine.log_h - (2 * k + 1) * math.log(n)))
    assert np.max(defect) < 1e-11


def test_rescaling_degree_zero_line():
    n, a = 30, 0.9
    xi = 1.0 + 1.0 / n
    s1 = wm.build_system(n, 0.0, a, 0)
    s2 = wm.build_system(n + 1, 0.0, a * xi, 0)
    assert abs(math.expm1(s1.log_h[0] - s2.log_h[0] - math.log(xi))) < 1e-12


def test_partition_single_particle():
    log_z, _ = wm.partition_and_free_energy(1, 0.0, 0.8)
    sys1 = wm.build_system(1, 0.0, 0.8, 0)
    assert math.isclose(log_z, sys1.log_h[0], rel_tol=1e-14)


def test_partition_two_particles_direct_sum():
    n, a = 2, 0.8
    log_z, _ = wm.partition_and_free_energy(n, 0.0, a)
    sys1 = wm.build_system(n, 0.0, a, 1)
    x, w = sys1.nodes, sys1.amplitudes**2
    double = float(np.sum((x[:, None] - x[None, :]) ** 2
                          * w[:, None] * w[None, :]))
    assert abs(math.expm1(log_z - math.log(double))) < 1e-10


def test_gue_free_energy_small_n():
    assert math.isclose(wm.gue_free_energy(1), -0.5 * math.log(math.pi),
                        rel_tol=1e-15)
    for n, tol in ((2, 1e-8), (3, 1e-7)):
        exact = -gue_log_partition_quadrature(n) / n**2
        assert abs(wm.gue_free_energy(n) / exact - 1.0) < tol
    with pytest.raises(ValueError, match="n must be >= 1"):
        wm.gue_free_energy(0)


def test_kernel_trace_idempotence_bounds():
    n = 24
    sys1 = wm.build_system(n, 0.0, 1.0, n)
    K = wm.cd_kernel_matrix(sys1, n)
    assert abs(np.trace(K) - n) <= 1e-8
    assert np.max(np.abs(K @ K - K)) <= 1e-8
    diag = np.diag(K)
    assert np.all(diag >= -1e-12) and np.all(diag <= 1.0 + 1e-12)


def test_kernel_point_evaluation_and_errors():
    sys1 = wm.build_system(12, 0.0, 0.9, 12)
    x = sys1.nodes[len(sys1.nodes) // 2]
    val = wm.cd_kernel(sys1, x, x, 12)
    assert math.isclose(val, wm.correlation_det(sys1, [x], 12), rel_tol=1e-14)
    assert 0.0 <= val <= 1.0
    for bad in (x + 1e-3, float("nan")):
        with pytest.raises(CoverageError):
            wm.cd_kernel(sys1, bad, x, 12)
        with pytest.raises(CoverageError):
            wm.correlation_det(sys1, [x, bad], 12)
    with pytest.raises(ValueError):
        wm.correlation_det(sys1, [x], 14)


@pytest.mark.parametrize("offsets", [(0, 3), (-1, 0), (-5, 0, 4), (-2, 1, 3)])
def test_correlation_det_matches_explicit_determinant(offsets):
    sys1 = wm.build_system(12, 0.0, 0.9, 12)
    mid = len(sys1.nodes) // 2
    pts = [sys1.nodes[mid + o] for o in offsets]
    K = [[wm.cd_kernel(sys1, x, y, 12) for y in pts] for x in pts]
    if len(pts) == 2:
        # K(x,x) K(y,y) - K(x,y)^2
        explicit = K[0][0] * K[1][1] - K[0][1] ** 2
    else:
        (p, q, r), (s, t, u), (v, w, z) = K
        explicit = p * (t * z - u * w) - q * (s * z - u * v) + r * (s * w - t * v)
    assert explicit > 0.0
    assert math.isclose(wm.correlation_det(sys1, pts, 12), explicit,
                        rel_tol=1e-13)


@pytest.mark.parametrize("a", [0.9, 1.1])
def test_toda_defect_is_second_order(a):
    d1 = wm.toda_residual(24, 0.0, a, 1e-3)[2]
    d2 = wm.toda_residual(24, 0.0, a, 5e-4)[2]
    assert 0.8 * 4.0 <= d1 / d2 <= 1.2 * 4.0


def test_toda_symmetric_reduction():
    # alpha = 0: rhs reduces to (n pi^2/2)^2 B_n(B_{n-1} + B_{n+1})
    n, a = 24, 0.9
    sys1 = wm.build_system(n, 0.0, a, n + 1)
    _, rhs, _ = wm.toda_residual(n, 0.0, a, 1e-3)
    reduced = (n * math.pi**2 / 2) ** 2 * sys1.B[n] * (sys1.B[n - 1] + sys1.B[n + 1])
    assert abs(rhs / reduced - 1.0) < 1e-9


def test_identity_checks_frozen_values():
    # literals computed once with the window shared across the three a-values;
    # per-a default windows drop only nodes of amplitude exactly 0.  The two
    # deformation left sides were re-pinned with the row-buffer pass: 9.0e-11
    # and 2.2e-10 from their 160-bit values (the old pins 2.9e-10, 4.2e-10)
    frozen = {
        "toda": (wm.toda_residual(24, 0.25, 1.0, 1e-3),
                 267.02581476456544, 267.02601565379626),
        "absorbing": (wm.deformation_identity_check(6, 0.9, 1e-3, "absorbing"),
                      36.966042479491534, 36.96600245373955),
        "reflecting": (wm.deformation_identity_check(6, 0.9, 1e-3, "reflecting"),
                       35.473238789052175, 35.4732200324874),
    }
    for name, ((lhs, rhs, _), want_lhs, want_rhs) in frozen.items():
        assert math.isclose(lhs, want_lhs, rel_tol=1e-12), name
        assert math.isclose(rhs, want_rhs, rel_tol=1e-12), name


def test_extended_precision_agrees_with_double():
    std = wm.build_system(6, 0.25, 0.9, 6)
    A, _, log_h = stieltjes_exact(std.nodes, 6, 0.9, 6)
    assert np.max(np.abs(log_h - std.log_h)) < 1e-12
    assert np.max(np.abs(A - std.A)) < 1e-12


def test_double_path_still_accurate_at_saturation():
    # a ~ 1 is where the folded weight is smallest at the spectral edge;
    # at n = 64 the double path must agree closely with the 120-bit oracle,
    # which sums over 1.5x the retained window, so truncation is checked too
    std = wm.build_system(64, 0.0, 1.0, 64)
    wide = lattice_nodes(64, 0.0, 1.5 * np.max(np.abs(std.nodes)))
    log_h = stieltjes_exact(wide, 64, 1.0, 64)[2]
    assert np.max(np.abs(log_h - std.log_h)) < 1e-11


def test_saturated_norm_matches_asymptotics_past_weight_underflow(grid):
    # at n = 448 the weight w itself underflows at the spectral edge
    # (exponent 2n > 745); the folded amplitude does not, so h_nn still
    # follows the critical expansion (criterion 8's bound)
    n = 448
    system = wm.build_system(n, 0.0, 1.0, n)
    pred, _ = wm.asymptotic_h(n, 0.0, 1.0, grid)
    assert abs(math.expm1(system.log_h[n] - pred)) <= n ** (-2.0 / 3.0)


def test_degree_past_double_range_raises():
    start = time.perf_counter()
    with pytest.raises(PrecisionError):
        wm.build_system(704, 0.0, 1.0, 704)
    assert time.perf_counter() - start < 1.0


def test_degree_envelope_edge():
    system = wm.build_system(MAX_DEGREE, 0.0, 1.0, MAX_DEGREE)
    assert np.all(np.isfinite(system.log_h)) and np.all(system.B[1:] > 0.0)
    with pytest.raises(PrecisionError):
        build_lattice(1, 0.0, 1.0, MAX_DEGREE + 1)


@pytest.mark.parametrize("family", [(384, 0.0, 1.0, 384),
                                    (1, 0.0, 1.0 / 8.0**2, 63)])
def test_one_stieltjes_pass_per_build(monkeypatch, family):
    calls = []
    stieltjes = dgop.stieltjes

    def counted(*args, **kwargs):
        calls.append(1)
        return stieltjes(*args, **kwargs)

    monkeypatch.setattr(dgop, "stieltjes", counted)
    monkeypatch.setattr(dgop, "_memo", None)
    wm.build_system(*family)
    assert len(calls) == 1


def _count_passes(monkeypatch):
    calls = []
    stieltjes = dgop.stieltjes

    def counted(*args, **kwargs):
        calls.append(1)
        return stieltjes(*args, **kwargs)

    monkeypatch.setattr(dgop, "stieltjes", counted)
    monkeypatch.setattr(dgop, "_memo", None)
    return calls


def _assert_same_as_fresh(system):
    fresh = dgop._build(system.n, system.alpha, system.a, system.k_max)
    for name in ("A", "B", "log_h", "nodes", "amplitudes", "phi"):
        assert np.array_equal(getattr(system, name), getattr(fresh, name)), name


@pytest.mark.parametrize("family", [(64, 0.0, 1.0, 64), (200, 0.25, 0.97, 200),
                                    (1, 0.0, 1.0 / 672, 671)])
def test_lower_degree_served_from_family_memo(monkeypatch, family):
    n, alpha, a, k_max = family
    calls = _count_passes(monkeypatch)
    wm.build_system(n, alpha, a, k_max)
    lower = wm.build_system(n, alpha, a, k_max - 1)
    assert len(calls) == 1
    _assert_same_as_fresh(lower)

    calls = _count_passes(monkeypatch)
    lower = wm.build_system(n, alpha, a, k_max - 1)
    upper = wm.build_system(n, alpha, a, k_max)
    assert len(calls) == 2
    _assert_same_as_fresh(lower)
    _assert_same_as_fresh(upper)


def test_phi_is_built_on_first_read(monkeypatch, grid, psis_critical):
    # the family kernel_limit_table(64, 1.0, ...) reads
    family = (64, 0.0, 1.0 - 64 ** (-2.0 / 3.0), 64)
    calls = _count_passes(monkeypatch)
    system = wm.build_system(*family)
    calls.clear()
    assert "phi" not in system.__dict__
    x = system.nodes[len(system.nodes) // 2]
    wm.cd_kernel(system, x, x, 64)
    assert "phi" not in system.__dict__
    expected = stieltjes_keeping_phi(system.nodes, system.amplitudes, 64)[3]
    assert np.array_equal(system.phi, expected)
    wm.kernel_limit_table(64, 1.0, [0.5, -0.5], [0.5], grid, psis_critical)
    assert len(calls) == 0
    # the memo hands out a fresh system, so the entry holds no phi
    assert "phi" not in wm.build_system(*family).__dict__


@pytest.mark.parametrize("alpha", [0.0, 0.25, -0.5])
@pytest.mark.parametrize("family", [(1, 1.0 / 8.0**2, 63), (64, 1.0, 64),
                                    (351, 1.0, 351), (672, 1.0, 672),
                                    (192, 0.025, 384)],  # 3,041 nodes
                         ids=lambda f: f"n={f[0]}")
def test_phi_at_matches_phi_keeping_pass(family, alpha):
    n, a, k_max = family
    system = wm.build_system(n, alpha, a, k_max)
    A, B, log_h, phi = stieltjes_keeping_phi(system.nodes, system.amplitudes,
                                             k_max)
    for name, want in (("A", A), ("B", B), ("log_h", log_h)):
        assert np.array_equal(getattr(system, name), want), name
    last = len(system.nodes) - 1
    for idx in ([0, last], [last // 2], [last, 0, 1, last - 1, last // 3]):
        assert np.array_equal(system.phi_at(idx), phi[:, idx]), idx
    assert np.array_equal(system.phi, phi)
    # the replay runs on the asked columns alone, at least 4 of them; the
    # window's ends lie past the pass's reach, where the pass started at 0
    # (at n = 672 the window ends first)
    start = dgop._pass_start(system.nodes, system.amplitudes, n, a, k_max)
    assert (start[0] == start[-1] == 0.0) == (n != 672)
    mid = last // 2
    for idx in (*(list(range(mid, mid + width)) for width in range(1, 6)),
                [mid + 3, mid, mid + 1], [mid, mid], [mid, 0, mid, last, mid],
                [0], [last], [last, 0], []):
        assert np.array_equal(system.phi_at(idx), phi[:, idx]), idx


@pytest.mark.parametrize("family", [(64, 0.25, 1.0, 64), (351, 0.0, 1.0, 351),
                                    (192, 0.0, 0.025, 384)], ids=str)
def test_phi_at_reads_only_the_asked_columns(monkeypatch, family):
    # every node outside idx is NaN, and the replay's buffer is as wide as
    # the gather: max(4, len(idx)) columns, not the window's
    widths = []
    first_rows = dgop._first_rows

    def recorded(nodes, *args):
        widths.append(len(nodes))
        return first_rows(nodes, *args)

    monkeypatch.setattr(dgop, "_first_rows", recorded)
    system = wm.build_system(*family)
    last = len(system.nodes) - 1
    for idx in ([last // 2], [3, last // 2], [last, 0, 7], [5, 5, 9, 2, 11],
                list(range(40, 47))):
        nodes = np.full_like(system.nodes, np.nan)
        nodes[idx] = system.nodes[idx]
        blind = dataclasses.replace(system, nodes=nodes)
        assert np.array_equal(blind.phi_at(idx), system.phi_at(idx)), idx
        assert widths[-2:] == [max(4, len(idx))] * 2


@pytest.mark.parametrize("family", [(1, 0.25, 100.0, 2), (2, 0.0, 300.0, 2),
                                    (1, 0.25, 300.0, 1), (4, 0.5, 1000.0, 1)],
                         ids=str)
def test_phi_at_on_windows_of_under_4_nodes(family):
    # windows of 3 and 2 nodes, whose passes run a gemv 3 or 2 columns wide:
    # the replay takes the whole window, whatever the columns asked
    system = wm.build_system(*family)
    k_max = family[3]
    assert len(system.nodes) == k_max + 1
    phi = stieltjes_keeping_phi(system.nodes, system.amplitudes, k_max)[3]
    assert np.array_equal(system.phi, phi)
    for idx in ([0], [k_max], [k_max, 0, 0, k_max, 0], []):
        assert np.array_equal(system.phi_at(idx), phi[:, idx]), idx


@pytest.mark.parametrize("alpha", [0.0, 0.25])
@pytest.mark.parametrize("k_max", [0, 1, 2, 29, 30, 31, 59, 60, 61])
def test_pass_matches_phi_keeping_pass_across_buffer_fills(k_max, alpha):
    # no step at all, small buffers (2 k_max + 4 rows), an exact 30-degree
    # fill and one
    # degree either side of a wrap, where the row views are reused
    nodes, amplitudes = build_lattice(64, alpha, 1.0, k_max)
    A, B, log_h, phi = stieltjes_keeping_phi(nodes, amplitudes, k_max)
    got = dgop.stieltjes(nodes, amplitudes, k_max)
    for name, have, want in zip(("A", "B", "log_h"), got, (A, B, log_h)):
        assert np.array_equal(have, want), name
    system = dgop.OrthoSystem(n=64, alpha=alpha, a=1.0, k_max=k_max,
                              log_h=log_h, A=A, B=B, nodes=nodes,
                              amplitudes=amplitudes)
    assert np.array_equal(system.phi, phi)
    mid = len(nodes) // 2
    assert np.array_equal(system.phi_at([0, mid]), phi[:, [0, mid]])


@pytest.mark.parametrize("n, exponent", [(4, 536), (64, 512), (64, 508)])
def test_precision_error_names_first_nonpositive_B(n, exponent):
    # nodes scaled by 2^-exponent scale the pass's values exactly until
    # some u_k squares to 0 in the subnormal range: at degree 1, then in
    # the second and third buffer fills; the plain pass names the same B_k
    nodes, amplitudes = build_lattice(n, 0.0, 1.0, 0)
    nodes = nodes * 2.0**-exponent
    k_max = len(nodes) - 1
    with pytest.raises(PrecisionError) as want:
        stieltjes_keeping_phi(nodes, amplitudes, k_max)
    with pytest.raises(PrecisionError) as got:
        dgop.stieltjes(nodes, amplitudes, k_max)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("alpha", [0.0, 0.25, -0.5])
@pytest.mark.parametrize("n", [351, 672])
def test_phi_orthonormal_at_saturation(n, alpha):
    # the row-buffer pass measured 1.0-1.7e-14 here; symmetric lattices
    # (alpha 0 and -1/2) carry A = 0 up to its rounding
    system = wm.build_system(n, alpha, 1.0, n)
    phi = system.phi
    assert np.max(np.abs(phi @ phi.T - np.eye(n + 1))) <= 1e-13
    if alpha != 0.25:
        assert np.max(np.abs(system.A)) <= 1e-13


def test_failed_request_leaves_memo_entry(monkeypatch):
    calls = _count_passes(monkeypatch)
    wm.build_system(64, 0.0, 1.0, 64)
    with pytest.raises(PrecisionError):
        wm.build_system(64, 0.0, 1.0, MAX_DEGREE + 1)
    calls.clear()
    assert wm.build_system(64, 0.0, 1.0, 63).k_max == 63
    assert len(calls) == 0


def test_memo_holds_the_last_family(monkeypatch):
    calls = _count_passes(monkeypatch)
    for a in (1.0, 2.0, 1.0):  # each family replaces the one before
        wm.build_system(4, 0.0, a, 2)
        assert len(calls) == 1
        calls.clear()
    wm.build_system(4, 0.0, 1.0, 1)
    assert len(calls) == 0


def test_window_keeps_no_zero_amplitude_node():
    system = wm.build_system(384, 0.0, 1.0, 384)
    assert np.all(system.amplitudes > 0.0)


def test_past_saturation_build_is_bounded():
    # a = 3 is far past saturation; the window must not grow without end
    start = time.perf_counter()
    try:
        wm.build_system(100, 0.0, 3.0, 100)
    except WatermelonError:
        pass
    assert time.perf_counter() - start < 1.0


def test_weight_rejects_nonpositive_a():
    for n, alpha, a, k_max in ((0, 0.0, 1.0, 3), (4, 0.7, 1.0, 3),
                               (4, 0.0, 0.0, 3), (4, 0.0, 1.0, -1)):
        with pytest.raises(ValueError):
            build_lattice(n, alpha, a, k_max)
    for a in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            wm.build_system(4, 0.0, a, 3)


def test_weight_rejects_a_whose_exponent_overflows():
    # n pi^2 a is inf, so the amplitude at x = 0 would be exp(-inf * 0)
    for n, a in ((4, 1e308), (1, 1e308), (64, 3e306)):
        with pytest.raises(ValueError, match="n pi\\^2 a must be positive"):
            build_lattice(n, 0.0, a, 2)
    for wall in ("absorbing", "reflecting"):  # a = 1/M^2 = 1e308 at n = 1
        with pytest.raises(ValueError, match="n pi\\^2 a must be positive"):
            wm.height_cdf(4, 1e-154, wall)
    nodes, amplitudes = build_lattice(1, 0.0, 1e307, 0)
    assert nodes.tolist() == [0.0] and amplitudes.tolist() == [1.0]


def test_memo_arrays_are_read_only():
    n, alpha, a = 8, 0.0, 1.0
    before = wm.partition_and_free_energy(n, alpha, a)
    system = wm.build_system(n, alpha, a, 8)
    for name in ("A", "B", "log_h", "nodes", "amplitudes"):
        with pytest.raises(ValueError):
            getattr(system, name)[3] = 0.0
    _assert_same_as_fresh(wm.build_system(n, alpha, a, 8))
    assert wm.partition_and_free_energy(n, alpha, a) == before


@pytest.mark.parametrize("fn", [
    lambda system, x: wm.cd_kernel(system, x, x, -1),
    lambda system, x: wm.cd_kernel_matrix(system, -1),
    lambda system, x: wm.correlation_det(system, [x], -1),
], ids=["cd_kernel", "cd_kernel_matrix", "correlation_det"])
def test_negative_particle_count_raises(fn):
    system = wm.build_system(12, 0.0, 0.9, 12)
    with pytest.raises(ValueError):
        fn(system, system.nodes[len(system.nodes) // 2])


@pytest.mark.parametrize("delta_a", [0.0, -1e-3, float("nan"), 0.9])
def test_identity_checks_reject_bad_delta_a(delta_a):
    with pytest.raises(ValueError):
        wm.toda_residual(24, 0.0, 0.9, delta_a)
    with pytest.raises(ValueError):
        wm.deformation_identity_check(6, 0.9, delta_a, "absorbing")


@pytest.mark.parametrize("n", [1, 7, 32, 64, 192, 351, 672])
def test_zeroed_pass_start_changes_no_bit(n):
    # the build's pass starts at 0 past its degree's reach; the pass on the
    # true amplitudes of the same lattice gives the same B and log h, and
    # the same A wherever A is not rounding noise below 1e-100
    built = 0
    for alpha in (0.0, 0.25, -0.5):
        for k_max in sorted({1, max(1, n // 2), n, min(2 * n, MAX_DEGREE)}):
            for sigma in (0.05, 0.9, 1.0, 1.1, 2.0, 10.0):
                a = sigma * n / k_max
                try:
                    nodes, amplitudes = build_lattice(n, alpha, a, k_max)
                    A, B, log_h = dgop.stieltjes(nodes, amplitudes, k_max)
                except WatermelonError:
                    with pytest.raises(WatermelonError):
                        dgop._build(n, alpha, a, k_max)
                    continue
                system = dgop._build(n, alpha, a, k_max)
                assert np.array_equal(system.B, B)
                assert np.array_equal(system.log_h, log_h)
                big = np.abs(A) >= 1e-100
                assert np.array_equal(system.A[big], A[big])
                built += 1
    assert built >= 36  # every family builds at n = 1, most at larger n


def test_node_index_reads_the_lattice():
    system = wm.build_system(64, 0.25, 1.0, 64)
    last = len(system.nodes) - 1
    for i in (0, 1, last // 2, last - 1, last):
        assert system.node_index(system.nodes[i]) == i
        assert system.node_index(float(system.nodes[i]) + 1e-12) == i
    step = 1.0 / 64
    for bad in (math.nan, math.inf, -math.inf, 1e300, -1e300,
                system.nodes[3] + 0.3 * step, system.nodes[0] - step,
                system.nodes[last] + step):
        with pytest.raises(CoverageError):
            system.node_index(bad)
