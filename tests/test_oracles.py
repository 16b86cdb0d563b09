import itertools
import math

import numpy as np
import pytest

import watermelon as wm
from watermelon import oracles
from reference import (fredholm_f1, gram_schmidt_log_norms,
                       gue_log_partition_quadrature, stirling_series)


def test_fredholm_discretization_stability():
    for x in (-3.0, 0.0, 1.5):
        a = oracles.fredholm_f2(x, m=121)
        b = oracles.fredholm_f2(x, m=201)
        assert abs(a - b) < 1e-10
    assert abs(oracles.fredholm_f2(6.0) - 1.0) < 1e-10


def test_fredholm_monotone():
    xs = np.linspace(-5, 2, 15)
    vals = [oracles.fredholm_f2(float(x)) for x in xs]
    assert np.all(np.diff(vals) > 0.0)
    assert all(0.0 < v < 1.0 + 1e-12 for v in vals)


def test_fredholm_f1_matches_painleve_f1(grid):
    for s in np.arange(-5.0, 3.0001, 0.25):
        assert abs(fredholm_f1(float(s))
                   - wm.tracy_widom(float(s), "F1", grid)) <= 1e-10


def test_resolvent_q_stable_in_m():
    # measured: 1.4e-12 relative at s = -4, 1e-14 at 0, 0 at 4
    for s in (-4.0, 0.0, 4.0):
        assert abs(oracles.resolvent_q(s) / oracles.resolvent_q(s, m=200)
                   - 1.0) <= 3e-12


def test_gram_schmidt_tiny_hand_case():
    nodes = np.array([-1.0, 0.0, 1.0])
    weights = np.ones(3)
    log_h = gram_schmidt_log_norms(nodes, weights, 2)
    assert np.allclose(np.exp(log_h), [3.0, 2.0, 2.0 / 3.0], rtol=1e-14)


def test_closed_form_integrals_vs_quadrature():
    # LUE N=1: int_0^inf x^2 e^{-x^2} = sqrt(pi)/4
    assert abs(math.exp(oracles.lue_log_integral(1)) - math.sqrt(math.pi) / 4) < 1e-14
    for n in (1, 2, 3):
        assert abs(oracles.gue_log_integral(n)
                   - gue_log_partition_quadrature(n)) < 1e-7


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_gue_log_integral_table_is_bit_identical(monkeypatch, order):
    # the per-process table of log norms sums the same terms with the same
    # sum as the direct form, whatever order the table grew in
    ns = list(range(1, 701))
    if order == "descending":
        ns.reverse()
    elif order == "shuffled":
        np.random.default_rng(5).shuffle(ns)
    monkeypatch.setattr(oracles, "_gue_terms", ())
    half_log_pi, log_2 = 0.5 * math.log(math.pi), math.log(2.0)
    for n in ns:
        direct = math.lgamma(n + 1) + sum(
            [half_log_pi + math.lgamma(k + 1) - k * log_2 for k in range(n)])
        assert oracles.gue_log_integral(n) == direct, n
    assert len(oracles._gue_terms) == 700


def test_stirling_series_matches_factorial():
    for n in (5, 25):
        direct = math.factorial(n) * (math.e / n) ** n / math.sqrt(2 * math.pi * n)
        assert math.isclose(stirling_series(n), direct, rel_tol=1e-12)


def test_brute_force_normalizes_to_one():
    assert abs(oracles.brute_force_height_cdf(2, 12.0, "absorbing") - 1.0) < 1e-9
    assert abs(oracles.brute_force_height_cdf(2, 12.0, "reflecting") - 1.0) < 1e-9


@pytest.mark.parametrize("N", [1, 2, 3])
def test_vandermonde_lattice_sum_matches_explicit_loops(N):
    y = np.array([-1.5, -0.25, 0.5, 0.75, 2.0, 3.0])
    g = np.array([0.3, 1.1, 0.7, 0.2, 0.9, 0.05])
    explicit = 0.0
    for idx in itertools.product(range(len(y)), repeat=N):
        term = math.prod(g[i] for i in idx)
        for j, k in itertools.combinations(idx, 2):
            term *= (y[j] - y[k]) ** 2
        explicit += term
    assert math.isclose(oracles.vandermonde_lattice_sum(y, g, N), explicit,
                        rel_tol=1e-13)


def test_vandermonde_lattice_sum_caps_N():
    for N in (0, 4):
        with pytest.raises(ValueError):
            oracles.vandermonde_lattice_sum(np.zeros(3), np.ones(3), N)
