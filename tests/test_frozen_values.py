"""Values pinned before the closed forms were folded into one copy each.

Closed forms at rel 1e-15, recurrence values at 1e-13, ODE values at 1e-12.
"""

import math

import watermelon as wm
from watermelon import dgop


def test_folded_formulas_frozen_values(grid, psis_critical):
    def close(got, want, rel):
        assert math.isclose(got, want, rel_tol=rel), (got, want)

    for n, want in ((1, -0.5723649429247001), (32, -0.772930873858382),
                    (672, -2.1694979810464963)):
        close(dgop.gue_free_energy(n), want, 1e-15)

    sub = wm.subcritical_h(40, 0.5)
    for key, want in (("log_h_nn", -102.81069958469418),
                      ("log_inv_h_nnm1", 101.21438699373459),
                      ("log_hermite_n", -102.81069958477599),
                      ("log_hermite_nm1", -101.21438699363712)):
        close(sub[key], want, 1e-15)

    for got, want in zip(wm.asymptotic_h(64, 0.0, 1.0, grid),
                         (-209.70310213248035, 207.68622441217275)):
        close(got, want, 1e-12)

    close(wm.log_height_cdf(8, 5.0, "absorbing"), -2.0931909318733233e-05, 1e-13)
    close(wm.log_height_cdf(8, 5.0, "reflecting"), -4.563299853543867e-06, 1e-13)

    for got, want in zip(psis_critical.phi_prime_at(0.7),
                         (-3.4545976030732306, 0.09798195684258079)):
        close(got, want, 1e-12)
    close(wm.compatibility_defect(1.0, 0.02, grid), 0.00032415543117791934, 1e-12)
