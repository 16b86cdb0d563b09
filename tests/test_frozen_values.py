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

    # re-pinned when log P was assembled relative to its M -> inf limit on
    # the row-buffer pass: 1.2e-10 (absorbing) and 9.9e-11 (reflecting)
    # from the 60-digit values, the old pins 3.2e-10 and 7.4e-9
    close(wm.log_height_cdf(8, 5.0, "absorbing"), -2.0931909342821623e-05, 1e-13)
    close(wm.log_height_cdf(8, 5.0, "reflecting"), -4.5632998194053166e-06, 1e-13)

    # re-pinned when the psi amplitude became the fitted mean at infinity
    # and q' started summing its tail integral downward, and again when the
    # Magnus zeta-solve replaced DOP853 (the old pin carried DOP853's own
    # 1e-11 error; this one is within 2.5e-13 of DOP853 at rtol 2.3e-14)
    for got, want in zip(psis_critical.phi_prime_at(0.7),
                         (-3.457624556187918, 0.09806780961588851)):
        close(got, want, 1e-12)
    # re-pinned when the compatibility check's edge flows moved from DOP853
    # at rtol 1e-13 to Magnus s-steps: the Magnus sweeps from DOP853 edge
    # data at rtol 2.3e-14 read 1.8e-10 relative away (the old pin 5.4e-10)
    close(wm.compatibility_defect(1.0, 0.02, grid), 0.00032415544279373876, 1e-12)


def test_constant_settings_frozen_values(grid):
    """Values of the functions whose settings became module constants."""
    from watermelon import heights

    def close(got, want, rel):
        assert math.isclose(got, want, rel_tol=rel), (got, want)

    # re-pinned when Magnus s-flows replaced the DOP853 flow at rtol 1e-10
    # (2.6e-13 from DOP853 at rtol 1e-13, atol 1e-15; the old pin 1.1e-12)
    psis = wm.integrate_psi(0.5, grid, zeta_max=8)
    close(wm.kernel_integral_form(0.4, -0.3, psis, grid),
          0.2739853539398912, 1e-12)
    # re-pinned with the Magnus edge flows, which land on the value from
    # DOP853 edge data at rtol 2.3e-14 (the old pin 1.5e-10 relative away)
    close(wm.compatibility_defect(-1.5, 0.03, grid),
          0.0003944516247329499, 1e-12)
    # re-pinned with the height pins: 4.6e-13 from the exact 1 - P (the old
    # pin 5.2e-13)
    close(wm.small_a_check(2, [0.5])[0]["one_minus_p"],
          0.0009118359664526324, 1e-13)
    close(heights._riemann_sum(2, 0.2, "LUE"), 0.5890486225480864, 1e-15)
