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

    # re-pinned when the psi amplitude became the fitted mean at infinity
    # and q' started summing its tail integral downward, and again when the
    # Magnus zeta-solve replaced DOP853 (the old pin carried DOP853's own
    # 1e-11 error; this one is within 2.5e-13 of DOP853 at rtol 2.3e-14)
    for got, want in zip(psis_critical.phi_prime_at(0.7),
                         (-3.457624556187918, 0.09806780961588851)):
        close(got, want, 1e-12)
    # re-pinned when the compatibility check's inward sweeps moved from
    # DOP853 at rtol 1e-12 to the Magnus mesh (DOP853 at rtol 2.3e-14 is
    # 4.9e-9 relative away; the old pin 3.1e-8)
    close(wm.compatibility_defect(1.0, 0.02, grid), 0.0003241554429089799, 1e-12)


def test_constant_settings_frozen_values(grid):
    """Values of the functions whose settings became module constants."""
    from watermelon import heights

    def close(got, want, rel):
        assert math.isclose(got, want, rel_tol=rel), (got, want)

    # re-pinned when the Magnus zeta-solve replaced DOP853 at rtol 1e-10
    close(wm.kernel_integral_form(0.4, -0.3, 0.5, grid),
          0.2739853539390257, 1e-12)
    # re-pinned with the Magnus inward sweeps (3.1e-9 relative from DOP853
    # at rtol 2.3e-14; the old pin 2.8e-8)
    close(wm.compatibility_defect(-1.5, 0.03, grid),
          0.0003944516246756624, 1e-12)
    close(wm.small_a_check(2, [0.5])[0]["one_minus_p"],
          0.0009118359664525735, 1e-13)
    close(heights._riemann_sum(2, 0.2, "LUE"), 0.5890486225480864, 1e-15)
