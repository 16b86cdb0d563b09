"""Exact and asymptotic maximal heights of nonintersecting Brownian motions.

Core pieces: a Painleve II / Tracy-Widom solver, a discrete Gaussian
orthogonal polynomial engine, exact watermelon height CDFs, the critical
saturation kernel, and harnesses comparing every closed-form asymptotic
expansion against exact computations.
"""

from .asym import (EquilibriumData, asymptotic_A, asymptotic_h,
                   build_equilibrium, exact_h_ratios, free_energy_comparison,
                   kernel_table_distance, kernel_limit_table,
                   ratio_asymptotics, s_of_a, subcritical_h)
from .dgop import (OrthoSystem, build_lattice, build_system, cd_kernel,
                   cd_kernel_matrix, correlation_det, gue_free_energy,
                   lattice_nodes, partition_and_free_energy, rescale_check,
                   stieltjes, toda_residual)
from .errors import (ConvergenceError, CoverageError, OrderFitError,
                     PrecisionError, TailClosureError, WatermelonError,
                     WindowError)
from .heights import (HeightDistribution, convergence_study,
                      deformation_identity_check, height_cdf, log_height_cdf,
                      rescaled_cdf, riemann_sum_order, small_a_check,
                      tabulate_rescaled)
from .painleve import (PainleveGrid, accumulate_tails, airy_ai, build_grid,
                       solve_hastings_mcleod, tracy_widom)
from .psikernel import (PsiSolution, compatibility_defect, critical_kernel,
                        integrate_psi, kernel_integral_form)
from .tableio import TOOL_VERSION as __version__
