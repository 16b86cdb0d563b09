"""Exact and asymptotic maximal heights of nonintersecting Brownian motions.

Core pieces: a Painleve II / Tracy-Widom solver, a discrete Gaussian
orthogonal polynomial engine, exact watermelon height CDFs, the critical
saturation kernel, and harnesses comparing every closed-form asymptotic
expansion against exact computations.

The public names below load their module on first use (PEP 562), so
``import watermelon`` loads none of them and a CLI command loads only the
modules it calls.
"""

from importlib import import_module

_PUBLIC = {
    "asym": ("asymptotic_A", "asymptotic_h", "exact_h_ratios",
             "free_energy_comparison", "kernel_table_distance",
             "kernel_limit_table", "ratio_asymptotics", "s_of_a",
             "subcritical_h"),
    "dgop": ("OrthoSystem", "build_lattice", "build_system", "cd_kernel",
             "cd_kernel_matrix", "correlation_det", "lattice_nodes",
             "partition_and_free_energy", "rescale_check", "stieltjes",
             "toda_residual"),
    "errors": ("ConvergenceError", "CoverageError", "PrecisionError",
               "WatermelonError", "WindowError"),
    "heights": ("HeightDistribution", "convergence_study",
                "deformation_identity_check", "height_cdf", "log_height_cdf",
                "rescaled_cdf", "small_a_check", "tabulate_rescaled"),
    "oracles": ("gue_free_energy", "riemann_sum_order"),
    "painleve": ("PainleveGrid", "airy_ai", "build_grid", "tracy_widom"),
    "psikernel": ("PsiSolution", "compatibility_defect", "critical_kernel",
                  "integrate_psi", "kernel_integral_form"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)
# the submodules the package has always bound as attributes
_SUBMODULES = {*_PUBLIC, "tableio"}


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name == "__version__":
        return import_module(".tableio", __name__).TOOL_VERSION
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__) | {"__version__"})
