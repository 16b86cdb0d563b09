"""Exception types shared across the package."""


class WatermelonError(Exception):
    """Base class for all numerical and usage failures raised here."""


class ConvergenceError(WatermelonError):
    """An iterative solver did not reach its tolerance."""


class WindowError(WatermelonError):
    """A lattice window holds too few nodes, or more than the node bound."""


class CoverageError(WatermelonError):
    """An evaluation point lies outside the tabulated grid."""


class PrecisionError(WatermelonError):
    """The request lies beyond the range double precision can represent."""
