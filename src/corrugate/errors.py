"""Exception hierarchy with stable process exit codes.

Exit-code contract: 0 success, 2 validation/input error, 3 numerical
nonconvergence, 4 capability error (operation outside supported scope).
"""


class CorrugateError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    #: the record of the work an aborted run completed, set by that run
    partial_report = None


class InputError(CorrugateError):
    """Invalid or inconsistent input (bad values, grid mismatch, non-SPD matrix)."""

    exit_code = 2


class CapabilityError(CorrugateError):
    """Request outside the supported scope (derivative order, codimension, dim)."""

    exit_code = 4


class NonconvergenceError(CorrugateError):
    """An iterative search or flow failed to converge within its caps."""

    exit_code = 3


class AliasingError(InputError):
    """Downsampling would discard spectral content above the target bandwidth."""


class ResolutionError(InputError):
    """Grid too coarse for the requested oscillation frequency."""


class SingularityError(InputError):
    """Linear system is rank deficient beyond the pivot floor."""


class CoverageError(NonconvergenceError):
    """Patch decomposition failed to cover the chart with valid primitives."""


class PropagationError(NonconvergenceError):
    """No periodic normal frame: the normal bundle's Euler number is not 0."""


class StageError(NonconvergenceError):
    """A corrugation stage violated its inductive guarantees mid-run."""


class ConsistencyError(NonconvergenceError):
    """An a-posteriori identity check failed beyond tolerance."""


class DivergenceError(NonconvergenceError):
    """Flow residual stopped decaying."""
