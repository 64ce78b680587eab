"""Exception types shared across the package.

Validation failures (bad shapes, invalid parameter domains, malformed
files) derive from ValueError; numerical failures (ill conditioning,
degenerate kernels, failed decompositions) derive from ArithmeticError.
The command line layer maps the two families to distinct exit codes.
"""


class GaussBathError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(GaussBathError, ValueError):
    """Operands have incompatible or non-square shapes."""


class DomainError(GaussBathError, ValueError):
    """Input lies outside the mathematical domain of the operation."""


class CommutationError(DomainError):
    """A pair of operators required to commute does not."""


class KernelError(DomainError):
    """An operator fails to vanish on a required kernel subspace."""


class FormatError(GaussBathError, ValueError):
    """Malformed model file or report payload."""


class SingularityError(GaussBathError, ArithmeticError):
    """A matrix that must be inverted is singular or too ill conditioned."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class DegenerateKernelError(GaussBathError, ArithmeticError):
    """The Liouvillian kernel is not one dimensional."""

    def __init__(self, message, kernel_dim=None):
        super().__init__(message)
        self.kernel_dim = kernel_dim


class DecompositionError(GaussBathError, ArithmeticError):
    """A structured decomposition failed to reproduce its source."""


class TruncationWarning(UserWarning):
    """Fock-space cutoff too small for the requested simulation."""
