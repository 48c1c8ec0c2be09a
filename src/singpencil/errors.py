"""Exception hierarchy for the library."""


class SingPencilError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SingPencilError):
    """Operands have incompatible shapes."""


class NonFiniteInput(SingPencilError):
    """A pencil matrix holds an inf or NaN entry."""


class FactorizationError(SingPencilError):
    """The rank-detecting LU could not be formed or applied."""


class ConvergenceError(SingPencilError):
    """An iterative dense eigenvalue computation did not converge."""


class StartVectorError(SingPencilError):
    """Arnoldi start vector lies in the kernel of the seminorm."""


class PurificationError(SingPencilError):
    """The vector to purify lies entirely in the operator nullspace."""
