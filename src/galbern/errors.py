"""Exception types shared across the package."""


class GalbernError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GalbernError, ValueError):
    """Evaluation point lies outside the interval of definition."""


class QuadratureOrderError(GalbernError, ValueError):
    """Requested Gauss-Legendre order is outside the supported range."""


class ExprSyntaxError(GalbernError, ValueError):
    """Expression source could not be parsed.

    Attributes:
        offset: byte offset into the source where parsing failed.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(GalbernError, ArithmeticError):
    """Expression evaluation failed (division by zero, log of a negative, ...).

    Attributes:
        x: abscissa of the point state at which evaluation failed.
    """

    def __init__(self, message, x):
        super().__init__(f"{message} (at x = {x})")
        self.x = x


class SpecValidationError(GalbernError, ValueError):
    """A problem description violates a structural requirement."""


class AssemblyError(GalbernError, ArithmeticError):
    """A Galerkin system entry came out non-finite."""


class SingularSystemError(GalbernError, ArithmeticError):
    """Dense QR factorization left a negligible diagonal entry of R.

    Attributes:
        pivot_index: index k of the first diagonal entry R_kk below the
            threshold.
        pivot_value: magnitude |R_kk| of that entry.
    """

    def __init__(self, pivot_index, pivot_value):
        super().__init__(f"singular system: pivot {pivot_index} has magnitude {pivot_value:.3e}")
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value


class NonConvergenceError(GalbernError, ArithmeticError):
    """Lagged-nonlinearity iteration exhausted its iteration budget.

    Attributes:
        last_distances: the final two successive-iterate sup distances.
    """

    def __init__(self, iterations, last_distances):
        super().__init__(
            f"no convergence after {iterations} iterations; "
            f"last successive distances {tuple(last_distances)}"
        )
        self.iterations = iterations
        self.last_distances = tuple(last_distances)


class DivergenceError(GalbernError, ArithmeticError):
    """Lagged-nonlinearity iteration is blowing up."""

    def __init__(self, iterations, message="iteration diverged"):
        super().__init__(f"{message} (after {iterations} iterations)")
        self.iterations = iterations


class ProblemFileError(GalbernError, ValueError):
    """A problem file is malformed; the message names the section and key."""
