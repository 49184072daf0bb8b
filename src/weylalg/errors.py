"""Exception hierarchy for the engine.

Every failure mode that callers are expected to branch on gets its own
class. Each class carries the CLI's documented exit code as `exit_code`;
a subclass inherits its parent's code unless it sets its own.
"""


class WeylError(Exception):
    """Base class for all engine errors."""

    exit_code = 1


class ContextError(WeylError):
    """Operands built over different contexts, or invalid context parameters."""

    exit_code = 3


class OutputLimitError(WeylError):
    """A result number too long to print: past Python's integer-to-text digit limit."""

    exit_code = 3


class InternalError(WeylError):
    """An internal invariant was violated; indicates a bug, not bad input."""


# expression language / record files

class ExprError(WeylError):
    """Base class for parse-side failures."""


class ExprSyntaxError(ExprError):
    """Malformed expression text. Carries a 1-based line and column."""

    exit_code = 2

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownVariableError(ExprSyntaxError):
    """An identifier that is not i, h, or a variable valid for the context."""


class ExponentOverflowError(ExprSyntaxError):
    """Exponent literal beyond the supported bound."""


class RecordError(WeylError):
    """A record file with the right syntax but the wrong shape or schema."""

    exit_code = 3


# matrices

class MatrixError(WeylError):
    pass


class SingularMatrixError(MatrixError):
    """Matrix failed the exact invertibility check."""

    exit_code = 11


class NotSymplecticError(MatrixError):
    """M^T J M != J."""

    exit_code = 12


# automorphisms

class AutomorphismError(WeylError):
    pass


class InvalidImageError(AutomorphismError):
    """A generator image has a grade-0 component (not in X_1)."""

    exit_code = 10


class HbarScaleError(AutomorphismError):
    """Operation requires hbar_scale = 1."""

    exit_code = 13


class KernelPreconditionError(AutomorphismError):
    """log/exp requires identity linear part (resp. images of grade >= 2)."""

    exit_code = 14


class InnerGeneratorError(AutomorphismError):
    """Inner automorphism generator must lie in X_3."""

    exit_code = 10


# factorization

class FactorizationError(WeylError):
    pass


class LinearPartNotInvertibleError(FactorizationError):
    exit_code = 11


class LinearPartNotSymplecticError(FactorizationError):
    exit_code = 12


class ClosednessError(FactorizationError):
    """A grade of the generator has a gradient 1-form that is not closed.

    At a generator grade up to the truncation order N the input was not a
    morphism: the relations at grade g + 1 <= N force the grade-g part of
    log(phi) to be closed. At grade N + 1 no relation survives the
    truncation, so the input may be an automorphism of the truncated
    algebra that is not the truncation of any pullback(M) o inner(S). The
    message names the lowest failing grade of the generator and the
    variable where the check failed.
    """

    exit_code = 14


class ResidualMismatchError(FactorizationError):
    """Recomposed factorization does not reproduce the input (internal inconsistency)."""

    exit_code = 15
