"""Error taxonomy shared across the library.

Exit-code mapping used by the CLI: validation-type errors map to 2,
numeric-type errors to 3.
"""


class LevySteinError(Exception):
    """Base class for all library errors."""


class ValidationFailure(LevySteinError):
    """Base for errors that indicate bad inputs rather than bad numerics."""


class NumericFailure(LevySteinError):
    """Base for errors raised when a numeric procedure cannot deliver."""


class InvalidParams(ValidationFailure):
    """Parameter outside its admissible range."""


class AtomicMeasure(ValidationFailure):
    """Operation requires an absolutely continuous measure."""


class ZeroDenominator(ValidationFailure):
    """A ratio's denominator is zero (or numerically indistinguishable)."""


class ParseError(ValidationFailure):
    """Spec document is not well formed; message carries the location."""


class ValidationError(ValidationFailure):
    """Spec document is well formed but violates an invariant."""


class NonConvergence(NumericFailure):
    """Quadrature or tabulation failed to reach the requested tolerance.

    Carries the best available value and the achieved error estimate so
    callers can report how far off the result is.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class DivergentMoment(NumericFailure):
    """An integrability pre-check found a divergent (or absent) moment."""
