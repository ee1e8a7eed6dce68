"""Exception types shared across the package."""

__all__ = [
    "ValidationError",
    "ConditioningError",
    "QuadratureError",
    "ParseError",
    "EvalError",
]


class ValidationError(ValueError):
    """Bad geometry, bad file content, or arguments outside a contract.

    ``path`` optionally locates the offending element inside a document,
    e.g. ``loops[0][2].weights[1]``; ``message`` is the text without it, so
    a reader can locate the error again inside a larger document.
    """

    def __init__(self, message, path=None):
        self.message = message
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class ConditioningError(RuntimeError):
    """A moment or collocation system was too ill-conditioned to trust."""

    def __init__(self, message, condition_estimate=None):
        self.condition_estimate = condition_estimate
        if condition_estimate is not None:
            message = f"{message} (condition estimate {condition_estimate:.3e})"
        super().__init__(message)


class QuadratureError(RuntimeError):
    """Numeric failure while building or applying a rule.

    ``point`` optionally holds the coordinates where the integrand failed.
    """

    def __init__(self, message, point=None):
        self.point = point
        if point is not None:
            message = f"{message}, point ({', '.join(f'{v:.17g}' for v in point)})"
        super().__init__(message)


class ParseError(ValueError):
    """Malformed integrand expression; the message carries an offset."""


class EvalError(RuntimeError):
    """Domain violation while evaluating an expression at a point."""
