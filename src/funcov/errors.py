"""Exception types shared across the package."""


class FuncovError(ValueError):
    """Base class for errors raised by this package."""


class DomainError(FuncovError):
    """A time value lies outside the fitted domain."""


class SingularSystemError(FuncovError):
    """A normal system could not be solved: its design does not determine it.

    Raised when a response's mean smoothing is singular at every grid
    value, when a covariance block's system is not positive definite at
    its selected penalty, and for an auto covariance block in which no
    subject observes the response twice. The message names the response
    or the block.
    """


class DataFormatError(FuncovError):
    """Input data violated the expected schema.

    Attributes
    ----------
    rows : list of (int, str)
        Offending line numbers (1-based, including the header) paired
        with a short description of the problem.
    """

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = list(rows) if rows else []
