"""Exception types shared across the package."""


class SjkError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(SjkError):
    """A gamma-type function was evaluated at a non-positive integer."""


class DomainError(SjkError):
    """A generalized series lies outside the domain of the integral transform."""


class ParamError(SjkError):
    """Inadmissible parameters for a series family or hypergeometric spec."""


class InternalError(SjkError):
    """An internal consistency check failed; indicates a bug, not bad input."""
