"""Exception types shared across the package."""


class ExunitsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ExunitsError, ValueError):
    """An argument lies outside an operation's domain."""


class NotInvertibleError(DomainError):
    """A modular inverse was requested for a non-unit."""


class BudgetExceededError(ExunitsError):
    """A computation would exceed one of the fixed work budgets."""


class FastPathInapplicableError(ExunitsError):
    """A closed-form fast path was requested but its preconditions fail."""


class InvariantViolationError(ExunitsError):
    """An internal exactness invariant failed; this indicates a bug, not bad input."""
