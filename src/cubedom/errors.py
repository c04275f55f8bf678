"""Exception types shared across the package."""


class InvalidParametersError(ValueError):
    """Arguments violate a precondition (bad range, wrong cardinality, ...)."""


class TooLargeError(RuntimeError):
    """An enumeration or materialization cap would be exceeded."""


class BudgetExceededError(RuntimeError):
    """A search exhausted its node budget without an answer."""


class CheckFailedError(RuntimeError):
    """A computed result contradicts a check: a theorem check in a sweep, a
    solver witness that fails re-verification, or a counting identity."""
