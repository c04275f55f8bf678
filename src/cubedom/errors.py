"""Exception types shared across the package, one per non-zero exit code."""


class InvalidParametersError(ValueError):
    """Arguments violate a precondition (bad range, wrong cardinality, ...)."""


class TooLargeError(RuntimeError):
    """An enumeration, materialization or search-node cap would be exceeded."""


class CheckFailedError(RuntimeError):
    """A computed result contradicts a check: a theorem check in a sweep, a
    solver witness that fails re-verification, bounds that do not nest, or
    a counting identity."""
