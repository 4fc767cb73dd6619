"""Exception types shared across the package."""


class LumpwalkError(Exception):
    """Base class for all package errors."""


class DomainError(LumpwalkError):
    """A precondition on the mathematical inputs is violated."""


class ResourceError(LumpwalkError):
    """A configured size cap would be exceeded."""


class InputFormatError(LumpwalkError):
    """An input file or literal does not match its grammar."""


class InvariantError(LumpwalkError):
    """An internal invariant failed; this is a bug, not bad input."""
