"""Exception types shared across the package."""


class AutorbitsError(Exception):
    """Base class for all package errors."""


class SizeMismatchError(AutorbitsError):
    """Two objects that must agree on vertex count do not."""


class InvalidPartitionError(AutorbitsError):
    """A partition's classes and class map are inconsistent or incomplete."""


class NotDiscreteError(AutorbitsError):
    """An operation requiring an all-singleton coloring got a coarser one."""


class SizeLimitError(AutorbitsError):
    """Brute-force enumeration refused an input above the configured cap."""


class ResourceLimitError(AutorbitsError):
    """A run exhausted memory or recursion depth, or an input is too large."""


class InternalInvariantError(AutorbitsError):
    """The engine produced something that fails its own soundness gates."""


class ParseError(AutorbitsError):
    """Malformed input document, annotated with a position when known."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}: " if col is None else f"line {line}, col {col}: "
        super().__init__(where + message)
