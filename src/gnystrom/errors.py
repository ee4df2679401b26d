"""Exception hierarchy shared across the package.

Two broad families matter to callers: ``InputError`` (bad arguments, bad
files) and ``NumericalError`` (a well-posed computation failed numerically).
The command line maps them to exit codes 2 and 3 respectively.
"""


class GNystromError(Exception):
    """Base class for every error raised by this package."""


class InputError(GNystromError, ValueError):
    """Invalid argument: bad shape, out-of-range index, malformed value."""


class ParseError(InputError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        detail = message
        if path is not None:
            detail = f"{path}: {detail}"
        if line is not None:
            detail = f"{detail} (line {line})"
        super().__init__(detail)
        self.path = path
        self.line = line


class NumericalError(GNystromError, RuntimeError):
    """A computation failed for numerical reasons."""


class DegenerateBandwidthError(NumericalError):
    """All samples coincide, so the mean pairwise distance is zero."""


class UndefinedAlignmentError(NumericalError):
    """Kernel alignment is undefined because a centered operand is zero."""


class ModelFormatError(InputError):
    """A serialized model file is corrupt or violates model invariants."""
