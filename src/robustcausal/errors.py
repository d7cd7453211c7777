"""Exception types shared across the package.

Every error raised by the library derives from :class:`RobustCausalError`
so callers (and the CLI) can catch computation failures with a single
except clause and map them to a nonzero exit code.
"""

__all__ = [
    "RobustCausalError",
    "LengthMismatch",
    "NonFinite",
    "DuplicateName",
    "TooShort",
    "CsvFormatError",
    "ZeroVariance",
    "DegenerateBins",
    "EmptyHistogram",
    "LagTooLarge",
    "SingularDesign",
    "UnknownFormat",
    "VariableMismatch",
    "WindowTooLong",
    "TooManyWindows",
    "InvalidConfig",
]


class RobustCausalError(Exception):
    """Base class for all errors raised by this package."""


class LengthMismatch(RobustCausalError):
    """Series that must share a length do not."""


class NonFinite(RobustCausalError):
    """A value is NaN or infinite where finite data is required."""


class DuplicateName(RobustCausalError):
    """Two series in one dataset share a name."""


class TooShort(RobustCausalError):
    """A series is too short for the requested operation."""


class CsvFormatError(RobustCausalError):
    """A CSV file does not match the expected layout."""


class ZeroVariance(RobustCausalError):
    """A series is constant where spread is required."""


class DegenerateBins(RobustCausalError):
    """A bin count came out below the usable minimum of 2."""


class EmptyHistogram(RobustCausalError):
    """A histogram holds zero total counts."""


class LagTooLarge(RobustCausalError):
    """A lag is out of range for the available sample."""


class SingularDesign(RobustCausalError):
    """A regression design matrix is numerically singular."""


class UnknownFormat(RobustCausalError):
    """An export or import format name is not recognised."""


class VariableMismatch(RobustCausalError):
    """Two objects that must agree on their variable set do not."""


class WindowTooLong(RobustCausalError):
    """A subsample window does not fit inside the parent sample."""


class TooManyWindows(RobustCausalError):
    """Nonoverlapping windows cannot be packed into the sample."""


class InvalidConfig(RobustCausalError):
    """A configuration value violates its invariants."""
