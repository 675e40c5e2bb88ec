"""Exception types shared across the package.

Every error raised by ffdist derives from FFDistError, so callers can
catch the whole family at once.  Every cap violation is one CapExceeded,
which the CLI maps to its own exit code.
"""


class FFDistError(Exception):
    """Base class for all package errors."""


# --- modulus validation -----------------------------------------------------

class BadModulus(FFDistError):
    """q is not an odd prime in [3, 2**20]; the message says which test failed."""


# --- resource caps ----------------------------------------------------------

class CapExceeded(FFDistError):
    """A grid, table or set over the grid cap, or #E * #F over the pair cap (CLI exit 3)."""


# --- configuration ----------------------------------------------------------

class ConfigError(FFDistError):
    """Invalid field, sweep or verify configuration, or F_q^s past int64 radix indices (exit 2)."""


# --- set / distribution contracts -------------------------------------------

class FieldMismatch(FFDistError):
    """Data over one (q, s) meets a field or data over another, or an array of the wrong shape."""


class RoundingDrift(FFDistError):
    """Spectral counts too far from integers; precision lost."""


# --- generators and file I/O ------------------------------------------------

class BadGenerator(FFDistError):
    """Generator spec violates its preconditions, a size outside [1, support] included."""


class ParseError(FFDistError):
    """Malformed point-set file, out-of-range values included; message carries the line number."""


class DuplicatePoint(FFDistError):
    """A point appears twice in a set; row is its second input row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row

