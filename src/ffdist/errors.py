"""Exception types shared across the package.

Every error raised by ffdist derives from FFDistError, so callers can
catch the whole family at once.  One kind of refusal is one class: every
bad request is one ConfigError (CLI exit 2), every cap violation one
CapExceeded (exit 3).
"""


class FFDistError(Exception):
    """Base class for all package errors."""


# --- resource caps ----------------------------------------------------------

class CapExceeded(FFDistError):
    """A grid, table or set over the grid cap, or #E * #F over the pair cap (CLI exit 3)."""


# --- configuration ----------------------------------------------------------

class ConfigError(FFDistError):
    """A bad request (exit 2): q not an odd prime in [3, 2**20], a non-integer value, a spec,
    size or point list its contract refuses, or F_q^s past int64 radix indices."""


# --- set / distribution contracts -------------------------------------------

class FieldMismatch(FFDistError):
    """Data over one (q, s) meets a field or data over another, or an array of the wrong shape."""


class RoundingDrift(FFDistError):
    """Spectral counts too far from integers; precision lost."""


# --- file I/O ---------------------------------------------------------------

class ParseError(FFDistError):
    """Malformed point-set file, out-of-range values included; message carries the line number."""


class DuplicatePoint(FFDistError):
    """A point appears twice in a set; row is its second input row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row
