"""Exception types shared across the package.

Every error raised by ffdist derives from FFDistError, so callers can
catch the whole family at once.  Cap violations get their own branch
because the CLI maps them to a dedicated exit code.
"""


class FFDistError(Exception):
    """Base class for all package errors."""


# --- modulus validation -----------------------------------------------------

class BadModulus(FFDistError):
    """q is not an odd prime in [3, 2**20]; the message says which test failed."""


# --- arithmetic -------------------------------------------------------------

class ZeroInverse(FFDistError):
    """Multiplicative inverse of 0 requested."""


# --- resource caps ----------------------------------------------------------

class CapError(FFDistError):
    """Common parent of the two cap violations (CLI exit code 3)."""


class CapExceeded(CapError):
    """Grid size q**s over the configured cap."""


class PairCapExceeded(CapError):
    """#E * #F over the configured pair cap."""


# --- configuration ----------------------------------------------------------

class ConfigError(FFDistError):
    """Invalid field, sweep or verify configuration (CLI exit code 2)."""


# --- set / distribution contracts -------------------------------------------

class FieldMismatch(FFDistError):
    """Two point sets built over different (q, s)."""


class RoundingDrift(FFDistError):
    """Spectral counts too far from integers; precision lost."""


class EmptyOffzeroSupport(FFDistError):
    """All off-zero counts vanish; support bound undefined."""


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


class UnindexableSpace(FFDistError):
    """F_q^s has s < 1 or more than 2**63 - 1 points, past int64 radix indices."""
