"""Exception types raised by the library.

Every error is an SpgaugeError of one of two kinds, and no caller needs
to tell more apart: the input is outside the domain and other input is
needed (OutOfRange), or the printed convention breaks
(NonIntegralGenerator).  Two routes that disagree raise nothing: verify
reports the disagreement as a failed check.  A theorem's failed guard is
no error either: the verdict reads not-determined.  The message names the
value at fault.
"""


class SpgaugeError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(SpgaugeError):
    """An input outside the operation's domain, or a field that a record
    cannot hold."""


class NonIntegralGenerator(SpgaugeError):
    """A scaled image generator failed its integrality check."""
