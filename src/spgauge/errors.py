"""Exception types raised by the library.

Every error is an SpgaugeError of one of three kinds, and no caller needs
to tell more apart: the input is outside the domain and other input is
needed (OutOfRange); the printed convention breaks (NonIntegralGenerator);
or two routes disagree, which is a bug (OracleMismatch).  A theorem's
failed guard is no error: the verdict reads not-determined.  The message
names the value at fault.
"""


class SpgaugeError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(SpgaugeError):
    """An input outside the operation's domain, or a field that a record
    cannot hold."""


class NonIntegralGenerator(SpgaugeError):
    """A scaled image generator failed its integrality check."""


class OracleMismatch(SpgaugeError):
    """Two independent computation routes disagreed; always a bug."""
