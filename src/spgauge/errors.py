"""Exception types raised by the library.

Every error is an SpgaugeError of one of four kinds, and no caller needs
to tell more apart: the input is outside the domain and other input is
needed (OutOfRange); the input is in the domain but the theorem's guard
fails there, so there is no answer (GuardFailed); the printed convention
breaks (NonIntegralGenerator); or two routes disagree, which is a bug
(OracleMismatch).  The message names the value at fault.
"""


class SpgaugeError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(SpgaugeError):
    """An input outside the operation's domain, or a field that a record
    cannot hold."""


class GuardFailed(SpgaugeError):
    """A theorem guard does not hold for the requested parameters."""


class NonIntegralGenerator(SpgaugeError):
    """A scaled image generator failed its integrality check."""


class OracleMismatch(SpgaugeError):
    """Two independent computation routes disagreed; always a bug."""
