"""Exception types raised by the library.

Every declared failure mode gets its own class so callers and tests can
distinguish them; all inherit from SpgaugeError.
"""


class SpgaugeError(Exception):
    """Base class for all errors raised by this package."""


class ZeroArgument(SpgaugeError):
    """An operation that needs a nonzero integer received zero."""


class NotPrime(SpgaugeError):
    """A parameter that must be prime is not."""


class EvenPrime(SpgaugeError):
    """The prime 2 was passed to an odd-primes-only operation."""


class AllZero(SpgaugeError):
    """A rational-gcd query where every input is zero (or the list is empty)."""


class OutOfRange(SpgaugeError):
    """An index outside the valid range of the operation."""


class NonIntegralGenerator(SpgaugeError):
    """A scaled image generator failed its integrality check."""


class GuardFailed(SpgaugeError):
    """A theorem guard does not hold for the requested parameters."""


class DimensionMismatch(SpgaugeError):
    """Matrix/vector shapes do not line up."""


class OddRank(SpgaugeError):
    """An even-rank-only pipeline was asked about an odd rank."""


class BadDimension(SpgaugeError):
    """A Spin classification query in a dimension the criterion excludes."""


class OracleMismatch(SpgaugeError):
    """Two independent computation routes disagreed; always a bug."""
