"""Exception types shared across the package.

Violations of proved statements are hard errors (they indicate a bug in this
code, never "interesting data"), and derive from TheoremViolation so callers
can catch the whole family.  Everything conjectural is reported as data by
the scan functions instead of being raised.
"""


class LZeroError(Exception):
    """Base class for package errors."""


class IncompatibleOrders(LZeroError):
    """Cyclotomic operands whose orders cannot be merged (k does not divide K)."""


class ImprimitiveInput(LZeroError):
    """A primitive character was required but conductor < modulus."""


class NonIntegralResult(LZeroError):
    """A quantity that must be a nonnegative integer failed to be one."""


class NoOrderPCharacter(LZeroError):
    """No character of order p mod q exists (p does not divide q - 1)."""


class PrecisionExhausted(LZeroError):
    """The p-adic precision ladder hit its cap without deciding the question."""


class TheoremViolation(LZeroError):
    """A mechanically checked proved statement failed.  Always a bug."""


class ClassificationViolation(TheoremViolation):
    """A p-adic integrality verdict contradicts the conductor/tame-part law."""


class IntegralityViolation(TheoremViolation):
    """An element that is provably an algebraic integer has a denominator."""


class CongruenceViolation(TheoremViolation):
    """A proved congruence between exact quantities failed."""
