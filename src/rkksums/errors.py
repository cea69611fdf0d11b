"""Exception taxonomy shared across the package."""


class RkksumsError(Exception):
    """Base class for all errors raised by this package."""


class DenominatorNotUnit(RkksumsError):
    """A rational input has a denominator divisible by p."""


class NotAUnit(RkksumsError):
    """Inversion was requested for a non-unit ring element."""


class XNotUnit(RkksumsError):
    """The evaluation point x is divisible by p."""


class NotSquarefree(RkksumsError):
    """A polynomial expected to be squarefree has a repeated factor."""


class NotCoprime(RkksumsError):
    """Factors expected to be pairwise coprime mod p are not."""


class DegenerateDivisionFailure(RkksumsError):
    """Dividing out the rational double root left a nonzero remainder."""


class ZeroInRange(RkksumsError):
    """A summation range contains k = 0 but the summand divides by k."""


class NonUnitDenominator(RkksumsError):
    """A theorem denominator is not invertible in some factor ring."""


class DivisibilityFailure(RkksumsError):
    """A bracket certified to be divisible by a power of p is not."""


class ConfigError(RkksumsError):
    """Invalid run configuration."""


class ModulusTooLarge(RkksumsError, ValueError):
    """p^e exceeds the largest modulus the int64 kernels can carry."""
