"""Exact verification of congruences for sums of binom(rk,k) x^k / k^d.

The package evaluates both sides of each congruence independently: brute
force summation on the left; on the right, power sums of the polynomials
whose roots are Moebius images of the roots of the root polynomial f, and
integer sequences that follow their linear recurrences, plus special
constants, all in exact arithmetic modulo p, p^2 or p^3.
"""

from .modring import (
    GaloisElt,
    GaloisRing,
    ModulusCtx,
    MonicPoly,
    RationalInput,
    ResidueInt,
    as_rational,
    residue_from_rational,
)
from .report import CongruenceReport, RunSummary

__version__ = "0.1.0"


def engine():
    """The label of the one interpreted engine (Python loops on Python ints).

    It stays "numpy" so that reports and benchmark runs stay comparable with
    earlier ones, which ran on NumPy arrays.
    """
    return "numpy"


__all__ = [
    "CongruenceReport",
    "GaloisElt",
    "GaloisRing",
    "ModulusCtx",
    "MonicPoly",
    "RationalInput",
    "ResidueInt",
    "RunSummary",
    "as_rational",
    "engine",
    "residue_from_rational",
    "__version__",
]
