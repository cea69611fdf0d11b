"""Brute-force left-hand sides: sum of binom(rk,k) * x^k / k^d over k ranges.

Binomial coefficients are taken exactly (big integers) and reduced mod p^e,
so the tables are immune to p-adic valuation mistakes; an O(p) kernel then
accumulates the weighted geometric sum, for one x (lhs_sum) or for a list
of x over one table of terms (lhs_sums).  Tables are cached tuples of
Python ints.  Ranges follow the vanishing pattern of binom(rk,k) mod p:
inside [0, p) the coefficient is a unit only on the intervals
A(r,m) = { k : (m-1)p/(r-1) <= k < mp/r } for 0 < m < r.
"""

import functools
import math
from dataclasses import dataclass

from . import kernels
from .errors import ZeroInRange
from .finlog import _weights
from .modring import ResidueInt, as_rational, residue_from_rational


@dataclass(frozen=True)
class SumRange:
    """Half-open integer interval [lo, hi) of summation indices."""

    lo: int
    hi: int

    def __contains__(self, k):
        return self.lo <= k < self.hi

    def __len__(self):
        return max(self.hi - self.lo, 0)


def range_A(r, m, p):
    """A(r,m): the m-th window where binom(rk,k) is a unit mod p."""
    if not (1 <= m < r):
        raise ValueError(f"need 1 <= m < r, got m={m}, r={r}")
    lo = -((-(m - 1) * p) // (r - 1))  # ceil((m-1)p/(r-1))
    hi = -((-m * p) // r)              # ceil(mp/r)
    return SumRange(lo, hi)


def range_A_star(r, m, p):
    rng = range_A(r, m, p)
    return SumRange(max(rng.lo, 1), rng.hi)


def full_range(p, include_zero=False):
    return SumRange(0 if include_zero else 1, p)


def short_range(r, p, include_zero=False):
    hi = -((-p) // r)  # ceil(p/r)
    return SumRange(0 if include_zero else 1, hi)


@functools.lru_cache(maxsize=None)
def binom_table(r, p, e):
    """binom(rk,k) mod p^e for 0 <= k < p, from exact integer binomials."""
    m = p ** e
    return tuple(math.comb(r * k, k) % m for k in range(p))


@functools.lru_cache(maxsize=None)
def _k_weights(p, e, d):
    """k^-d mod p^e for 0 <= k < p; the k = 0 entry is 1, read only when d = 0."""
    return (1,) + _weights(p, e, d)


def _terms(r, d, sum_range, ctx):
    """(binom(rk,k) table, k^-d weights) for a range, or None when it is empty."""
    if d not in (0, 1, 2):
        raise ValueError(f"unsupported inverse-power order d={d}")
    if d >= 1 and sum_range.lo <= 0 < sum_range.hi:
        raise ZeroInRange(f"range {sum_range} contains k=0 but d={d}")
    if len(sum_range) == 0:
        return None
    if sum_range.hi > ctx.p:
        raise ValueError(f"range {sum_range} exceeds k < p = {ctx.p}")
    return binom_table(r, ctx.p, ctx.e), _k_weights(ctx.p, ctx.e, d)


def _residue(x, ctx):
    return residue_from_rational(as_rational(x), ctx).value


def lhs_sum(r, x, d, sum_range, ctx):
    """sum_{k in range} binom(rk,k) * x^k * k^-d mod p^e."""
    terms = _terms(r, d, sum_range, ctx)
    if terms is None:
        return ResidueInt(0, ctx)
    value = kernels.weighted_geometric_sum(
        *terms, _residue(x, ctx), sum_range.lo, sum_range.hi, ctx.modulus
    )
    return ResidueInt(value, ctx)


def lhs_sums(r, xs, d, sum_range, ctx):
    """lhs_sum's value for every x in xs, as a list of ints mod p^e.

    The table of terms binom(rk,k) k^-d is formed once for all x.
    """
    terms = _terms(r, d, sum_range, ctx)
    if terms is None or not xs:
        return [0] * len(xs)
    xv = [_residue(x, ctx) for x in xs]
    return kernels.weighted_geometric_sum(
        *terms, xv, sum_range.lo, sum_range.hi, ctx.modulus
    )
