"""Brute-force left-hand sides: sum of binom(rk,k) * x^k / k^d over k ranges.

Binomial coefficients are taken exactly (big integers) and reduced mod p^e,
so the tables are immune to p-adic valuation mistakes.  The coefficients
binom(rk,k) * k^-d of one range are cached as one tuple in Horner order,
and lhs_sum evaluates that polynomial at x with one O(p) Horner loop,
returning the residue as a plain int in [0, p^e).  The k^-d weights are
the LHS's own: nothing here reads a table of the right-hand side.  Ranges
are built-in range objects and follow the vanishing pattern of
binom(rk,k) mod p: inside [0, p) the coefficient is a unit only on the
intervals A(r,m) = { k : (m-1)p/(r-1) <= k < mp/r } for 0 < m < r.
"""

import functools
import math

from . import kernels
from .errors import ZeroInRange
from .modring import residue_from_rational


def range_A(r, m, p):
    """A(r,m): the m-th window where binom(rk,k) is a unit mod p."""
    if not (1 <= m < r):
        raise ValueError(f"need 1 <= m < r, got m={m}, r={r}")
    lo = -((-(m - 1) * p) // (r - 1))  # ceil((m-1)p/(r-1))
    hi = -((-m * p) // r)              # ceil(mp/r)
    return range(lo, hi)


def range_A_star(r, m, p):
    rng = range_A(r, m, p)
    return range(max(rng.start, 1), rng.stop)


def full_range(p, include_zero=False):
    return range(0 if include_zero else 1, p)


def short_range(r, p, include_zero=False):
    return range(0 if include_zero else 1, -((-p) // r))  # up to ceil(p/r)


@functools.lru_cache(maxsize=None)
def binom_table(r, p, e):
    """binom(rk,k) mod p^e for 0 <= k < p, from exact integer binomials."""
    m = p ** e
    return tuple(math.comb(r * k, k) % m for k in range(p))


@functools.lru_cache(maxsize=64)
def lhs_coefficients(r, p, e, d, lo, hi):
    """binom(rk,k) * k^-d mod p^e for k = hi-1 down to lo: Horner order.

    Zeros at the top are dropped, so Horner's rule starts at the highest
    nonzero term; at e = 1 and r >= 2, binom(rk,k) vanishes for every
    k >= (r-1)p/r.
    """
    m = p ** e
    table = binom_table(r, p, e)
    terms = [table[k] * pow(k, -d, m) % m for k in range(lo, hi)]
    while terms and not terms[-1]:
        terms.pop()
    return tuple(reversed(terms))


def lhs_sum(r, x, d, sum_range, ctx):
    """sum_{k in range} binom(rk,k) * x^k * k^-d mod p^e, an int in [0, p^e)."""
    if d not in (0, 1, 2):
        raise ValueError(f"unsupported inverse-power order d={d}")
    if d >= 1 and 0 in sum_range:
        raise ZeroInRange(f"range {sum_range} contains k=0 but d={d}")
    if len(sum_range) == 0:
        return 0
    if sum_range.stop > ctx.p:
        raise ValueError(f"range {sum_range} exceeds k < p = {ctx.p}")
    coefs = lhs_coefficients(r, ctx.p, ctx.e, d, sum_range.start, sum_range.stop)
    xv = residue_from_rational(x, ctx)
    return kernels.weighted_geometric_sum(coefs, xv, sum_range.start, ctx.modulus)
