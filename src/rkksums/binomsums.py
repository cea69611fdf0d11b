"""Brute-force left-hand sides: sum of binom(rk,k) * x^k / k^d over k ranges.

A table of binom(rk,k) mod p^e for 0 <= k < p is read off the factorials:
n! = p^v(n) * u(n) with u(n) a unit, so binom(rk,k) = p^v * u(rk) /
(u(k) u((r-1)k)) with v = v(rk) - v(k) - v((r-1)k), in O(r p) products
and one batched inversion.  The exact big-integer table stays in the tests
as the reference that guards this against p-adic valuation mistakes.  The
coefficients binom(rk,k) * k^-d of one range are cached as one tuple in
Horner order, and lhs_sum evaluates that polynomial at x with one O(p)
Horner loop, returning the residue as a plain int in [0, p^e).  The k^-d
weights are the LHS's own: nothing here reads a table of the right-hand
side.  Ranges are built-in range objects and follow the vanishing pattern of
binom(rk,k) mod p: inside [0, p) the coefficient is a unit only on the
intervals A(r,m) = { k : (m-1)p/(r-1) <= k < mp/r } for 0 < m < r.
"""

import functools
from itertools import accumulate

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


def batch_inverse(values, m):
    """The inverses mod m of the units in values: one pow, three products each."""
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % m
    inv, out = pow(acc, -1, m), []
    for v, before in zip(reversed(values), reversed(prefix)):
        out.append(inv * before % m)
        inv = inv * v % m
    out.reverse()
    return out


# cli.build_tasks walks the grid prime by prime and never comes back to a
# prime it has left, so a per-prime cache holds one prime's keys: e <= 3.
@functools.lru_cache(maxsize=3)
def inverse_table(p, e):
    """k^-1 mod p^e for 0 <= k < p, with 0 at k = 0 (0 ** 0 == 1 keeps d = 0)."""
    return (0, *batch_inverse(range(1, p), p ** e))


# One prime's tables, for the same reason: its per-prime tags read at most
# five, and each r one or two, all of them before the walk leaves the prime.
@functools.lru_cache(maxsize=8)
def binom_table(r, p, e):
    """binom(rk,k) mod p^e for 0 <= k < p, from the p-adic factorials n!.

    factors[n] is n with every factor p stripped and steps[n] = v_p(n), so
    their running product and sum are u(n) and v(n) for n <= r(p-1)
    (Legendre's formula; r >= p included).  v(k) = 0 for k < p.
    """
    if r == 1:
        return (1,) * p  # binom(k, k)
    m, top = p ** e, r * (p - 1)
    factors, steps = list(range(top + 1)), [0] * (top + 1)
    factors[0] = 1
    for n in range(p, top + 1, p):
        q, v = n // p, 1
        while q % p == 0:
            q, v = q // p, v + 1
        factors[n], steps[n] = q, v
    units, u = [], 1
    for f in factors:
        u = u * f % m
        units.append(u)
    vals = list(accumulate(steps))
    # zip stops after p entries: k, (r-1)k and rk for 0 <= k < p
    inv = batch_inverse([a * b % m for a, b in zip(units[:p], units[::r - 1])], m)
    scale = [p ** v for v in range(e)] + [0] * (vals[top] + 1)   # p^v, 0 once v >= e
    return tuple(u * i * scale[a - b] % m
                 for u, i, a, b in zip(units[::r], inv, vals[::r], vals[::r - 1]))


@functools.lru_cache(maxsize=64)
def lhs_coefficients(r, p, e, d, lo, hi):
    """binom(rk,k) * k^-d mod p^e for k = hi-1 down to lo: Horner order.

    Zeros at the top are dropped, so Horner's rule starts at the highest
    nonzero term; at e = 1 and r >= 2, binom(rk,k) vanishes for every
    k >= (r-1)p/r.  k^-d is a unit for 0 < k < p, so a term vanishes
    exactly where the table does: the top zeros are cut off the table
    before anything is multiplied.
    """
    m = p ** e
    table, inv = binom_table(r, p, e), inverse_table(p, e)
    while hi > lo and not table[hi - 1]:
        hi -= 1
    return tuple(reversed([b * i ** d % m for b, i in zip(table[lo:hi], inv[lo:hi])]))


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
