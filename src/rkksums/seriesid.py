"""Characteristic-zero verification of the formal series and polynomial identities.

Series and polynomials are plain coefficient lists, lowest degree first.
The Fuss-Catalan series B_r = sum_k binom(rk+1,k)/(rk+1) x^k has integer
coefficients, so the series checks run on ints.  The power sums s_k of the
roots of (1+t)^r - yt lie in Z[y]; the identities divide them by k and k^2,
so only the identities' sides hold Fractions.  No floating point, no tolerances.

The log identity sum_k binom(rk,k) x^k / k = r log B_r is checked in its
derivative form B * D = r * B' mod x^order, with D = sum_{k>=1} binom(rk,k)
x^(k-1).  Both sides of the log identity vanish at x = 0 and B is a unit
(B(0) = 1), so the two statements are the same.
"""

import functools
import math
from fractions import Fraction
from types import MappingProxyType

MAX_SERIES_ORDER = 100
MAX_IDENTITY_N = 60


def _mul(a, b, n=None):
    """The product of two coefficient lists, truncated to n terms when n is given."""
    if n is None:
        n = len(a) + len(b) - 1 if a and b else 0
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i]):
                out[i + j] += ai * bj
    return out


def _combine(*terms):
    """sum of c * a over the (c, a) pairs, with trailing zeros trimmed."""
    out = [0] * max((len(a) for _, a in terms), default=0)
    for c, a in terms:
        for i, v in enumerate(a):
            out[i] += c * v
    while out and not out[-1]:
        out.pop()
    return out


def _derivative(a):
    return [i * a[i] for i in range(1, len(a))]


def fuss_catalan(r, order):
    """Coefficients 0..order of sum_k binom(rk+1,k)/(rk+1) x^k, the root of z = 1 + x z^r.

    Each is an exact integer quotient.  Neither that nor the functional
    equation is asserted here: fuss_catalan_residual measures both, and the
    series tag reports it as a row of its own.
    """
    if r < 1 or order < 1:
        raise ValueError("need r >= 1 and order >= 1")
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"order capped at {MAX_SERIES_ORDER}")
    return [math.comb(r * k + 1, k) // (r * k + 1) for k in range(order + 1)]


def fuss_catalan_residual(r, order):
    """Coefficients 0..order of B - (1 + x B^r); identically zero by construction."""
    b = fuss_catalan(r, order)
    power, base, k = [1], b, r
    while k:
        if k & 1:
            power = _mul(power, base, order)
        base = _mul(base, base, order)
        k >>= 1
    return tuple(c - d for c, d in zip(b, [1] + power))


def check_series_log_identity(r, order):
    """sum_k binom(rk,k) x^k / k == r log B_r through the given order, checked as B D == r B'."""
    b = fuss_catalan(r, order)
    d = [math.comb(r * k, k) for k in range(1, order + 1)]
    return _mul(b, d, order) == [r * c for c in _derivative(b)]


# --- polynomials in Q[y] -----------------------------------------------------

def power_sums(r, n):
    """Power sums s_k of the roots of prod(1 + c_i t) = (1+t)^r - yt, and ds_k/dy.

    Elementary symmetric functions read off directly: e_1 = r - y and
    e_j = binom(r, j) otherwise; Newton's identities then give s_k in Z[y].
    Both lists are indexed by k = 1..n (entry 0 is None).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_IDENTITY_N:
        raise ValueError(f"n capped at {MAX_IDENTITY_N}")
    e = [[math.comb(r, j)] for j in range(r + 1)]
    if r >= 1:
        e[1] = [r, -1]
    s = [None] * (n + 1)
    for k in range(1, n + 1):
        terms = [((-1) ** (j - 1), _mul(e[j], s[k - j])) for j in range(1, min(k, r + 1))]
        if k <= r:
            terms.append(((-1) ** (k - 1) * k, e[k]))
        s[k] = _combine(*terms)
    return s, [None] + [_derivative(s[k]) for k in range(1, n + 1)]


@functools.lru_cache(maxsize=32)
def identity_sides(r, n):
    """LHS and RHS polynomials of the three binomial/power-sum identities.

    Returns a read-only mapping: key -> (lhs, rhs) for keys 'id0', 'id1b',
    'id2b', each side a tuple of coefficients with trailing zeros trimmed.
    Cached, so the identities tag's verdict rows and its differentiation
    ladder build the polynomials once.
    """
    s, sprime = power_sums(r, n)
    lhs0 = [math.comb(r * k, k) for k in range(n)][::-1]
    lhs1, lhs2 = [0] * (n + 1), [0] * (n + 1)
    for k in range(n):
        lhs1[n - k] = Fraction(math.comb(r * k, k), n - k)
        lhs2[n - k] = Fraction(math.comb(r * k, k), (n - k) ** 2)

    terms0, terms1, terms2 = [], [], []
    prefix = []  # sum_{j<=k} (s_j - r)/j
    for k in range(1, n + 1):
        c = Fraction((-1) ** k * math.comb(r * n, n - k), k)
        sk_minus_r = _combine((1, s[k]), (-r, [1]))
        prefix = _combine((1, prefix), (Fraction(1, k), sk_minus_r))
        terms0.append((c, sprime[k]))
        terms1.append((c, sk_minus_r))
        terms2 += [(-(r - 1) * c / k, sk_minus_r), (r * c, prefix)]
    sides = {"id0": (lhs0, terms0), "id1b": (lhs1, terms1), "id2b": (lhs2, terms2)}
    return MappingProxyType(
        {key: (tuple(lhs), tuple(_combine(*terms))) for key, (lhs, terms) in sides.items()})


def check_identities(r, n):
    """Exact verdicts for id0, id1b, id2b in Q[y]."""
    sides = identity_sides(r, n)
    return {key: lhs == rhs for key, (lhs, rhs) in sides.items()}


def check_differentiation_ladder(r, n):
    """d/dy of the id2b RHS times y gives the id1b RHS; d/dy of id1b gives id0."""
    sides = identity_sides(r, n)
    rhs0, rhs1, rhs2 = (sides[key][1] for key in ("id0", "id1b", "id2b"))
    return (tuple(_mul([0, 1], _derivative(rhs2))) == rhs1
            and tuple(_derivative(rhs1)) == rhs0)
