"""Independent oracles used across the test suite.

Everything here is deliberately naive: exact rational/big-integer
arithmetic, brute-force root searches and Newton lifting of single roots.
None of it shares code with the package's trace/charpoly machinery, so
agreement is a genuine two-route check.  The one exception is ring_pounds,
the polylog of a quotient-ring element: a term-by-term sum in GaloisRing
arithmetic, the element-level reference for the polylog traces.
"""

import math
from fractions import Fraction


def rational_mod(q, m):
    """Reduce a p-integral Fraction mod m."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, m) % m


def naive_lhs(r, x, d, lo, hi, p, e):
    """sum_{k=lo}^{hi-1} binom(rk,k) x^k / k^d as an exact rational, mod p^e."""
    m = p ** e
    total = Fraction(0)
    for k in range(lo, hi):
        term = Fraction(math.comb(r * k, k)) * Fraction(x) ** k
        if d:
            term /= Fraction(k) ** d
        total += term
    return rational_mod(total, m)


def poly_eval(coeffs, x, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def roots_mod_p(coeffs, p):
    """Brute-force roots over F_p (with multiplicity ignored)."""
    return [a for a in range(p) if poly_eval(coeffs, a, p) == 0]


def poly_derivative_eval(coeffs, x, m):
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = (acc * x + i * coeffs[i]) % m
    return acc


def lift_root(coeffs, root, p, e):
    """Newton-lift a simple root of the integer polynomial to Z/p^e."""
    m = p ** e
    r = root % p
    for _ in range(e):
        fr = poly_eval(coeffs, r, m)
        fpr = poly_derivative_eval(coeffs, r, m)
        r = (r - fr * pow(fpr, -1, m)) % m
    assert poly_eval(coeffs, r, m) == 0
    return r


def root_poly_coeffs(r, x, p, e):
    """Monic (c-1)^r + x^-1 c^(r-1) over Z/p^e, lowest degree first."""
    m = p ** e
    inv_x = pow(rational_mod(Fraction(x), m), -1, m)
    coeffs = [math.comb(r, j) * (-1) ** (r - j) % m for j in range(r + 1)]
    coeffs[r - 1] = (coeffs[r - 1] + inv_x) % m
    return coeffs


def split_roots(r, x, p, e):
    """All roots of the root polynomial lifted to Z/p^e, or None if not split."""
    coeffs = root_poly_coeffs(r, x, p, 1)
    base = roots_mod_p(coeffs, p)
    if len(base) != r:
        return None
    full = root_poly_coeffs(r, x, p, e)
    return [lift_root(full, a, p, e) for a in base]


def naive_pounds(s, t, p, m):
    """sum_{k=1}^{p-1} t^k / k^s mod m, one term at a time."""
    acc = 0
    for k in range(1, p):
        acc = (acc + pow(t, k, m) * pow(pow(k, s, m), -1, m)) % m
    return acc


def ring_pounds(s, u):
    """sum_{k=1}^{p-1} u^k / k^s for an element u of a GaloisRing, one term at a time."""
    m = u.ring.ctx.modulus
    acc, power = u.ring.zero(), u.ring.one()
    for k in range(1, u.ring.ctx.p):
        power = power * u
        acc = acc + power * pow(k, -s, m)
    return acc


def euler_numbers_mod_p(p, upto):
    """E_0, E_2, ..., E_upto mod p via the secant-number recurrence, O(upto^2)."""
    es = [1]
    for n in range(1, upto // 2 + 1):
        acc = sum(math.comb(2 * n, 2 * k) * es[k] for k in range(n))
        es.append(-acc % p)
    return es


def bernoulli_mod_p(p, upto):
    """B_0, B_1, ..., B_upto mod p (B_1 = -1/2), for upto < p - 1, O(upto^2)."""
    assert upto < p - 1, "the recurrence divides by n + 1 <= p - 1"
    bs = [1]
    for n in range(1, upto + 1):
        acc = sum(math.comb(n + 1, j) * bs[j] for j in range(n))
        bs.append(-acc * pow(n + 1, -1, p) % p)
    return bs


def bernoulli_poly_mod_p(n, a, p):
    """B_n(a) = sum_k binom(n, k) B_k a^(n-k) mod p, for p-integral rational a."""
    av = rational_mod(a, p)
    bs = bernoulli_mod_p(p, n)
    return sum(math.comb(n, k) * bs[k] * pow(av, n - k, p) for k in range(n + 1)) % p


def exact_binom_table(r, p, e):
    """binom(rk,k) mod p^e for 0 <= k < p, from exact big-integer binomials."""
    m = p ** e
    return tuple(math.comb(r * k, k) % m for k in range(p))


def lucas_binom_mod_p(n, k, p):
    """binom(n, k) mod p via the base-p digit product."""
    result = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        result = result * (math.comb(nd, kd) % p) % p
        n //= p
        k //= p
    return result


def _poly_mulmod(a, b, f, p):
    """a * b reduced by the monic f over F_p; a, b and the result have deg(f) entries."""
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for i in range(2 * n - 2, n - 1, -1):
        top = prod[i] % p
        if top:
            for j in range(n):
                prod[i - n + j] -= top * f[j]
    return [v % p for v in prod[:n]]


def splits_by_frobenius(r, a, p):
    """Whether the root polynomial at x = a splits into distinct linear factors over F_p.

    The criterion c^p == c mod f, by square-and-multiply on coefficient
    lists.  c is taken reduced mod f, so a linear f (r = 1) counts too.
    """
    f = root_poly_coeffs(r, a, p, 1)
    c = [0, 1] + [0] * (r - 2) if r > 1 else [-f[0] % p]
    acc, base, n = [1] + [0] * (r - 1), c, p
    while n:
        if n & 1:
            acc = _poly_mulmod(acc, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        n >>= 1
    return acc == c
