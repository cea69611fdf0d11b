"""The reference's polynomial arithmetic: polynomials over F_p, and products mod monic divisors.

Polynomials are Python lists of ints in [0, p), lowest degree first, with no
trailing zeros (the zero polynomial is []).  This is the arithmetic of the
quotient-ring and factoring reference (modring.GaloisRing, polyfactor) that
the tests hold the root-sum sequences to; the sequences run on kernels, and
neither module imports the other.

mul needs no inverse, so it works for any modulus, not only a prime: it is
also the one plain product of monic polynomials over Z/p^e (MonicPoly
products and the Hensel lift), where the leading coefficient stays 1 and
the trim never fires.  For the same reason mulmod and powmod are exact mod
p^e when the divisor is monic: the one inverse divmod_ takes is that of its
leading coefficient, 1.
"""


def trim(a):
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def degree(a):
    return len(a) - 1


def sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return trim(out)


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return trim(out)


def scale(a, k, p):
    k %= p
    return trim([v * k % p for v in a])


def monic(a, p):
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return scale(a, inv, p)


def divmod_(a, b, p):
    """Quotient and remainder of a by b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv_lead = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        coef = a[i]
        if coef == 0:
            continue
        factor = coef * inv_lead % p
        q[i - db] = factor
        for j in range(db + 1):
            a[i - db + j] = (a[i - db + j] - factor * b[j]) % p
    return trim(q), trim(a)


def mod(a, b, p):
    return divmod_(a, b, p)[1]


def gcd(a, b, p):
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def ext_gcd(a, b, p):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    lead_inv = pow(r0[-1], -1, p)
    return scale(r0, lead_inv, p), scale(s0, lead_inv, p), scale(t0, lead_inv, p)


def invert_mod(a, f, p):
    """Inverse of a modulo f over F_p, or None when gcd(a, f) != 1."""
    g, s, _ = ext_gcd(a, f, p)
    if g != [1]:
        return None
    return mod(s, f, p)


def mulmod(a, b, f, p):
    return mod(mul(a, b, p), f, p)


def powmod(a, n, f, p):
    out = [1]
    base = mod(a, f, p)
    while n > 0:
        if n & 1:
            out = mulmod(out, base, f, p)
        base = mulmod(base, base, f, p)
        n >>= 1
    return out


def derivative(a, p):
    return trim([a[i] * i % p for i in range(1, len(a))])
