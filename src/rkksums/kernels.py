"""The right-hand side's arithmetic: root-sum sequences and modular sums on Python ints.

Every residue is a Python int in [0, mod), so no product can overflow and
the moduli the package accepts are bounded only by its input contract
(modring.MAX_MODULUS).  Polynomials are lists (or tuples) of coefficients,
lowest degree first, except in weighted_geometric_sum, which takes them
highest first (Horner order).

Root sums are integer sequences.  For a monic f, the roots' images
u = (a c + b)/(gamma c + delta) are the roots of image_poly, and those of
u -> 1/u are the roots of the cheaper reversal; the power sums of a monic
polynomial (power_sums) are the traces Tr(u^k), and past its degree they
follow its linear recurrence (extend_recurrence), as does Tr(v u^k) for
any fixed v.  pole_trace gives Tr(1/(u - y)) from chi'(y)/chi(y), without
an image polynomial.  jump gives t^N mod the polynomial, from which any
single term of such a sequence is one dot product, and from_power_sums
recovers a characteristic polynomial by Newton's identities.  mulmod is
their one product mod a monic polynomial.  This is the one engine the
package has, reported as "numpy" by rkksums.engine().

The quotient-ring reference the tests hold these sequences to (modring's
GaloisRing, polyfactor and _gfpoly) has arithmetic of its own: nothing here
imports it, and it imports nothing from here.

poly_mulmod and weighted_powers_poly have no caller in the package.  They
stay only because the benchmark's layer list (perfbench/layers.py and
BENCHMARK.json) times them by name, and a missing name reads "absent"
there; they go when those layers are re-based on the sequences.
"""

import math
import operator

from .errors import NonUnitDenominator


def mulmod(a, b, chi, m):
    """a * b mod the monic chi, for a and b of deg(chi) coefficients each."""
    n = len(chi) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for i in range(2 * n - 2, n - 1, -1):
        top = prod[i] % m
        if top:
            for j in range(n):
                prod[i - n + j] -= top * chi[j]
    return [v % m for v in prod[:n]]


def power_sums(poly, count, m):
    """Power sums P_0..P_count of the roots of a monic polynomial, mod m.

    poly lists coefficients lowest degree first.  Newton's identities need
    no division, and past the degree they are the polynomial's own linear
    recurrence P_k = -sum_i a_i P_(k-n+i).
    """
    n = len(poly) - 1
    head = [n % m]
    for k in range(1, min(n, count + 1)):
        acc = k * poly[n - k] + sum(poly[n - i] * head[k - i] for i in range(1, k))
        head.append(-acc % m)
    return extend_recurrence(poly, head, count, m)


def extend_recurrence(poly, head, count, m):
    """t_0..t_count of t_k = -sum_i a_i t_(k-n+i), n = deg(poly), mod m.

    head holds at least n terms, t_0 onwards, and the rest are continued
    from its end.  Every Tr(v u^k) obeys this recurrence when poly is u's
    characteristic polynomial (Cayley-Hamilton).
    """
    n = len(poly) - 1
    step = [-a % m for a in poly[:n]]
    t = list(head)
    for k in range(len(head), count + 1):
        t.append(sum(map(operator.mul, step, t[k - n:k])) % m)
    return t[:count + 1]


def from_power_sums(sums, m):
    """The monic polynomial of degree n whose roots have power sums sums[1..n], mod m.

    Newton's identities k e_k = sum_i (-1)^(i-1) e_(k-i) P_i divide only by
    1..n, which must be units mod m.  Coefficients lowest degree first.
    """
    n = len(sums) - 1
    e = [1]
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * sums[i] for i in range(1, k + 1))
        e.append(acc * pow(k, -1, m) % m)
    return [(-1) ** (n - j) * e[n - j] % m for j in range(n + 1)]


def image_poly(f, mobius, m):
    """The monic polynomial whose roots are u = (a c + b)/(gamma c + delta) over the roots c of f.

    f is monic, coefficients lowest degree first; mobius is (a, b, gamma,
    delta).  The polynomial is sum_j f_j (delta u - b)^j (a - gamma u)^(n-j),
    divided by its leading coefficient, the norm of gamma c + delta.  When
    that is not a unit, u is undefined and NonUnitDenominator is raised.
    Its power sums are the traces Tr(u^k) in Z/m[c]/(f).
    """
    a, b, gamma, delta = mobius

    def times(poly, c0, c1):
        """poly * (c0 + c1 u)."""
        return [(c0 * hi + c1 * lo) % m for lo, hi in zip([0] + poly, poly + [0])]

    n = len(f) - 1
    acc, den = [f[n] % m], [1]
    for j in range(n - 1, -1, -1):
        den = times(den, a, -gamma)                    # (a - gamma u)^(n-j)
        acc = [(s + f[j] * d) % m for s, d in zip(times(acc, -b, delta), den)]
    if math.gcd(acc[n], m) != 1:
        raise NonUnitDenominator(f"u = ({a} c + {b})/({gamma} c + {delta}) is undefined mod {m}")
    inv = pow(acc[n], -1, m)
    return tuple(v * inv % m for v in acc)


def reversal(chi, m):
    """The monic polynomial whose roots are 1/u over the roots u of the monic chi.

    It is chi reversed, divided by chi(0), whose sign-adjusted value is the
    norm of u; when that is not a unit NonUnitDenominator is raised, as
    image_poly raises for the map u -> 1/u.
    """
    if math.gcd(chi[0], m) != 1:
        raise NonUnitDenominator(f"1/u is undefined mod {m}: the norm of u is {chi[0]}")
    inv = pow(chi[0], -1, m)
    return tuple(v * inv % m for v in reversed(chi))


def pole_trace(chi, y, m):
    """Tr(1/(u - y)) = -chi'(y)/chi(y) over the roots u of the monic chi.

    chi(y) is, up to sign, the norm of u - y; when it is not a unit
    NonUnitDenominator is raised, as image_poly raises for u -> 1/(u - y).
    """
    value = slope = 0
    for a in reversed(chi):
        slope = (slope * y + value) % m
        value = (value * y + a) % m
    if math.gcd(value, m) != 1:
        raise NonUnitDenominator(f"1/(u - {y}) is undefined mod {m}")
    return -slope * pow(value, -1, m) % m


def jump(chi, exponent, m):
    """t^exponent mod the monic chi, by square-and-multiply on Python ints.

    For any sequence t_k obeying chi's recurrence, such as Tr(v u^k) when
    chi is u's characteristic polynomial, t_(exponent+j) is the dot product
    of the result with t_j..t_(j+n-1), n = deg(chi).
    """
    n = len(chi) - 1
    step = [-c % m for c in chi[:n]]
    q = [1 % m] + [0] * (n - 1)
    for bit in bin(exponent)[2:]:
        q = mulmod(q, q, chi, m)
        if bit == "1":  # times t: shift up, fold the top term back through chi
            q = [(lo + q[-1] * s) % m for lo, s in zip([0] + q[:-1], step)]
    return q


def weighted_powers_scalar(t, w, mod):
    """sum_{k=1}^{len(w)} w[k-1] * t^k  (mod mod), by Horner's rule on ints."""
    acc = 0
    for wk in reversed(w):
        acc = (acc + wk) * t % mod
    return acc


def weighted_geometric_sum(coefs, x, lo, mod):
    """sum_{k=lo}^{hi-1} a_k * x^k  (mod mod), by Horner's rule.

    coefs holds a_(hi-1), ..., a_lo, with hi = lo + len(coefs): highest
    power first, in Horner order.
    """
    acc = 0
    for a in coefs:
        acc = (acc * x + a) % mod
    return acc * pow(x, lo, mod) % mod


# --- named by the benchmark's layer list only --------------------------------

def poly_mulmod(a, b, g, mod):
    """(a * b) reduced by the monic polynomial g: a quotient-ring product."""
    return mulmod(a, b, g, mod)


def weighted_powers_poly(u, w, g, mod):
    """sum_{k=1}^{len(w)} w[k-1] * u^k in the quotient ring by g."""
    m = len(g) - 1
    acc = [0] * m
    pw = [1 % mod] + [0] * (m - 1)
    for wk in w:
        pw = mulmod(pw, u, g, mod)
        if wk:
            acc = [(ai + wk * vi) % mod for ai, vi in zip(acc, pw)]
    return acc
