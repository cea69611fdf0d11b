"""Exact arithmetic in Z/p^e, integer sequences of root sums, and quotient rings.

A residue mod p^e is a plain Python int in [0, p^e); ModulusCtx is the
validated (p, e) it is taken in, and residue_from_rational reduces a
p-integral rational into that range; evaluations and traces return such
ints too.

Root sums are computed as integer sequences.  For a monic f, the roots'
images u = (a c + b)/(gamma c + delta) are the roots of image_poly; the
power sums of a monic polynomial (power_sums) are the traces Tr(u^k), and
past its degree they follow its linear recurrence (extend_recurrence), as
does Tr(v u^k) for any fixed v.  jump gives t^N mod the polynomial, from
which any single term of such a sequence is one dot product, and
from_power_sums recovers a characteristic polynomial by Newton's
identities.  All of it runs on Python ints, with products mod a
polynomial taken by kernels.mulmod.

The quotient rings Z/p^e[c]/(g) (GaloisRing), whose elements are tuples of
Python ints, are the element-level reference the tests hold those
sequences to.  They are built on a monic g that is squarefree mod p,
such as the unfactored root polynomial.  Such a ring is the product of the
Galois rings of g's lifted irreducible factors, so the trace of
multiplication by F(c) is the sum of F over all roots of g and its
characteristic polynomial is the product of the per-factor ones.  An
element is a unit exactly when it is coprime to g mod p.

Contexts, polynomials, rings and ring elements are immutable after
construction and all operations are pure, so they can be shared freely.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import _gfpoly, kernels
from .errors import DenominatorNotUnit, ModulusTooLarge, NonUnitDenominator, NotAUnit
from .kernels import mulmod
from .primes import is_prime

# The largest modulus p^e the package accepts.  Python ints are exact at any
# size; the bound is part of the input contract, so a p^e above it is
# refused with ModulusTooLarge rather than run.
MAX_MODULUS = 3_037_000_498

def as_rational(x):
    """Coerce an int, Fraction, (num, den) pair or 'a/b' string to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    if isinstance(x, tuple) and len(x) == 2:
        return Fraction(x[0], x[1])
    raise TypeError(f"cannot interpret {x!r} as a rational number")


@dataclass(frozen=True)
class ModulusCtx:
    """The ambient ring Z/p^e for an odd prime p and 1 <= e <= 3."""

    p: int
    e: int

    def __post_init__(self):
        if not (1 <= self.e <= 3):
            raise ValueError(f"precision exponent must be 1..3, got {self.e}")
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"{self.p} is not an odd prime")
        if self.p ** self.e > MAX_MODULUS:
            raise ModulusTooLarge(
                f"p^e = {self.p ** self.e} exceeds the modulus bound {MAX_MODULUS}"
            )

    @property
    def modulus(self):
        return self.p ** self.e

    def reduce(self, e):
        """The context at a lower (or equal) precision."""
        if e > self.e:
            raise ValueError(f"cannot raise precision {self.e} -> {e}")
        return ModulusCtx(self.p, e)


def residue_from_rational(q, ctx):
    """num * den^-1 mod p^e for a p-integral rational, as an int in [0, p^e)."""
    q = as_rational(q)
    if q.denominator % ctx.p == 0:
        raise DenominatorNotUnit(f"{q} has denominator divisible by {ctx.p}")
    m = ctx.modulus
    value = q.numerator % m
    if q.denominator != 1:
        value = value * pow(q.denominator, -1, m) % m
    return value


@dataclass(frozen=True)
class MonicPoly:
    """Monic polynomial over Z/p^e, coefficients lowest degree first."""

    coeffs: tuple
    ctx: ModulusCtx

    def __post_init__(self):
        m = self.ctx.modulus
        coeffs = tuple(int(ci) % m for ci in self.coeffs)
        if not coeffs or coeffs[-1] != 1 % m:
            raise ValueError(f"not monic: {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def reduce(self, e):
        ctx = self.ctx.reduce(e)
        return MonicPoly(tuple(ci % ctx.modulus for ci in self.coeffs), ctx)

    def evaluate(self, x):
        m = self.ctx.modulus
        acc = 0
        for coef in reversed(self.coeffs):
            acc = (acc * x + coef) % m
        return acc

    def __mul__(self, other):
        if not isinstance(other, MonicPoly) or other.ctx != self.ctx:
            return NotImplemented
        return MonicPoly(_gfpoly.mul(self.coeffs, other.coeffs, self.ctx.modulus), self.ctx)


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

    head holds t_0..t_(n-1).  Every Tr(v u^k) obeys this recurrence when
    poly is u's characteristic polynomial (Cayley-Hamilton).
    """
    n = len(poly) - 1
    step = [-a % m for a in poly[:n]]
    t = list(head)
    for k in range(n, count + 1):
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


class GaloisRing:
    """The quotient Z/p^e[c]/(g) for a monic g squarefree mod p.

    Elements are coefficient vectors of length deg(g); the class of c is the
    image of every root of g, so Tr(F(c)) is the sum of F over those roots.
    When g is irreducible mod p this is a Galois ring; otherwise it is the
    product of the Galois rings of g's lifted factors.
    """

    def __init__(self, modpoly):
        self.modpoly = modpoly
        self.ctx = modpoly.ctx
        self.degree = modpoly.degree
        self._g = modpoly.coeffs
        self._g_mod_p = _gfpoly.trim([ci % self.ctx.p for ci in modpoly.coeffs])

    def elt(self, coeffs):
        m = self.ctx.modulus
        coeffs = [int(ci) % m for ci in coeffs]
        return GaloisElt(self, coeffs + [0] * (self.degree - len(coeffs)))

    def scalar(self, k):
        return self.elt([k])

    def zero(self):
        return self.elt([])

    def one(self):
        return self.elt([1])

    def gen(self):
        """The class of c (for a linear g this is the root itself)."""
        if self.degree == 1:
            return self.elt([-self.modpoly.coeffs[0]])
        return self.elt([0, 1])

    def mul(self, a, b):
        return GaloisElt(
            self, mulmod(a.coeffs, b.coeffs, self._g, self.ctx.modulus)
        )

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        return GaloisElt(
            self, kernels.poly_powmod(a.coeffs, n, self._g, self.ctx.modulus)
        )

    def inv(self, a):
        """Inverse via extended Euclid mod p, then Newton lifting to p^e."""
        p = self.ctx.p
        a_mod_p = _gfpoly.trim([v % p for v in a.coeffs])
        v0 = _gfpoly.invert_mod(a_mod_p, self._g_mod_p, p)
        if v0 is None:
            raise NotAUnit(f"non-unit element {list(a.coeffs)} in {self!r}")
        v = self.elt(v0)
        two = self.scalar(2)
        precision = 1
        while precision < self.ctx.e:
            v = self.mul(v, two - self.mul(a, v))
            precision *= 2
        return v

    def trace(self, a):
        """Trace of multiplication by a: the sum of a over the roots of g."""
        return kernels.trace_mult(a.coeffs, self._g, self.ctx.modulus)

    def _affine(self, a):
        """(a0, b) when a = a0 + b*c, else None."""
        if self.degree == 1:
            return a.coeffs[0], 0
        if any(a.coeffs[2:]):
            return None
        return a.coeffs[0], a.coeffs[1]

    def charpoly(self, a):
        """Characteristic polynomial of multiplication by a.

        Its coefficients are the signed elementary symmetric functions of a
        evaluated at the roots of g.  For a = a0 + b*c it is the image
        polynomial of c -> b c + a0, straight from g; otherwise
        Faddeev-LeVerrier, which divides only by 1..deg(g), all units mod
        p^e since deg(g) < p.
        """
        m = self.ctx.modulus
        affine = self._affine(a)
        if affine is None:
            mat = kernels.mult_matrix(a.coeffs, self._g, m)
            inverses = [pow(k, -1, m) for k in range(1, self.degree + 1)]
            coeffs = kernels.fl_charpoly(mat, inverses, m)
        else:
            a0, b = affine
            coeffs = image_poly(self.modpoly.coeffs, (b, a0, 0, 1), m)
        return MonicPoly(tuple(coeffs), self.ctx)

    def __repr__(self):
        return f"GaloisRing(deg={self.degree}, mod {self.ctx.p}^{self.ctx.e})"


class GaloisElt:
    """An element of a GaloisRing: a tuple of deg(g) residues, lowest degree first."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, GaloisElt):
            if other.ring is not self.ring and other.ring.modpoly != self.ring.modpoly:
                raise ValueError("mixed Galois rings")
            return other
        if isinstance(other, int):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.ring.ctx.modulus
        return GaloisElt(self.ring, ((a + b) % m for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.ring.ctx.modulus
        return GaloisElt(self.ring, ((a - b) % m for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.ring.ctx.modulus
        return GaloisElt(self.ring, ((b - a) % m for a, b in zip(self.coeffs, o.coeffs)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring.mul(self, o)

    __rmul__ = __mul__

    def __neg__(self):
        m = self.ring.ctx.modulus
        return GaloisElt(self.ring, (-a % m for a in self.coeffs))

    def __pow__(self, n):
        return self.ring.pow(self, n)

    def inverse(self):
        return self.ring.inv(self)

    def trace(self):
        return self.ring.trace(self)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __repr__(self):
        return f"GaloisElt({list(self.coeffs)} in {self.ring!r})"

