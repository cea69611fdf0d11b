"""Exact arithmetic in Z/p^e, and the quotient-ring reference for the root sums.

A residue mod p^e is a plain Python int in [0, p^e); ModulusCtx is the
validated (p, e) it is taken in, and residue_from_rational reduces a
p-integral rational into that range; evaluations and traces return such
ints too.

The quotient rings Z/p^e[c]/(g) (GaloisRing), whose elements are tuples of
Python ints, are the element-level reference the tests hold the root-sum
sequences of kernels to.  They are built on a monic g that is squarefree
mod p, such as the unfactored root polynomial.  Such a ring is the product
of the Galois rings of g's lifted irreducible factors, so the trace of
multiplication by F(c) is the sum of F over all roots of g and its
characteristic polynomial is the product of the per-factor ones.  An
element is a unit exactly when it is coprime to g mod p.

The reference has arithmetic of its own: products and powers are
_gfpoly's, the trace and the characteristic polynomial come from the
multiplication matrix (trace_mult, mult_matrix, fl_charpoly), and nothing
here imports kernels, so a bug in the sequences' product cannot repeat
itself in the values they are checked against.

Contexts, polynomials, rings and ring elements are immutable after
construction and all operations are pure, so they can be shared freely.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import _gfpoly
from .errors import DenominatorNotUnit, ModulusTooLarge, NotAUnit
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
        return ctx_for(self.p, e)


@functools.lru_cache(maxsize=None)
def ctx_for(p, e):
    """ModulusCtx(p, e), validated (a Miller-Rabin test) once per (p, e)."""
    return ModulusCtx(p, e)


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


def _shift_reduce(col, g, mod):
    """col * c reduced by the monic g, for col of deg(g) coefficients."""
    top = col[-1]
    col = [0] + col[:-1]
    if top:
        col = [(ci - top * gi) % mod for ci, gi in zip(col, g)]
    return col


def trace_mult(u, g, mod):
    """Trace of the multiplication-by-u operator on the basis 1, c, ..., c^(m-1)."""
    col = list(u)
    tr = col[0] % mod
    for j in range(1, len(g) - 1):
        col = _shift_reduce(col, g, mod)
        tr = (tr + col[j]) % mod
    return tr


def mult_matrix(u, g, mod):
    """Matrix of multiplication by u, as a list of rows; column j holds u * c^j reduced by g."""
    cols = [[ci % mod for ci in u]]
    for _ in range(1, len(g) - 1):
        cols.append(_shift_reduce(cols[-1], g, mod))
    return [list(row) for row in zip(*cols)]


def fl_charpoly(mat, inv_table, mod):
    """Characteristic polynomial by the Faddeev-LeVerrier scheme.

    mat is a list of rows.  inv_table[k-1] must hold the inverse of k mod
    `mod` for k = 1..m; these are the only divisions performed, which keeps
    the scheme valid when the modulus is a prime power.  Returns monic
    coefficients, lowest first.
    """
    m = len(mat)
    coeffs = [0] * m + [1 % mod]
    acc = [[int(i == j) % mod for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        an = [[sum(mat[i][l] * acc[l][j] for l in range(m)) % mod for j in range(m)]
              for i in range(m)]
        tr = sum(an[i][i] for i in range(m))
        ck = -tr * inv_table[k - 1] % mod
        coeffs[m - k] = ck
        for i in range(m):
            an[i][i] = (an[i][i] + ck) % mod
        acc = an
    return coeffs


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

    # _gfpoly's product and power are exact mod p^e here: g is monic, so
    # the one inverse its division takes is that of 1
    def mul(self, a, b):
        return self.elt(_gfpoly.mulmod(a.coeffs, b.coeffs, self._g, self.ctx.modulus))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        return self.elt(_gfpoly.powmod(a.coeffs, n, self._g, self.ctx.modulus))

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
        return trace_mult(a.coeffs, self._g, self.ctx.modulus)

    def charpoly(self, a):
        """Characteristic polynomial of multiplication by a.

        Its coefficients are the signed elementary symmetric functions of a
        evaluated at the roots of g.  Faddeev-LeVerrier, which divides only
        by 1..deg(g), all units mod p^e since deg(g) < p; it never calls
        image_poly, which it is the reference for.
        """
        m = self.ctx.modulus
        mat = mult_matrix(a.coeffs, self._g, m)
        inverses = [pow(k, -1, m) for k in range(1, self.degree + 1)]
        return MonicPoly(tuple(fl_charpoly(mat, inverses, m)), self.ctx)

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

