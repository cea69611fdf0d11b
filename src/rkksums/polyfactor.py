"""Root polynomial construction, factorization mod p, and Hensel lifting.

For parameters (r, x) the monic root polynomial is (c-1)^r + x^-1 * c^(r-1),
whose roots c_1..c_r carry every right-hand side in the theorems module.
Nondegenerate x (x != 0 and r^r*x != (r-1)^(r-1) mod p) guarantees the
polynomial is squarefree mod p, so the theorems work in its unfactored
quotient ring.  At the double-root value x0 = (r-1)^(r-1)/r^r the double
root 1-r is divided out exactly, and the cofactor's roots take its place.

The factorization over F_p and its Hensel lift are not on that path: they
are kept as the independent per-factor reference the tests compare with.
"""

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import _gfpoly
from .errors import (
    DegenerateDivisionFailure,
    DenominatorNotUnit,
    NotCoprime,
    NotSquarefree,
    XNotUnit,
)
from .modring import ModulusCtx, MonicPoly, as_rational, ctx_for, residue_from_rational


class Degeneracy(enum.Enum):
    NONDEGENERATE = "nondegenerate"
    ZERO_X = "zero_x"
    DOUBLE_ROOT_X0 = "double_root_x0"


@dataclass(frozen=True)
class FactorSet:
    """Irreducible-mod-p monic factors of the root polynomial over Z/p^e."""

    factors: tuple
    multiplicities: tuple
    degenerate: bool
    ctx: ModulusCtx

    def product(self):
        acc = MonicPoly((1,), self.ctx)
        for f, mult in zip(self.factors, self.multiplicities):
            for _ in range(mult):
                acc = acc * f
        return acc


def x0_value(r):
    """The double-root evaluation point (r-1)^(r-1) / r^r, with 0^0 = 1."""
    return Fraction((r - 1) ** (r - 1) if r > 1 else 1, r ** r)


def classify_residue(r, xv, p):
    xv %= p
    if xv == 0:
        return Degeneracy.ZERO_X
    lhs = pow(r, r, p) * xv % p
    rhs = pow(r - 1, r - 1, p) if r > 1 else 1
    if lhs == rhs % p:
        return Degeneracy.DOUBLE_ROOT_X0
    return Degeneracy.NONDEGENERATE


def classify_x(r, x, p):
    """Nondegenerate / zero / double-root classification of x mod p.

    Mirrors the vanishing of the discriminant without computing it: the
    discriminant of x(c-1)^r + c^(r-1) vanishes exactly at x = 0 and at
    the double-root value x0.
    """
    x = as_rational(x)
    if x.denominator % p == 0:
        raise DenominatorNotUnit(f"{x} is not p-integral at p={p}")
    xv = x.numerator * pow(x.denominator, -1, p) % p
    return classify_residue(r, xv, p)


def build_root_poly(r, x, ctx):
    """The monic root polynomial (c-1)^r + x^-1 * c^(r-1) over Z/p^e, for 1 <= r < p."""
    if not (1 <= r < ctx.p):
        raise ValueError(f"need 1 <= r < p, got r={r}, p={ctx.p}")
    x = as_rational(x)
    if x.numerator % ctx.p == 0:
        raise XNotUnit(f"x={x} vanishes mod {ctx.p}")
    inv_x = residue_from_rational(1 / x, ctx)
    m = ctx.modulus
    coeffs = [math.comb(r, j) * (-1) ** (r - j) % m for j in range(r + 1)]
    coeffs[r - 1] = (coeffs[r - 1] + inv_x) % m
    return MonicPoly(tuple(coeffs), ctx)


def _distinct_degree(f, p):
    """Split a squarefree monic f into (product-of-degree-d, d) parts."""
    out = []
    rem = list(f)
    h = [0, 1]
    d = 0
    while len(rem) - 1 > 2 * d:
        d += 1
        h = _gfpoly.powmod(h, p, rem, p)
        g = _gfpoly.gcd(_gfpoly.sub(h, [0, 1], p), rem, p)
        if _gfpoly.degree(g) > 0:
            out.append((g, d))
            rem = _gfpoly.divmod_(rem, g, p)[0]
            h = _gfpoly.mod(h, rem, p)
    if _gfpoly.degree(rem) > 0:
        out.append((rem, _gfpoly.degree(rem)))
    return out


def _equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles."""
    n = _gfpoly.degree(f)
    if n == d:
        return [f]
    exponent = (p ** d - 1) // 2
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _gfpoly.trim(a)
        if _gfpoly.degree(a) < 1:
            continue
        g = _gfpoly.gcd(a, f, p)
        if 0 < _gfpoly.degree(g) < n:
            pieces = g, _gfpoly.divmod_(f, g, p)[0]
        else:
            b = _gfpoly.powmod(a, exponent, f, p)
            g = _gfpoly.gcd(_gfpoly.sub(b, [1], p), f, p)
            if not 0 < _gfpoly.degree(g) < n:
                continue
            pieces = g, _gfpoly.divmod_(f, g, p)[0]
        out = []
        for piece in pieces:
            out.extend(_equal_degree(_gfpoly.monic(piece, p), d, p, rng))
        return out


def factor_mod_p(f, rng=None):
    """Complete factorization of a squarefree monic polynomial over F_p.

    Deterministic for a given rng; the multiset of factor degrees does not
    depend on it.  Raises NotSquarefree when gcd(f, f') != 1.
    """
    ctx = f.ctx.reduce(1)
    p = ctx.p
    rng = rng or random.Random(0)
    poly = _gfpoly.trim([ci % p for ci in f.coeffs])
    if _gfpoly.degree(poly) != f.degree:
        raise ValueError("leading coefficient vanished mod p")
    if _gfpoly.degree(poly) == 1:
        return FactorSet((MonicPoly(tuple(poly), ctx),), (1,), False, ctx)
    if _gfpoly.gcd(poly, _gfpoly.derivative(poly, p), p) != [1]:
        raise NotSquarefree(f"{poly} has a repeated factor mod {p}")
    factors = []
    for part, d in _distinct_degree(poly, p):
        for piece in _equal_degree(part, d, p, rng):
            factors.append(MonicPoly(tuple(piece), ctx))
    factors.sort(key=lambda g: (g.degree, g.coeffs))
    return FactorSet(tuple(factors), (1,) * len(factors), False, ctx)


def hensel_lift(factor_set, f, target_e):
    """Lift a coprime factorization mod p to mod p^target_e.

    One linear correction per extra digit; each lifted factor stays monic
    and congruent to its mod-p original.
    """
    ctx = ctx_for(f.ctx.p, target_e)
    p = ctx.p
    if target_e == 1:
        return factor_set
    gs = [list(g.coeffs) for g in factor_set.factors]
    if len(gs) == 1:
        lifted = MonicPoly(tuple(ci % ctx.modulus for ci in f.coeffs), ctx)
        return FactorSet((lifted,), (1,), False, ctx)

    # Bezout data mod p: t_i * prod_{j != i} g_j == 1 (mod g_i)
    cofactor_inverses = []
    for i, gi in enumerate(gs):
        h = [1]
        for j, gj in enumerate(gs):
            if j != i:
                h = _gfpoly.mul(h, gj, p)
        t = _gfpoly.invert_mod(_gfpoly.mod(h, gi, p), gi, p)
        if t is None:
            raise NotCoprime(f"factors {i} share a root mod {p}")
        cofactor_inverses.append(t)

    f_full = [ci % ctx.modulus for ci in f.coeffs]
    for k in range(1, target_e):
        q = p ** k
        step_mod = p ** (k + 1)
        prod = [1]
        for gi in gs:
            prod = _gfpoly.mul(prod, gi, step_mod)
        diff = [(a - b) % step_mod for a, b in zip(_pad(f_full, len(prod)), prod)]
        if any(d % q for d in diff):
            raise NotCoprime("lift invariant broken: difference not divisible by p^k")
        delta = _gfpoly.trim([(d // q) % p for d in diff])
        for i, gi in enumerate(gs):
            gi_mod_p = _gfpoly.trim([ci % p for ci in gi])
            corr = _gfpoly.mulmod(delta, cofactor_inverses[i], gi_mod_p, p)
            for j, cj in enumerate(corr):
                gi[j] = (gi[j] + q * cj) % step_mod

    lifted = tuple(MonicPoly(tuple(gi), ctx) for gi in gs)
    out = FactorSet(lifted, factor_set.multiplicities, False, ctx)
    if out.product().coeffs != tuple(ci % ctx.modulus for ci in f.coeffs):
        raise NotCoprime("lifted factor product does not reproduce the polynomial")
    return out


def _pad(a, n):
    return a + [0] * (n - len(a))


def root_factor_set(r, x, ctx, rng=None):
    """Factor the nondegenerate root polynomial for (r, x) over Z/p^e."""
    f = build_root_poly(r, x, ctx)
    fs1 = factor_mod_p(f.reduce(1), rng)
    return hensel_lift(fs1, f, ctx.e)


def _synthetic_div(coeffs, root, m):
    """Divide by (c - root); returns (quotient, remainder) over Z/m."""
    quot = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = (acc * root + coeffs[i]) % m
        quot[i - 1] = acc
    rem = (acc * root + coeffs[0]) % m
    return quot, rem


def double_root_cofactor(r, p, e):
    """Handle x = x0: peel off the double root 1-r from the root polynomial.

    Returns (double_root mod p^e, cofactor MonicPoly); the cofactor's roots
    are simple and distinct from 1-r, and for r = 2 it is the constant 1.
    Its value at 0, 1 and 1-r is a unit, so every theorems.RootSums sum is defined.
    """
    if r < 2:
        raise ValueError("the double-root case needs r >= 2")
    ctx = ctx_for(p, e)
    if r * (r - 1) % p == 0:
        raise ValueError(f"p={p} divides r(r-1)")
    f = build_root_poly(r, x0_value(r), ctx)
    m = ctx.modulus
    root = (1 - r) % m
    quot, rem = _synthetic_div(list(f.coeffs), root, m)
    if rem != 0:
        raise DegenerateDivisionFailure(f"first division remainder {rem} != 0")
    quot2, rem2 = _synthetic_div(quot, root, m)
    if rem2 != 0:
        raise DegenerateDivisionFailure(f"second division remainder {rem2} != 0")
    cofactor = MonicPoly(tuple(quot2), ctx)
    if _synthetic_div(quot2, root, m)[1] % p == 0:
        raise DegenerateDivisionFailure("double root persists in the cofactor")
    return root, cofactor


def split_double_root(r, p, e, rng=None):
    """The double root and the factored cofactor, as a FactorSet."""
    root, cofactor = double_root_cofactor(r, p, e)
    ctx = cofactor.ctx
    if cofactor.degree == 0:
        return root, FactorSet((), (), True, ctx)
    fs1 = factor_mod_p(cofactor.reduce(1), rng)
    lifted = hensel_lift(fs1, cofactor, e)
    return root, FactorSet(lifted.factors, lifted.multiplicities, True, ctx)
