"""The congruence families, as one table.

Every congruence has one shape.  Its left-hand side is a brute-force sum of
binom(rk,k) x^k / k^d over a range of k (binomsums).  Its right-hand side is
computed independently: symmetric functions of all roots c of
x(c-1)^r + c^(r-1), and special constants (finlog).  A verdict is an exact
equality of residues.

The symmetric functions (RootSums) are integer sequences mod p^e, over the
roots of one monic polynomial: x's root polynomial, or at the double-root
value x0 the cofactor left when the root 1-r is divided out.  Each
quantity is a Newton power sum of the polynomial whose roots are a Moebius
image of c (1-c, 1/c, 1-1/c, 1/(1-c), c/(c-1); kernels.image_poly and
kernels.reversal), or a scalar sequence obeying such a polynomial's
recurrence, such as T_k = Tr(s c^k) with s = 1/(r-1+c).  Each image keeps
one list of its P_k (_Image.sums), and RootSums one of the T_k
(_shift_traces): a reader asks for a length, and the list is continued by
the recurrence, never rebuilt.  _Image.term_p reads a p-th term off a
sequence that reaches it, else takes one jump t^(kp) mod the polynomial
(kernels.jump).  RootSums._terms alone reads SEQUENCE_BOUND: at or below it
a sequence runs to P_p, and P_p(1-u) is one dot product with it; above it a
sequence is its head.  rkk's T_p and the terms past p jump at every prime.
No ring element is built on this path: GaloisRing and polyfactor's
factoring, on _gfpoly's arithmetic and not kernels', are the tests' reference.

FAMILIES has one row per CLI tag: the grid it walks, its precision, its
scope, its skip-row ids and the function computing its rows.  _skip_rows
turns a point outside a family's scope, or a degenerate x, into skip rows.
The per-(r, p, x) tags run through point_rows, which coerces and classifies
x once per point, emits each tag's skip rows and hands the tags inside
their scope one Point.  Its root sums are read at the highest precision
any of those tags reads, and each checker reduces what it reads to its own
modulus, so a checker check_X(pt) keeps only its mathematics and returns
a list of rows.
"""

import functools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import finlog, seriesid
from .binomsums import full_range, lhs_sum, range_A_star, short_range
from .errors import DenominatorNotUnit
from .finlog import constants_table, pounds, pounds_from_traces
from .kernels import (
    extend_recurrence, from_power_sums, image_poly, jump, mulmod, pole_trace, power_sums, reversal)
from .modring import GaloisRing, as_rational, ctx_for, residue_from_rational
from .polyfactor import (
    Degeneracy,
    build_root_poly,
    classify_residue,
    classify_x,
    _synthetic_div,
    double_root_cofactor,
    x0_value,
)
from .report import FAIL, PASS, CongruenceReport, checked, skipped


@functools.lru_cache(maxsize=512)
def _factor_rings(f):
    """The algebra of the monic f, unfactored, as a one-ring tuple.

    f is squarefree mod p (x's root polynomial or x0's cofactor), so this
    ring is the product of the Galois rings of f's lifted factors: its trace
    is the sum over all roots and its characteristic polynomial the product.
    Root sums never build it; it is the reference RootSums.rings exposes.
    """
    return (GaloisRing(f),)


# Moebius images u = (a c + b)/(gamma c + delta) of a root c, as (a, b, gamma, delta)
C = (1, 0, 0, 1)
ONE_MINUS_C = (-1, 1, 0, 1)
INV_C = (0, 1, 1, 0)
ONE_MINUS_INV_C = (1, -1, 1, 0)
W = (0, 1, -1, 1)              # 1/(1-c)
Z = (1, 0, 1, -1)              # c/(c-1) = 1 - w

# 1/c and w have the reversed polynomials of c and 1-c
_REVERSED = {INV_C: C, W: ONE_MINUS_C}
# 1-c, 1-1/c and z are 1 - u for these u
_ONE_MINUS = {C: ONE_MINUS_C, INV_C: ONE_MINUS_INV_C, W: Z}

# At or below this prime a p-th power sum is a term of the sequence
# P_0..P_p, whose terms below p the polylog traces weigh anyway, and
# P_p(1-u) is its dot product with the signed binomial row.  Above it each
# takes one jump t^p mod chi: O(n^2 log p) products against the
# sequence's O(n p), n = deg chi.  For mystery's and lemma_technical's six
# sums the sequences were the faster up to p of about 110 at r = 2, 160 at
# r = 4 and 200 at r = 6.
SEQUENCE_BOUND = 128


def _dot(q, terms, m):
    return sum(map(operator.mul, q, terms)) % m


# one prime's rows (e <= 3): the sweep walks prime by prime
@functools.lru_cache(maxsize=3)
def _signed_binomials(p, e):
    """(-1)^j C(p,j) mod p^e for j = 0..p; read only at or below SEQUENCE_BOUND."""
    return tuple((-1) ** j * math.comb(p, j) % p ** e for j in range(p + 1))


def _binomial_head(terms, n, m):
    """Tr(v (1-u)^k) = sum_i (-1)^i C(k,i) terms[i] for k < n, from terms[i] = Tr(v u^i)."""
    return [sum((-1) ** i * math.comb(k, i) * terms[i] for i in range(k + 1)) % m
            for k in range(n)]


class _Image:
    """The images u of all roots of one polynomial under one Moebius map.

    chi is their monic polynomial, so the power sums P_k(u) = Tr(u^k) obey
    its recurrence, and so does Tr(v u^k) for any fixed v: term_p reads term
    k p of such a sequence off it, or dots it with the jump t^(k p) mod chi.
    sums keeps one list of the P_k(u) and continues it when asked past its end.
    """

    __slots__ = ("chi", "p", "m", "_jumps", "_sums")

    def __init__(self, chi, p, m):
        self.chi, self.p, self.m = chi, p, m
        self._sums, self._jumps = None, []

    def sums(self, count):
        """P_0(u)..P_count(u): a slice of one list, which holds n terms at least."""
        if self._sums is None:
            self._sums = power_sums(self.chi, max(count, len(self.chi) - 2), self.m)
        elif len(self._sums) <= count:
            self._sums = extend_recurrence(self.chi, self._sums, count, self.m)
        return self._sums[:count + 1]

    def term_p(self, terms, k=1):
        """Term k p of the sequence that starts with terms (at least n of them)."""
        if len(terms) > k * self.p:
            return terms[k * self.p]
        jumps = self._jumps
        if not jumps:
            jumps.append(jump(self.chi, self.p, self.m))
        while len(jumps) < k:
            jumps.append(mulmod(jumps[-1], jumps[0], self.chi, self.m))
        return _dot(jumps[k - 1], terms, self.m)

    def pth_power_charpoly(self):
        """The characteristic polynomial of u^p, lowest degree first, by
        Newton's identities on P_p(u), P_2p(u), .., P_np(u)."""
        n = len(self.chi) - 1
        head = self.sums(n - 1)
        return from_power_sums([n] + [self.term_p(head, k) for k in range(1, n + 1)], self.m)


def _pth_power_sum(mobius, one_minus=False):
    """A cached RootSums attribute: P_p(u) for the image u of c under
    mobius, or P_p(1-u) when one_minus."""
    return functools.cached_property(lambda rs: rs._power_sum_p(mobius, one_minus))


def _polylog_trace(s, mobius):
    """A cached RootSums attribute: Tr(pounds_s(u)) = sum_(k<p) k^-s P_k(u)."""
    return functools.cached_property(lambda rs: pounds_from_traces(
        s, rs._image(mobius).sums(rs.p), rs.p, rs.e))


class RootSums:
    """Cached sums over the roots c of a monic f of degree n over Z/p^e.

    f is x's root polynomial (root_sums) or x0's cofactor; r is only the
    shift in s = 1/(r-1+c).  Every quantity is a power sum of the
    polynomial of a Moebius image of c, or a sequence that obeys its
    recurrence, kept as one list and extended when read further (_Image.sums,
    _shift_traces).  _terms decides how far a sequence runs, and _Image.term_p
    takes each p-th term from it.  rings, the reference, is made on request.
    """

    def __init__(self, f, r):
        self.f, self.r, self.n = f, r, f.degree
        self.p, self.e, self.m = f.ctx.p, f.ctx.e, f.ctx.modulus
        self._images = {}
        self._traces = []

    @functools.cached_property
    def rings(self):
        return _factor_rings(self.f)

    def trace_sum(self, build):
        return sum(build(ring).trace() for ring in self.rings) % self.m

    def _image(self, mobius):
        if mobius not in self._images:
            if mobius == C:
                chi = self.f.coeffs
            elif mobius in _REVERSED:
                chi = reversal(self._image(_REVERSED[mobius]).chi, self.m)
            else:
                chi = image_poly(self.f.coeffs, mobius, self.m)
            self._images[mobius] = _Image(chi, self.p, self.m)
        return self._images[mobius]

    def _terms(self, mobius):
        """P_0(u).. for u = mobius(c): to P_p at or below the bound, else the
        head P_0..P_(n-1), which term_p continues by a jump."""
        return self._image(mobius).sums(self.p if self.p <= SEQUENCE_BOUND else self.n - 1)

    def _one_minus_p(self, mobius, terms):
        """Tr(v (1-u)^p) for u = mobius(c), from terms[k] = Tr(v u^k).

        (1-u)^p = sum_j (-1)^j C(p,j) u^j.  When terms runs to k = p this is
        one dot product.  Otherwise terms needs k < n only: those binomial
        sums start the sequence Tr(v (1-u)^k), and one jump mod 1-u's
        polynomial gives its term p.
        """
        if len(terms) > self.p:
            return _dot(_signed_binomials(self.p, self.e), terms, self.m)
        head = _binomial_head(terms, self.n, self.m)
        return self._image(_ONE_MINUS[mobius]).term_p(head)

    def _power_sum_p(self, mobius, one_minus):
        """P_p(u), or P_p(1-u) when one_minus, for u = mobius(c)."""
        terms = self._terms(mobius)
        return self._one_minus_p(mobius, terms) if one_minus else self._image(mobius).term_p(terms)

    def _shift_traces(self, count):
        """T_0..T_count, T_k = Tr(s c^k) with s = 1/(r-1+c): one list, kept and extended.

        T_0 = Tr(s) = -f'(1-r)/f(1-r) (kernels.pole_trace), and
        s c^(k+1) = c^k - (r-1) s c^k gives T_(k+1) = P_k(c) - (r-1) T_k.
        """
        t = self._traces
        if not t:
            t.append(pole_trace(self.f.coeffs, 1 - self.r, self.m))
        for pk in self._image(C).sums(count - 1)[len(t) - 1:]:
            t.append((pk - (self.r - 1) * t[-1]) % self.m)
        return t[:count + 1]

    @functools.cached_property
    def _shift_bracket(self):
        """(T_0, T_p, U_p), U_p = Tr(s (1-c)^p) = sum_j (-1)^j C(p,j) T_j,
        read off T_0..T_p at or below the bound, else by one jump each."""
        t = self._shift_traces(min(len(self._terms(C)), self.p))
        return t[0], self._image(C).term_p(t), self._one_minus_p(C, t)

    # three sequences, of c, 1/c and w, give all six p-th power sums
    sum_c_pow_p = _pth_power_sum(C)
    sum_one_minus_c_pow_p = _pth_power_sum(C, one_minus=True)
    sum_inv_c_pow_p = _pth_power_sum(INV_C)
    sum_one_minus_inv_c_pow_p = _pth_power_sum(INV_C, one_minus=True)
    sum_inv_one_minus_c_pow_p = _pth_power_sum(W)
    sum_cp_over_cm1_p = _pth_power_sum(W, one_minus=True)
    sum_pounds1 = _polylog_trace(1, C)
    sum_pounds2_c = _polylog_trace(2, C)
    sum_pounds2_one_minus_c = _polylog_trace(2, ONE_MINUS_C)

    @functools.cached_property
    def sum_pounds1_short(self):
        """Tr(pounds_1(c) w^p), w = 1/(1-c).

        c^j = (1 - 1/w)^j gives Tr(c^j w^p) = sum_i C(j,i) (-1)^i P_(p-i)(w)
        for j < n; f's recurrence continues the sequence in j.
        """
        n, p, m = self.n, self.p, self.m
        w = self._image(W)
        q = jump(w.chi, p - n + 1, m)
        sums = w.sums(2 * n - 2)
        tail = [_dot(q, sums[j:j + n], m) for j in range(n)]   # P_(p-n+1)..P_p(w)
        head = _binomial_head(tail[::-1], n, m)
        return pounds_from_traces(1, extend_recurrence(self.f.coeffs, head, p - 1, m), p, self.e)

    @functools.cached_property
    def sum_rkk_long(self):
        """Tr((c - c^p) s) = T_1 - T_p."""
        t = self._shift_traces(self.n)
        return (t[1] - self._image(C).term_p(t)) % self.m

    @functools.cached_property
    def sum_rkk_short(self):
        """Tr((c - c^p) s / (1 - c^p)) = T_0 + Tr(s (c - 1) / (1 - c^p)).

        With h the characteristic polynomial of c^p and
        g(t) = (h(t) - h(1))/(t - 1), 1/(1 - c^p) = g(c^p)/h(1), so the
        second term is h(1)^-1 sum_j g_j (T_(jp+1) - T_(jp)).  h(1) is a
        unit: mod p it is prod (1 - c_i)^p = f(1)^p (x^-p for x's f).
        """
        c, t, m = self._image(C), self._shift_traces(self.n), self.m
        g, h_at_one = _synthetic_div(c.pth_power_charpoly(), 1, m)
        acc = g[0] * (t[1] - t[0]) + sum(
            gj * (c.term_p(t[1:], j) - c.term_p(t, j)) for j, gj in enumerate(g[1:], 1))
        return (t[0] + acc * pow(h_at_one, -1, m)) % m

    def _bracket_trace(self, k):
        """Tr(s (k - (r-1) c^p - r (1-c)^p))."""
        r = self.r
        t_0, t_p, u_p = self._shift_bracket
        return k * t_0 - (r - 1) * t_p - r * u_p

    @functools.cached_property
    def sum_mod2_full(self):
        """Tr((c-1) s (r - (r-1) c^p - r (1-c)^p)), with (c-1) s = 1 - r s."""
        r = self.r
        plain = r * self.n - (r - 1) * self.sum_c_pow_p - r * self.sum_one_minus_c_pow_p
        return (plain - r * self._bracket_trace(r)) % self.m

    @functools.cached_property
    def sum_mod2_open(self):
        """Tr(r s (r-1 - (r-1) c^p - r (1-c)^p))."""
        return self.r * self._bracket_trace(self.r - 1) % self.m

    @functools.cached_property
    def z_inverse_pow_p_charpoly(self):
        """Coefficients of prod_i (T - (c_i/(c_i-1))^p), lowest degree first.

        z = c/(c-1); _Image.pth_power_charpoly.
        """
        return tuple(self._image(Z).pth_power_charpoly())


# The grid walk asks for one key per point (one precision per point), and
# only while it is at that point, so two entries keep every repeat; more
# would only hold finished points' sequences in memory.
@functools.lru_cache(maxsize=2)
def root_sums(r, x, p, e):
    return RootSums(build_root_poly(r, x, ctx_for(p, e)), r)


@dataclass(frozen=True)
class Point:
    """One (r, x, p) inside its families' scope; its root sums are read at p^e.

    The point looks its RootSums up once and keeps them, and keeps x^p mod
    p^e, which every lower precision reduces.
    """

    r: int
    x: Fraction
    p: int
    e: int

    @functools.cached_property
    def rs(self):
        return root_sums(self.r, self.x, self.p, self.e)

    @functools.cached_property
    def _xp(self):
        ctx = ctx_for(self.p, self.e)
        return pow(residue_from_rational(self.x, ctx), self.p, ctx.modulus)

    def xp(self, e):
        """x^p mod p^e, for e up to the point's precision."""
        if e > self.e:
            raise ValueError(f"x^p mod p^{e} read at a point of precision {self.e}")
        return self._xp % self.p ** e

    def lhs(self, d, sum_range, e):
        """The sum of binom(rk,k) x^k / k^d over sum_range, mod p^e."""
        return lhs_sum(self.r, self.x, d, sum_range, ctx_for(self.p, e))

    def report(self, theorem, e, lhs, rhs, m=None):
        return checked(theorem, self.r, self.p, e, self.x, lhs, rhs, m)

    def skip(self, theorem, e, reason):
        return skipped(theorem, self.r, self.p, e, self.x, reason)


# scope requirements besides p > r, each named by the reason its skip rows give
R_AT_LEAST_2 = "RequiresRAtLeast2"
P_ABOVE_3 = "SmallPrime"
P_COPRIME_TO_R_RM1 = "PDividesRRm1"


def _degeneracy_reason(r, x, p):
    """Skip reason for x outside a generic checker's scope, else None."""
    try:
        kind = classify_x(r, x, p)
    except DenominatorNotUnit:
        return "DenominatorNotUnit"
    if kind is Degeneracy.ZERO_X:
        return "DegenerateX:zero"
    if kind is Degeneracy.DOUBLE_ROOT_X0:
        return "DegenerateX:x0"
    return None


def _skip_rows(tag, r, x, p, degeneracy=None):
    """tag's skip rows at (r, x, p), or [] inside its scope.

    A missed scope requirement gives one row per skip id; failing that, a
    degenerate x (degeneracy names why) gives one per skip id and window.
    """
    fam = FAMILIES[tag]
    missed = {R_AT_LEAST_2: r < 2, P_ABOVE_3: p <= 3, P_COPRIME_TO_R_RM1: r * (r - 1) % p == 0}
    reason = next((req for req in fam.scope if missed[req]), None)
    windows = (None,)
    if reason is None:
        reason = degeneracy
        if fam.windows:
            windows = range(1, r)
    if reason is None:
        return []
    return [skipped(i, r, p, fam.e, x, reason, m) for i in fam.ids or (tag,) for m in windows]


def point_rows(tags, r, p, x):
    """The rows of the per-(r, p, x) tags at one point, skip rows included.

    x is coerced and classified once.  The tags inside their scope share one
    Point, read at the highest precision any of them reads; a tag named
    twice runs twice.
    """
    x = as_rational(x)
    degeneracy = _degeneracy_reason(r, x, p)
    rows, inside = [], []
    for tag in tags:
        skip = _skip_rows(tag, r, x, p, degeneracy)
        if skip:
            rows += skip
        else:
            inside.append(FAMILIES[tag])
    if inside:
        pt = Point(r, x, p, max(fam.max_e for fam in inside))
        for fam in inside:
            rows += fam.rows(pt)
    return rows


def check_rkksuk(pt):
    """Full-range sum of binom(rk,k) x^k / k against -r x^p * sum pounds_1(c_i) mod p."""
    rhs = -pt.r * pt.xp(1) * pt.rs.sum_pounds1
    return [pt.report("rkksuk", 1, pt.lhs(1, full_range(pt.p), 1), rhs)]


def check_rkksuk_short(pt):
    """Short-range sum against -sum pounds_1(c_i)/(1-c_i)^p mod p."""
    lhs = pt.lhs(1, short_range(pt.r, pt.p), 1)
    return [pt.report("rkksuk_short", 1, lhs, -pt.rs.sum_pounds1_short)]


def check_rkk(pt):
    """Both derivative congruences for sums of binom(rk,k) x^k mod p."""
    r, p, rs = pt.r, pt.p, pt.rs
    lhs_long = pt.lhs(0, full_range(p), 1)
    out = [pt.report("rkk_long", 1, lhs_long, -r * pt.xp(1) * rs.sum_rkk_long)]
    if r >= 2:
        lhs_short = pt.lhs(0, short_range(r, p), 1)
        out.append(pt.report("rkk_short", 1, lhs_short, -rs.sum_rkk_short))
    return out


def check_lemma_technical(pt):
    """sum 1/(1-c_i)^p == (r-1) * sum c_i^p/(c_i-1)^p mod p^2 (r >= 2)."""
    rs = pt.rs
    return [pt.report("lemma_technical", 2, rs.sum_inv_one_minus_c_pow_p,
                      (pt.r - 1) * rs.sum_cp_over_cm1_p)]


def check_mystery(pt):
    """The two p-th power sum congruences mod p^2 for the roots and their reciprocals."""
    r, rs = pt.r, pt.rs
    x_inv_p = pow(pt.xp(2), -1, pt.p ** 2)
    lhs_a = (r - 1) * rs.sum_c_pow_p + r * rs.sum_one_minus_c_pow_p
    lhs_b = rs.sum_inv_c_pow_p + r * rs.sum_one_minus_inv_c_pow_p
    rhs_b = r if r > 2 else x_inv_p + 2
    return [
        pt.report("mystery_a", 2, lhs_a, x_inv_p + r * (r - 1)),
        pt.report("mystery_b", 2, lhs_b, rhs_b),
    ]


def check_rkksuk_z(pt):
    """Per-window elementary-symmetric congruence mod p^2, one row per m.

    Also emits a certificate row: the constant term of the combined
    characteristic polynomial of (c/(c-1))^p must equal x^p mod p^2.
    """
    r, p = pt.r, pt.p
    charpoly = pt.rs.z_inverse_pow_p_charpoly
    inv_r = pow(r, -1, p)
    out = []
    for m in range(1, r):
        # the inner sum is multiplied by p, so it is only needed mod p;
        # this keeps the binomial table requirement at e=1
        lhs = p * (inv_r * pt.lhs(1, range_A_star(r, m, p), 1) % p)
        delta = 1 if m == 1 else 0
        out.append(pt.report("rkksuk_z", 2, lhs, delta + charpoly[r - m], m=m))
    out.append(pt.report("rkksuk_z_const", 2, charpoly[0], pt.xp(2)))
    return out


def check_rkksuk_long(pt):
    """(p/r) * full-range sum of binom(rk,k) x^k/k == -x^p + prod(1 - z_i^-p) mod p^2."""
    r, p = pt.r, pt.p
    lhs = p * (pow(r, -1, p) * pt.lhs(1, full_range(p), 1) % p)
    # prod(1 - z_i^-p) is the combined characteristic polynomial at T = 1
    prod_at_one = sum(pt.rs.z_inverse_pow_p_charpoly)
    return [pt.report("rkksuk_long", 2, lhs, prod_at_one - pt.xp(2))]


def check_rkksukk(pt):
    """Full-range sum with 1/k^2 mod p, plus the p^2-divisibility certificate.

    The bracket -1 + (r-1) x^p sum(c_i^p - 1) + r x^p sum(1-c_i)^p is
    computed mod p^3 and must vanish mod p^2; the quotient joins
    r x^p sum pounds_2(1-c_i) to form the right-hand side.
    """
    r, p, rs = pt.r, pt.p, pt.rs
    terms = (r - 1) * (rs.sum_c_pow_p - r) + r * rs.sum_one_minus_c_pow_p
    bracket = (-1 + pt.xp(3) * terms) % p ** 3
    cert = pt.report("rkksukk_cert", 2, bracket % (p * p), 0)
    if cert.verdict == FAIL:
        return [cert, pt.skip("rkksukk", 1, "DivisibilityFailure")]
    rhs = bracket // (p * p) + r * pt.xp(1) * rs.sum_pounds2_one_minus_c
    return [cert, pt.report("rkksukk", 1, pt.lhs(2, full_range(p), 1), rhs)]


def check_rkksukmod2(pt):
    """Full-range sum with 1/k mod p^2, plus the p-divisibility certificate."""
    r, p, rs = pt.r, pt.p, pt.rs
    terms = (r - 2) * (rs.sum_c_pow_p - r) + r * rs.sum_one_minus_c_pow_p
    bracket = (2 - pt.xp(3) * terms) % p ** 3
    cert = pt.report("rkksukmod2_cert", 1, bracket % p, 0)
    if cert.verdict == FAIL:
        return [cert, pt.skip("rkksukmod2", 2, "DivisibilityFailure")]
    delta = (rs.sum_pounds2_c - rs.sum_pounds2_one_minus_c) % p
    rhs = bracket // p + p * (r * pt.xp(1) * delta % p)
    return [cert, pt.report("rkksukmod2", 2, pt.lhs(1, full_range(p), 2), rhs)]


def check_rkkmod2(pt):
    """Sum over 0 <= k < p of binom(rk,k) x^k mod p^2 via the root formula."""
    lhs = pt.lhs(0, full_range(pt.p, include_zero=True), 2)
    return [pt.report("rkkmod2", 2, lhs, -pt.xp(2) * pt.rs.sum_mod2_full)]


def check_rkkmod2_var(pt):
    """Sum over 0 < k < p variant mod p^2, plus the k=0 cross-identity.

    The two right-hand sides must differ by exactly the k=0 term:
    rhs(closed range) - rhs(open range) == 1 mod p^2.
    """
    xp, rs = pt.xp(2), pt.rs
    rhs = xp * rs.sum_mod2_open
    return [
        pt.report("rkkmod2_var", 2, pt.lhs(0, full_range(pt.p), 2), rhs),
        pt.report("rkkmod2_cross", 2, -xp * rs.sum_mod2_full - rhs, 1),
    ]


def check_rkkmod2_multiple(r, p):
    """The double-root evaluation x0 = (r-1)^(r-1)/r^r mod p^2."""
    x0 = x0_value(r)
    skip = _skip_rows("rkkmod2_multiple", r, x0, p)
    if skip:
        return skip
    pt = Point(r, x0, p, 2)
    m2 = p * p
    _, cofactor = double_root_cofactor(r, p, 2)
    lhs = pt.lhs(0, full_range(p, include_zero=True), 2)
    # p pounds_1(t) = 1 - t^p - (1-t)^p mod p^2 at the double root t = 1-r
    tail = r * (r - 2) * pow(r - 1, -1, m2) * (1 - pow(1 - r, p, m2) - pow(r, p, m2))
    head = ((r - 2 + 3 * p * r) * pow(r - 1, p - 1, m2) - tail) % m2
    term1 = 2 * pt.xp(2) * pow(3, -1, m2) * head
    # Tr((c-1) s (c^p + r p pounds_1(c))) over the cofactor's roots is its
    # sum_mod2_full: p pounds_1(c) = 1 - c^p - (1-c)^p mod p^2
    term2 = pt.xp(2) * RootSums(cofactor, r).sum_mod2_full if cofactor.degree else 0
    return [pt.report("rkkmod2_multiple", 2, lhs, term1 - term2)]


def check_central_pol(x, p):
    """Central binomial sum against the closed form (1-4x)^((p-1)/2) mod p."""
    x = as_rational(x)
    if x.denominator % p == 0:
        return [skipped("central_pol", 2, p, 1, x, "DenominatorNotUnit")]
    pt = Point(2, x, p, 1)
    xv = residue_from_rational(x, ctx_for(p, 1))
    rhs = pow((1 - 4 * xv) % p, (p - 1) // 2, p)
    return [pt.report("central_pol", 1, pt.lhs(0, short_range(2, p, include_zero=True), 1), rhs)]


def split_residues(r, p):
    """The nondegenerate residues a mod p at which a(c-1)^r + c^(r-1) splits over F_p.

    Each c != 1 in F_p is a root for exactly one residue,
    a(c) = -c^(r-1) (c-1)^-r; a nondegenerate a gives a squarefree
    polynomial of degree r, which splits exactly when r values of c map to a.
    """
    counts = Counter(-pow(c, r - 1, p) * pow(c - 1, -r, p) % p for c in range(p) if c != 1)
    return [a for a in range(1, p) if counts[a] == r
            and classify_residue(r, a, p) is Degeneracy.NONDEGENERATE]


def check_cor_split(r, p):
    """For every residue a whose root polynomial splits over F_p, both sums vanish."""
    ctx, long, short = ctx_for(p, 1), full_range(p), short_range(r, p)
    out = []
    for a in split_residues(r, p):
        x = Fraction(a)
        out.append(checked("cor_split_long", r, p, 1, x, lhs_sum(r, x, 0, long, ctx), 0))
        out.append(checked("cor_split_short", r, p, 1, x, lhs_sum(r, x, 0, short, ctx), 0))
    return out


def check_r3_beta(p, sample_count=8, seed=0):
    """The r=3 sums parametrized by beta with c = beta(1-beta), x = c^2/(1-c)^3.

    Both displayed congruences are checked mod p for sampled beta in F_p;
    degenerate draws (c in {0, 1} or x hitting 0 or x0) become skip rows.
    """
    skip = _skip_rows("r3_beta", 3, None, p)
    if skip:
        return skip
    rng = random.Random(f"beta|{seed}|{p}")
    ctx = ctx_for(p, 1)
    out = []
    for _ in range(sample_count):
        beta = rng.randrange(2, p - 1) if p > 5 else rng.randrange(1, p)
        c = beta * (1 - beta) % p
        if c == 0 or c == 1:
            out.append(skipped("r3_beta_long", 3, p, 1, Fraction(beta), "DegenerateBeta"))
            continue
        x = c * c % p * pow((1 - c) % p, -3, p) % p
        if classify_residue(3, x, p) is not Degeneracy.NONDEGENERATE:
            out.append(skipped("r3_beta_long", 3, p, 1, Fraction(beta), "DegenerateX"))
            continue
        pt = Point(3, Fraction(x), p, 1)
        l1_beta = pounds(1, beta, ctx)
        l1_c = pounds(1, c, ctx)
        one_minus_c = (1 - c) % p
        lhs_long = pow(one_minus_c, 2 * p, p) * pt.lhs(1, full_range(p), 1)
        rhs_long = 3 * l1_beta - 3 * (1 - pow(c, p, p)) * l1_c
        lhs_short = pow(one_minus_c, p, p) * pt.lhs(1, short_range(3, p), 1)
        out.append(pt.report("r3_beta_long", 1, lhs_long, rhs_long, m=beta))
        out.append(pt.report("r3_beta_short", 1, lhs_short, 3 * l1_beta - 3 * l1_c, m=beta))
    return out


# --- the numerical congruence table -----------------------------------------

def _num_rows(p):
    """All closed-form rows: (id, r, x, d, sum range, e, rhs callable, admissible)."""
    ct = constants_table(p)
    m2 = p * p
    full, full0, short = full_range(p), full_range(p, include_zero=True), short_range(3, p)

    def inv(a, mod):
        return pow(a % mod, -1, mod)

    rows = [
        ("num_r3_x2_k1_sq", 3, Fraction(2), 1, full, 2,
         lambda: -3 * p * ct.qp2 * ct.qp2 % m2, True),
        ("num_r3_x2_k2", 3, Fraction(2), 2, full, 1,
         lambda: 6 * ct.sign_half * ct.euler_pm3 % p, True),
        ("num_r3_x2_k0_sq", 3, Fraction(2), 0, full0, 2,
         lambda: ((6 * ct.sign_half - 1) * inv(5, m2)
                  + 6 * inv(5, m2) * p * ct.qp2) % m2, p != 5),
        ("num_r3_x2_short", 3, Fraction(2), 1, short, 1,
         lambda: -3 * ct.qp2 % p, True),
        ("num_r3_x18_k1", 3, Fraction(1, 8), 1, full, 1,
         lambda: (3 * ct.qp2 - 3 * inv(4, p) * ct.lucas_q) % p, p != 5),
        ("num_r3_x18_short", 3, Fraction(1, 8), 1, short, 1,
         lambda: (3 * ct.qp2 - 3 * inv(2, p) * ct.lucas_q) % p, p != 5),
        ("num_r3_x18_k0_sq", 3, Fraction(1, 8), 0, full0, 2,
         lambda: (inv(4, m2) + 3 * inv(4, m2) * ct.leg5
                  + 9 * inv(10, m2) * ct.leg5 * p * ct.lucas_q) % m2, p != 5),
        ("num_r3_x427_k1", 3, Fraction(4, 27), 1, full, 1,
         lambda: (-8 * inv(3, p) * ct.qp2 + 3 * ct.qp3) % p, True),
        ("num_r3_x427_short", 3, Fraction(4, 27), 1, short, 1,
         lambda: (-4 * ct.qp2 + 3 * ct.qp3) % p, True),
        ("num_r3_x427_k0_sq", 3, Fraction(4, 27), 0, full0, 2,
         lambda: (inv(9, m2) + 8 * inv(27, m2) * p * (3 + ct.qp2)) % m2, True),
        ("num_r4_x0_k0", 4, Fraction(27, 256), 0, full0, 1,
         lambda: (11 * inv(72, p) + inv(288, p) * ct.leg_m2) % p, p > 4),
        ("num_r2_x13_k1_sq", 2, Fraction(1, 3), 1, full, 2,
         lambda: (ct.qp3_sq - inv(2, m2) * p * ct.qp3 * ct.qp3) % m2, True),
        ("num_r2_x13_k2", 2, Fraction(1, 3), 2, full, 1,
         lambda: (inv(9, p) * ct.leg_p_3 * ct.b_pm2_third
                  - inv(2, p) * ct.qp3 * ct.qp3) % p, True),
        ("num_r2_xm2_k1_sq", 2, Fraction(-2), 1, full, 2,
         lambda: (-4 * ct.qp2_sq + 4 * p * ct.qp2 * ct.qp2) % m2, True),
        ("num_r2_xm2_k2", 2, Fraction(-2), 2, full, 1,
         lambda: -2 * ct.qp2 * ct.qp2 % p, True),
    ]
    return rows


def check_numerics_table(p):
    """Verify every closed-form numerical congruence at its stated modulus."""
    skip = _skip_rows("numerics", 0, None, p)
    if skip:
        return skip
    out = []
    for row_id, r, x, d, sum_range, e, rhs_fn, admissible in _num_rows(p):
        if not admissible:
            out.append(skipped(row_id, r, p, e, x, "ExcludedPrime"))
            continue
        lhs = lhs_sum(r, x, d, sum_range, ctx_for(p, e))
        out.append(checked(row_id, r, p, e, x, lhs, rhs_fn()))
    return out


# --- characteristic zero -----------------------------------------------------

def _exact_row(theorem, r, holds):
    return CongruenceReport(
        theorem=theorem, r=r, p=0, e=0, x=None, lhs=0 if holds else 1, rhs=0,
        modulus=0, verdict=PASS if holds else FAIL,
    )


def series_rows(r, order):
    """B_r = 1 + x B_r^r and sum_k binom(rk,k) x^k / k = r log B_r, exactly to order."""
    residual = seriesid.fuss_catalan_residual(r, order)
    return [
        _exact_row("series_functional_eq", r, all(c == 0 for c in residual)),
        _exact_row("series_log", r, seriesid.check_series_log_identity(r, order)),
    ]


def identity_rows(r, n):
    """The power-sum polynomial identities in Q[y] and their differentiation ladder."""
    rows = [_exact_row(f"identity_{key}", r, holds)
            for key, holds in seriesid.check_identities(r, n).items()]
    ladder = seriesid.check_differentiation_ladder(r, n)
    return rows + [_exact_row("identity_ladder", r, ladder)]


# --- the table ---------------------------------------------------------------

# fe and r3_beta sample their own points: this many when --x-random is not given
DEFAULT_SAMPLES = 8


def _samples(config):
    return DEFAULT_SAMPLES if config.x_random is None else config.x_random


# grids: the part of the (r, p, x) sweep one call of a family's rows takes
RPX = "rpx"        # rows(Point), through point_rows
RP = "rp"          # rows(r, p)
PX = "px"          # rows(p, x); the checker fixes r = 2
P = "p"            # rows(p, config)
EXACT = "exact"    # rows(r, config): characteristic zero, no primes


@dataclass(frozen=True)
class Family:
    """One CLI tag: the grid it walks, its rows and its skip rows."""

    grid: str                # the part of the sweep one call of rows takes
    e: int                   # the precision of the tag's rows and skip rows
    rows: object             # the rows from the grid's arguments (a Point on RPX); calls
                             # the checker by module-level name, so it can be rebound
    scope: tuple = ()        # requirements besides p > r, named by their skip reasons
    ids: tuple = ()          # the skip rows' theorem ids, when not just the tag
    windows: bool = False    # a degenerate x skips each window m = 1..r-1
    default: bool = True     # run when no tags are named
    reads_e: int = 0         # the highest precision the checker reads, when above e

    @property
    def max_e(self):
        """The highest precision the tag reads: it bounds the moduli a run
        needs and sets the root-sum precision of a point the tag shares."""
        return max(self.e, self.reads_e)


FAMILIES = {
    "rkksuk": Family(RPX, 1, lambda pt: check_rkksuk(pt)),
    "rkksuk_short": Family(RPX, 1, lambda pt: check_rkksuk_short(pt)),
    "rkk": Family(RPX, 1, lambda pt: check_rkk(pt), ids=("rkk_long", "rkk_short")),
    "rkksuk_z": Family(RPX, 2, lambda pt: check_rkksuk_z(pt), (R_AT_LEAST_2,), windows=True),
    "rkksuk_long": Family(RPX, 2, lambda pt: check_rkksuk_long(pt), (R_AT_LEAST_2,)),
    "lemma_technical": Family(RPX, 2, lambda pt: check_lemma_technical(pt), (R_AT_LEAST_2,)),
    "mystery": Family(
        RPX, 2, lambda pt: check_mystery(pt), (R_AT_LEAST_2,), ("mystery_a", "mystery_b")),
    "rkksukk": Family(RPX, 1, lambda pt: check_rkksukk(pt), (P_ABOVE_3,), reads_e=3),
    "rkksukmod2": Family(RPX, 2, lambda pt: check_rkksukmod2(pt), (P_ABOVE_3,), reads_e=3),
    "rkkmod2": Family(RPX, 2, lambda pt: check_rkkmod2(pt)),
    "rkkmod2_var": Family(RPX, 2, lambda pt: check_rkkmod2_var(pt), (R_AT_LEAST_2,)),
    "rkkmod2_multiple": Family(
        RP, 2, lambda r, p: check_rkkmod2_multiple(r, p),
        (R_AT_LEAST_2, P_ABOVE_3, P_COPRIME_TO_R_RM1)),
    "central_pol": Family(PX, 1, lambda p, x: check_central_pol(x, p)),
    "cor_split": Family(RP, 1, lambda r, p: check_cor_split(r, p), default=False),
    "r3_beta": Family(
        P, 1, lambda p, config: check_r3_beta(p, _samples(config), config.seed),
        (P_ABOVE_3,), ("r3_beta_long",), default=False),
    # numerics reads p^3 through the Fermat quotients mod p^2
    "numerics": Family(
        P, 1, lambda p, config: check_numerics_table(p), (P_ABOVE_3,), default=False,
        reads_e=3),
    "fe": Family(
        P, 1, lambda p, config: finlog.check_functional_equations(
            p, _samples(config), config.seed),
        default=False, reads_e=3),
    "series": Family(
        EXACT, 0, lambda r, config: series_rows(r, config.series_order), default=False),
    "identities": Family(
        EXACT, 0, lambda r, config: identity_rows(r, config.identity_n), default=False),
}
