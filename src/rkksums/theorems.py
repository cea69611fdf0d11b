"""The congruence families, as one table.

Every congruence has one shape.  Its left-hand side is a brute-force sum of
binom(rk,k) x^k / k^d over a range of k (binomsums).  Its right-hand side is
computed independently: symmetric functions of all roots c of
x(c-1)^r + c^(r-1), and special constants (finlog).  A verdict is an exact
equality of residues.

The symmetric functions (RootSums) are integer sequences mod p^e.  Each
quantity is a Newton power sum of the polynomial whose roots are a Moebius
image of c (1-c, 1/c, 1-1/c, 1/(1-c), c/(c-1), 1/(r-1+c); modring.image_poly),
or a scalar sequence obeying such a polynomial's recurrence, whose p-th term
comes from one jump t^p mod that polynomial (modring.jump).  No ring element
is built on this path; GaloisRing and the factoring in polyfactor are the
reference the tests compare with.

FAMILIES has one row per CLI tag: the grid it walks, its precision, its
scope, its skip-row ids and the function computing its rows.  One guard
(_skip_rows, and _guarded for the per-(r, p, x) checkers) coerces x and
turns a point outside a family's scope, or a degenerate x, into skip rows.
Inside the scope a checker gets a Point, which builds the contexts, x^p and
the root sums, so each checker keeps only its mathematics.
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
from .errors import DenominatorNotUnit, NonUnitDenominator
from .finlog import constants_table, pounds, pounds_from_traces
from .kernels import mulmod
from .modring import (
    GaloisRing,
    ModulusCtx,
    as_rational,
    extend_recurrence,
    from_power_sums,
    image_poly,
    jump,
    power_sums,
    residue_from_rational,
)
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
def _factor_rings(r, x, p, e):
    """The algebra of the unfactored root polynomial, as a one-ring tuple.

    f is squarefree mod p for nondegenerate x, so this one ring is the
    product of the Galois rings of f's lifted factors: its trace is the sum
    over all roots and its characteristic polynomial the product.  Root sums
    never build it; it is the reference that RootSums.rings exposes.
    """
    f = build_root_poly(r, x, ModulusCtx(p, e))
    return (GaloisRing(f),)


# Moebius images u = (a c + b)/(gamma c + delta) of a root c, as (a, b, gamma, delta)
C = (1, 0, 0, 1)
ONE_MINUS_C = (-1, 1, 0, 1)
INV_C = (0, 1, 1, 0)
ONE_MINUS_INV_C = (1, -1, 1, 0)
W = (0, 1, -1, 1)              # 1/(1-c)
Z = (1, 0, 1, -1)              # c/(c-1)


def _dot(q, terms, m):
    return sum(map(operator.mul, q, terms)) % m


def _shift_traces(f, r, sums, m):
    """T_0..T_len(sums), T_k = Tr(s c^k) over the roots c of f, s = 1/(r-1+c).

    T_0 = P_1(s), and s c^(k+1) = c^k - (r-1) s c^k gives
    T_(k+1) = P_k(c) - (r-1) T_k from sums = P_0(c), P_1(c), ...
    """
    chi_s = image_poly(f, (0, 1, 1, r - 1), m)
    t = [-chi_s[-2] % m]
    for pk in sums:
        t.append((pk - (r - 1) * t[-1]) % m)
    return t


class _Image:
    """The images u of all roots of one polynomial under one Moebius map.

    chi is their monic polynomial, so the power sums P_k(u) = Tr(u^k) obey
    its recurrence, and so does Tr(v u^k) for any fixed v: term k p of such
    a sequence is a dot product with the jump t^(k p) mod chi.
    """

    __slots__ = ("chi", "p", "m", "head", "_jumps", "_below_p")

    def __init__(self, chi, p, m):
        self.chi, self.p, self.m = chi, p, m
        self.head = tuple(power_sums(chi, len(chi) - 2, m))   # P_0..P_(n-1)
        self._jumps = []
        self._below_p = None

    def jump(self, k=1):
        """t^(k p) mod chi."""
        jumps = self._jumps
        if not jumps:
            jumps.append(jump(self.chi, self.p, self.m))
        while len(jumps) < k:
            jumps.append(mulmod(jumps[-1], jumps[0], self.chi, self.m))
        return jumps[k - 1]

    def at_p(self, terms, k=1):
        """Term k p of the sequence whose terms 0..n-1 are terms."""
        return _dot(self.jump(k), terms, self.m)

    def power_sum_p(self, k=1):
        """P_(k p)(u)."""
        return self.at_p(self.head, k)

    def power_sums_below_p(self):
        """P_0(u)..P_(p-1)(u), the sequence a polylog trace weighs."""
        if self._below_p is None:
            self._below_p = power_sums(self.chi, self.p - 1, self.m)
        return self._below_p


def _pth_power_sum(mobius):
    """A cached RootSums attribute: P_p(u) for the image u of c under mobius."""
    return functools.cached_property(lambda rs: rs._image(mobius).power_sum_p())


def _polylog_trace(s, mobius):
    """A cached RootSums attribute: Tr(pounds_s(u)) = sum_(k<p) k^-s P_k(u)."""
    return functools.cached_property(lambda rs: pounds_from_traces(
        s, rs._image(mobius).power_sums_below_p(), rs.p, rs.e))


class RootSums:
    """Cached root sums of (r, x) at p^e, as integer sequences.

    Every quantity is a power sum of the polynomial whose roots are a
    Moebius image of the roots c of f, or a scalar sequence that obeys such
    a polynomial's recurrence; p-th terms come from one jump each.  No ring
    element is built: rings (for reference checks) is made only on request.
    """

    def __init__(self, r, x, p, e):
        self.r = r
        self.x = x
        self.p = p
        self.e = e
        self.ctx = _ctx(p, e)
        self.m = self.ctx.modulus
        self._images = {}

    @functools.cached_property
    def rings(self):
        return _factor_rings(self.r, self.x, self.p, self.e)

    def trace_sum(self, build):
        return sum(build(ring).trace() for ring in self.rings) % self.m

    @functools.cached_property
    def _f(self):
        return build_root_poly(self.r, self.x, self.ctx).coeffs

    def _image(self, mobius):
        if mobius not in self._images:
            chi = self._f if mobius == C else image_poly(self._f, mobius, self.m)
            self._images[mobius] = _Image(chi, self.p, self.m)
        return self._images[mobius]

    @functools.cached_property
    def _shift_traces(self):
        """T_0..T_r, T_k = Tr(s c^k) with s = 1/(r-1+c)."""
        return _shift_traces(self._f, self.r, self._image(C).head, self.m)

    @functools.cached_property
    def _shift_trace_p(self):
        """T_p = Tr(s c^p)."""
        return self._image(C).at_p(self._shift_traces[:self.r])

    @functools.cached_property
    def _shift_one_minus_trace_p(self):
        """U_p = Tr(s (1-c)^p), from U_0 = T_0 and U_(k+1) = r U_k - P_k(1-c)."""
        r, m = self.r, self.m
        image = self._image(ONE_MINUS_C)
        u = [self._shift_traces[0]]
        for pk in image.head[:r - 1]:
            u.append((r * u[-1] - pk) % m)
        return image.at_p(u)

    sum_c_pow_p = _pth_power_sum(C)
    sum_one_minus_c_pow_p = _pth_power_sum(ONE_MINUS_C)
    sum_inv_c_pow_p = _pth_power_sum(INV_C)
    sum_one_minus_inv_c_pow_p = _pth_power_sum(ONE_MINUS_INV_C)
    sum_inv_one_minus_c_pow_p = _pth_power_sum(W)
    sum_cp_over_cm1_p = _pth_power_sum(Z)
    sum_pounds1 = _polylog_trace(1, C)
    sum_pounds2_c = _polylog_trace(2, C)
    sum_pounds2_one_minus_c = _polylog_trace(2, ONE_MINUS_C)

    @functools.cached_property
    def sum_pounds1_short(self):
        """Tr(pounds_1(c) w^p), w = 1/(1-c).

        c^j = (1 - 1/w)^j gives Tr(c^j w^p) = sum_i C(j,i) (-1)^i P_(p-i)(w)
        for j < r; f's recurrence continues the sequence in j.
        """
        r, p, m = self.r, self.p, self.m
        w = self._image(W)
        q = jump(w.chi, p - r + 1, m)
        sums = extend_recurrence(w.chi, w.head, 2 * r - 2, m)
        tail = [_dot(q, sums[j:j + r], m) for j in range(r)]   # P_(p-r+1)..P_p(w)
        head = [sum((-1) ** i * math.comb(j, i) * tail[r - 1 - i] for i in range(j + 1)) % m
                for j in range(r)]
        return pounds_from_traces(1, extend_recurrence(self._f, head, p - 1, m), p, self.e)

    @functools.cached_property
    def sum_rkk_long(self):
        """Tr((c - c^p) s) = T_1 - T_p."""
        return (self._shift_traces[1] - self._shift_trace_p) % self.m

    @functools.cached_property
    def sum_rkk_short(self):
        """Tr((c - c^p) s / (1 - c^p)) = T_0 + Tr(s (c - 1) / (1 - c^p)).

        With h the characteristic polynomial of c^p and
        g(t) = (h(t) - h(1))/(t - 1), 1/(1 - c^p) = g(c^p)/h(1), so the
        second term is h(1)^-1 sum_j g_j (T_(jp+1) - T_(jp)).
        """
        r, m = self.r, self.m
        c, t = self._image(C), self._shift_traces
        h = from_power_sums([r] + [c.power_sum_p(k) for k in range(1, r + 1)], m)
        g, h_at_one = _synthetic_div(h, 1, m)
        if math.gcd(h_at_one, m) != 1:
            raise NonUnitDenominator(f"1 - c^p is not a unit mod {m}")
        acc = g[0] * (t[1] - t[0]) + sum(
            gj * (c.at_p(t[1:], j) - c.at_p(t[:r], j)) for j, gj in enumerate(g[1:], 1))
        return (t[0] + acc * pow(h_at_one, -1, m)) % m

    def _bracket_trace(self, k):
        """Tr(s (k - (r-1) c^p - r (1-c)^p))."""
        r = self.r
        return (k * self._shift_traces[0] - (r - 1) * self._shift_trace_p
                - r * self._shift_one_minus_trace_p)

    @functools.cached_property
    def sum_mod2_full(self):
        """Tr((c-1) s (r - (r-1) c^p - r (1-c)^p)), with (c-1) s = 1 - r s."""
        r = self.r
        plain = r * r - (r - 1) * self.sum_c_pow_p - r * self.sum_one_minus_c_pow_p
        return (plain - r * self._bracket_trace(r)) % self.m

    @functools.cached_property
    def sum_mod2_open(self):
        """Tr(r s (r-1 - (r-1) c^p - r (1-c)^p))."""
        return self.r * self._bracket_trace(self.r - 1) % self.m

    @functools.cached_property
    def z_inverse_pow_p_charpoly(self):
        """Coefficients of prod_i (T - (c_i/(c_i-1))^p), lowest degree first.

        Newton's identities on P_p(z), P_2p(z), .., P_rp(z), z = c/(c-1).
        """
        z = self._image(Z)
        sums = [self.r] + [z.power_sum_p(k) for k in range(1, self.r + 1)]
        return tuple(from_power_sums(sums, self.m))


# The grid walk asks for a key only while it is at that key's point (at
# most three precisions per point), so a small cache keeps every repeat;
# a larger one only holds finished points' sequences in memory.
@functools.lru_cache(maxsize=64)
def root_sums(r, x, p, e):
    return RootSums(r, x, p, e)


@functools.lru_cache(maxsize=None)
def _ctx(p, e):
    """Z/p^e, validated once per (p, e)."""
    return ModulusCtx(p, e)


class Point:
    """One (r, x, p) inside a family's scope, read at any precision e."""

    def __init__(self, r, x, p):
        self.r, self.x, self.p = r, x, p

    def rs(self, e):
        return root_sums(self.r, self.x, self.p, e)

    def xp(self, e):
        """x^p mod p^e."""
        ctx = _ctx(self.p, e)
        return pow(residue_from_rational(self.x, ctx), self.p, ctx.modulus)

    def lhs(self, d, sum_range, e):
        """The sum of binom(rk,k) x^k / k^d over sum_range, mod p^e."""
        return lhs_sum(self.r, self.x, d, sum_range, _ctx(self.p, e))

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


def _skip_rows(tag, r, x, p, m=None):
    """tag's skip rows at (r, x, p), shaped like its checker's rows, or None.

    A missed scope requirement gives one row per skip id; on a per-(r, p, x)
    grid a degenerate x gives one per skip id and window.
    """
    fam = FAMILIES[tag]
    missed = {R_AT_LEAST_2: r < 2, P_ABOVE_3: p <= 3, P_COPRIME_TO_R_RM1: r * (r - 1) % p == 0}
    reason = next((req for req in fam.scope if missed[req]), None)
    windows = (None,)
    if reason is None and fam.grid == RPX:
        reason = _degeneracy_reason(r, x, p)
        if fam.windows:
            windows = range(1, r) if m is None else (m,)
    if reason is None:
        return None
    rows = [skipped(i, r, p, fam.e, x, reason, mi) for i in fam.ids or (tag,) for mi in windows]
    return rows[0] if fam.one_row else rows


def _guarded(tag):
    """Turn the mathematics of a per-(r, p, x) family into its checker.

    The mathematics takes a Point inside the scope (and, for rkksuk_z, the
    window m); the checker takes (r, x, p) instead and returns the skip rows
    outside the scope.
    """
    def decorate(rows_at):
        def check(r, x, p, *window, **kw):
            x = as_rational(x)
            skip = _skip_rows(tag, r, x, p, *window, **kw)
            return rows_at(Point(r, x, p), *window, **kw) if skip is None else skip

        check.__name__ = check.__qualname__ = rows_at.__name__
        check.__doc__ = rows_at.__doc__
        return check

    return decorate


@_guarded("rkksuk")
def check_rkksuk(pt):
    """Full-range sum of binom(rk,k) x^k / k against -r x^p * sum pounds_1(c_i) mod p."""
    rhs = -pt.r * pt.xp(1) * pt.rs(1).sum_pounds1
    return pt.report("rkksuk", 1, pt.lhs(1, full_range(pt.p), 1), rhs)


@_guarded("rkksuk_short")
def check_rkksuk_short(pt):
    """Short-range sum against -sum pounds_1(c_i)/(1-c_i)^p mod p."""
    lhs = pt.lhs(1, short_range(pt.r, pt.p), 1)
    return pt.report("rkksuk_short", 1, lhs, -pt.rs(1).sum_pounds1_short)


@_guarded("rkk")
def check_rkk(pt):
    """Both derivative congruences for sums of binom(rk,k) x^k mod p."""
    r, p, rs = pt.r, pt.p, pt.rs(1)
    lhs_long = pt.lhs(0, full_range(p), 1)
    out = [pt.report("rkk_long", 1, lhs_long, -r * pt.xp(1) * rs.sum_rkk_long)]
    if r >= 2:
        try:
            rhs_short = -rs.sum_rkk_short
        except NonUnitDenominator:
            return out + [pt.skip("rkk_short", 1, "NonUnitDenominator")]
        out.append(pt.report("rkk_short", 1, pt.lhs(0, short_range(r, p), 1), rhs_short))
    return out


@_guarded("lemma_technical")
def check_lemma_technical(pt):
    """sum 1/(1-c_i)^p == (r-1) * sum c_i^p/(c_i-1)^p mod p^2 (r >= 2)."""
    rs = pt.rs(2)
    return pt.report("lemma_technical", 2, rs.sum_inv_one_minus_c_pow_p,
                     (pt.r - 1) * rs.sum_cp_over_cm1_p)


@_guarded("mystery")
def check_mystery(pt):
    """The two p-th power sum congruences mod p^2 for the roots and their reciprocals."""
    r, rs = pt.r, pt.rs(2)
    x_inv_p = pow(pt.xp(2), -1, pt.p ** 2)
    lhs_a = (r - 1) * rs.sum_c_pow_p + r * rs.sum_one_minus_c_pow_p
    lhs_b = rs.sum_inv_c_pow_p + r * rs.sum_one_minus_inv_c_pow_p
    rhs_b = r if r > 2 else x_inv_p + 2
    return [
        pt.report("mystery_a", 2, lhs_a, x_inv_p + r * (r - 1)),
        pt.report("mystery_b", 2, lhs_b, rhs_b),
    ]


@_guarded("rkksuk_z")
def check_rkksuk_z(pt, m=None):
    """Per-window elementary-symmetric congruence mod p^2, one row per m.

    Also emits a certificate row: the constant term of the combined
    characteristic polynomial of (c/(c-1))^p must equal x^p mod p^2.
    """
    r, p = pt.r, pt.p
    charpoly = pt.rs(2).z_inverse_pow_p_charpoly
    inv_r = pow(r, -1, p)
    out = []
    for mi in range(1, r) if m is None else [m]:
        # the inner sum is multiplied by p, so it is only needed mod p;
        # this keeps the binomial table requirement at e=1
        lhs = p * (inv_r * pt.lhs(1, range_A_star(r, mi, p), 1) % p)
        delta = 1 if mi == 1 else 0
        out.append(pt.report("rkksuk_z", 2, lhs, delta + charpoly[r - mi], m=mi))
    out.append(pt.report("rkksuk_z_const", 2, charpoly[0], pt.xp(2)))
    return out


@_guarded("rkksuk_long")
def check_rkksuk_long(pt):
    """(p/r) * full-range sum of binom(rk,k) x^k/k == -x^p + prod(1 - z_i^-p) mod p^2."""
    r, p = pt.r, pt.p
    lhs = p * (pow(r, -1, p) * pt.lhs(1, full_range(p), 1) % p)
    # prod(1 - z_i^-p) is the combined characteristic polynomial at T = 1
    prod_at_one = sum(pt.rs(2).z_inverse_pow_p_charpoly)
    return pt.report("rkksuk_long", 2, lhs, prod_at_one - pt.xp(2))


@_guarded("rkksukk")
def check_rkksukk(pt):
    """Full-range sum with 1/k^2 mod p, plus the p^2-divisibility certificate.

    The bracket -1 + (r-1) x^p sum(c_i^p - 1) + r x^p sum(1-c_i)^p is
    computed mod p^3 and must vanish mod p^2; the quotient joins
    r x^p sum pounds_2(1-c_i) to form the right-hand side.
    """
    r, p, rs3 = pt.r, pt.p, pt.rs(3)
    terms = (r - 1) * (rs3.sum_c_pow_p - r) + r * rs3.sum_one_minus_c_pow_p
    bracket = (-1 + pt.xp(3) * terms) % p ** 3
    cert = pt.report("rkksukk_cert", 2, bracket % (p * p), 0)
    if cert.verdict == FAIL:
        cert.reason = "DivisibilityFailure"
        return [cert, pt.skip("rkksukk", 1, "DivisibilityFailure")]
    rhs = bracket // (p * p) + r * pt.xp(1) * pt.rs(1).sum_pounds2_one_minus_c
    return [cert, pt.report("rkksukk", 1, pt.lhs(2, full_range(p), 1), rhs)]


@_guarded("rkksukmod2")
def check_rkksukmod2(pt):
    """Full-range sum with 1/k mod p^2, plus the p-divisibility certificate."""
    r, p, rs3, rs1 = pt.r, pt.p, pt.rs(3), pt.rs(1)
    terms = (r - 2) * (rs3.sum_c_pow_p - r) + r * rs3.sum_one_minus_c_pow_p
    bracket = (2 - pt.xp(3) * terms) % p ** 3
    cert = pt.report("rkksukmod2_cert", 1, bracket % p, 0)
    if cert.verdict == FAIL:
        cert.reason = "DivisibilityFailure"
        return [cert, pt.skip("rkksukmod2", 2, "DivisibilityFailure")]
    delta = (rs1.sum_pounds2_c - rs1.sum_pounds2_one_minus_c) % p
    rhs = bracket // p + p * (r * pt.xp(1) * delta % p)
    return [cert, pt.report("rkksukmod2", 2, pt.lhs(1, full_range(p), 2), rhs)]


@_guarded("rkkmod2")
def check_rkkmod2(pt):
    """Sum over 0 <= k < p of binom(rk,k) x^k mod p^2 via the root formula."""
    lhs = pt.lhs(0, full_range(pt.p, include_zero=True), 2)
    return pt.report("rkkmod2", 2, lhs, -pt.xp(2) * pt.rs(2).sum_mod2_full)


@_guarded("rkkmod2_var")
def check_rkkmod2_var(pt):
    """Sum over 0 < k < p variant mod p^2, plus the k=0 cross-identity.

    The two right-hand sides must differ by exactly the k=0 term:
    rhs(closed range) - rhs(open range) == 1 mod p^2.
    """
    xp, rs = pt.xp(2), pt.rs(2)
    rhs = xp * rs.sum_mod2_open
    return [
        pt.report("rkkmod2_var", 2, pt.lhs(0, full_range(pt.p), 2), rhs),
        pt.report("rkkmod2_cross", 2, -xp * rs.sum_mod2_full - rhs, 1),
    ]


def _cofactor_trace(cofactor, r):
    """Tr(q * (c^p + r p pounds_1(c))), q = (c-1)/(r-1+c), over the roots c of cofactor.

    cofactor is a MonicPoly of degree >= 1.  Tr(q c^k) = P_k(c) - r T_k,
    since q = 1 - r s with s = 1/(r-1+c).
    """
    g, ctx = cofactor.coeffs, cofactor.ctx
    p, m = ctx.p, ctx.modulus
    sums = power_sums(g, p, m)
    q = [(pk - r * tk) % m for pk, tk in zip(sums, _shift_traces(g, r, sums[:p], m))]
    return (q[p] + r * p * pounds_from_traces(1, q, p, ctx.e)) % m


def check_rkkmod2_multiple(r, p):
    """The double-root evaluation x0 = (r-1)^(r-1)/r^r mod p^2."""
    x0 = x0_value(r)
    skip = _skip_rows("rkkmod2_multiple", r, x0, p)
    if skip:
        return skip
    pt = Point(r, x0, p)
    m2 = p * p
    double_root, cofactor = double_root_cofactor(r, p, 2)
    lhs = pt.lhs(0, full_range(p, include_zero=True), 2)
    l1_at_root = pounds(1, double_root, _ctx(p, 2))
    tail = p * r * (r - 2) * pow(r - 1, -1, m2) * l1_at_root
    head = ((r - 2 + 3 * p * r) * pow(r - 1, p - 1, m2) - tail) % m2
    term1 = 2 * pt.xp(2) * pow(3, -1, m2) * head
    term2 = pt.xp(2) * _cofactor_trace(cofactor, r) if cofactor.degree else 0
    return pt.report("rkkmod2_multiple", 2, lhs, term1 - term2)


def check_central_pol(x, p):
    """Central binomial sum against the closed form (1-4x)^((p-1)/2) mod p."""
    x = as_rational(x)
    if x.denominator % p == 0:
        return skipped("central_pol", 2, p, 1, x, "DenominatorNotUnit")
    pt = Point(2, x, p)
    xv = residue_from_rational(x, _ctx(p, 1))
    rhs = pow((1 - 4 * xv) % p, (p - 1) // 2, p)
    return pt.report("central_pol", 1, pt.lhs(0, short_range(2, p, include_zero=True), 1), rhs)


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
    ctx, long, short = _ctx(p, 1), full_range(p), short_range(r, p)
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
    ctx = _ctx(p, 1)
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
        pt = Point(3, Fraction(x), p)
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
        lhs = Point(r, x, p).lhs(d, sum_range, e)
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
RPX = "rpx"        # rows(r, p, x)
RP = "rp"          # rows(r, p)
PX = "px"          # rows(p, x); the checker fixes r = 2
P = "p"            # rows(p, config)
EXACT = "exact"    # rows(r, config): characteristic zero, no primes


@dataclass(frozen=True)
class Family:
    """One CLI tag: the grid it walks, its rows and its skip rows."""

    grid: str                # the part of the sweep one call of rows takes
    e: int                   # the precision of the tag's rows and skip rows
    rows: object             # computes the rows; calls the checker by module-level name
    scope: tuple = ()        # requirements besides p > r, named by their skip reasons
    ids: tuple = ()          # the skip rows' theorem ids, when not just the tag
    one_row: bool = False    # the checker returns a bare row, not a list
    windows: bool = False    # a degenerate x skips each window m = 1..r-1
    default: bool = True     # run when no tags are named
    reads_e: int = 0         # the highest precision the checker reads, when above e


FAMILIES = {
    "rkksuk": Family(RPX, 1, lambda r, p, x: check_rkksuk(r, x, p), one_row=True),
    "rkksuk_short": Family(RPX, 1, lambda r, p, x: check_rkksuk_short(r, x, p), one_row=True),
    "rkk": Family(RPX, 1, lambda r, p, x: check_rkk(r, x, p), ids=("rkk_long", "rkk_short")),
    "rkksuk_z": Family(
        RPX, 2, lambda r, p, x: check_rkksuk_z(r, x, p), (R_AT_LEAST_2,), windows=True),
    "rkksuk_long": Family(
        RPX, 2, lambda r, p, x: check_rkksuk_long(r, x, p), (R_AT_LEAST_2,), one_row=True),
    "lemma_technical": Family(
        RPX, 2, lambda r, p, x: check_lemma_technical(r, x, p), (R_AT_LEAST_2,), one_row=True),
    "mystery": Family(
        RPX, 2, lambda r, p, x: check_mystery(r, x, p), (R_AT_LEAST_2,),
        ("mystery_a", "mystery_b")),
    "rkksukk": Family(
        RPX, 1, lambda r, p, x: check_rkksukk(r, x, p), (P_ABOVE_3,), reads_e=3),
    "rkksukmod2": Family(
        RPX, 2, lambda r, p, x: check_rkksukmod2(r, x, p), (P_ABOVE_3,), reads_e=3),
    "rkkmod2": Family(RPX, 2, lambda r, p, x: check_rkkmod2(r, x, p), one_row=True),
    "rkkmod2_var": Family(RPX, 2, lambda r, p, x: check_rkkmod2_var(r, x, p), (R_AT_LEAST_2,)),
    "rkkmod2_multiple": Family(
        RP, 2, lambda r, p: check_rkkmod2_multiple(r, p),
        (R_AT_LEAST_2, P_ABOVE_3, P_COPRIME_TO_R_RM1), one_row=True),
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
