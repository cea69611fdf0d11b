"""The congruence families, as one table.

Every congruence has one shape.  Its left-hand side is a brute-force sum of
binom(rk,k) x^k / k^d over a range of k (binomsums).  Its right-hand side is
computed independently: symmetric functions of all roots of
x(c-1)^r + c^(r-1), which are traces or characteristic polynomials in one
algebra Z/p^e[c]/(f) on the unfactored f (modring, finlog.trace_pounds),
and special constants (finlog).  A verdict is an exact equality of residues.

FAMILIES has one row per CLI tag: the grid it walks, its precision, its
scope, its skip-row ids and the function computing its rows.  One guard
(_skip_rows, and _guarded for the per-(r, p, x) checkers) coerces x and
turns a point outside a family's scope, or a degenerate x, into skip rows.
Inside the scope a checker gets a Point, which builds the contexts, x^p and
the root sums, so each checker keeps only its mathematics.
"""

import functools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import finlog, seriesid
from .binomsums import full_range, lhs_sum, lhs_sums, range_A_star, short_range
from .errors import DenominatorNotUnit, NonUnitDenominator, NotAUnit
from .finlog import constants_table, pounds, trace_pounds
from .modring import GaloisRing, ModulusCtx, ResidueInt, as_rational, residue_from_rational
from .polyfactor import (
    Degeneracy,
    RootPolySpec,
    build_root_poly,
    classify_residue,
    classify_x,
    double_root_cofactor,
    x0_value,
)
from .report import FAIL, PASS, SKIP, CongruenceReport, verdict_of


@functools.lru_cache(maxsize=512)
def _factor_rings(r, x, p, e):
    """The algebra of the unfactored root polynomial, as a one-ring tuple.

    f is squarefree mod p for nondegenerate x, so this one ring is the
    product of the Galois rings of f's lifted factors: its trace is the sum
    over all roots and its characteristic polynomial the product.
    """
    f = build_root_poly(RootPolySpec(r, x, ModulusCtx(p, e)))
    return (GaloisRing(f),)


@functools.lru_cache(maxsize=256)
def _cofactor_rings(r, p, e):
    root, cofactor = double_root_cofactor(r, p, e)
    return root, (GaloisRing(cofactor),) if cofactor.degree else ()


class RootSums:
    """Cached trace aggregates over all roots of (r, x) at p^e.

    A sum that needs only Tr(v u^p) for u in {c, 1-c} takes it from
    GaloisRing.power_traces, the linear recurrence of u's characteristic
    polynomial; a p-th power is formed only where it must be inverted or
    its base is not affine in c.
    """

    def __init__(self, r, x, p, e):
        self.r = r
        self.x = x
        self.p = p
        self.e = e
        self.ctx = ModulusCtx(p, e)
        self.rings = _factor_rings(r, x, p, e)
        (self.ring,) = self.rings

    def trace_sum(self, build):
        m = self.ctx.modulus
        return sum(int(build(ring).trace()) for ring in self.rings) % m

    def _trace_pow_p(self, u, v=None):
        """Tr(v u^p)."""
        return self.ring.power_traces(u, self.p, v)[self.p]

    @functools.cached_property
    def _c(self):
        return self.ring.gen()

    @functools.cached_property
    def _one_minus_c(self):
        return self.ring.one() - self._c

    @functools.cached_property
    def _c_pow_p(self):
        return self._c ** self.p

    @functools.cached_property
    def _inv_c_pow_p(self):
        return self._c.inverse() ** self.p

    @functools.cached_property
    def _inv_one_minus_c_pow_p(self):
        return self._one_minus_c.inverse() ** self.p

    @functools.cached_property
    def _inv_shift(self):
        """(r - 1 + c)^-1."""
        return (self.ring.scalar(self.r - 1) + self._c).inverse()

    @functools.cached_property
    def sum_c_pow_p(self):
        return self._trace_pow_p(self._c)

    @functools.cached_property
    def sum_one_minus_c_pow_p(self):
        return self._trace_pow_p(self._one_minus_c)

    @functools.cached_property
    def sum_inv_c_pow_p(self):
        return int(self._inv_c_pow_p.trace())

    @functools.cached_property
    def sum_one_minus_inv_c_pow_p(self):
        # (1 - 1/c)^p = -(1-c)^p c^-p for odd p
        return -self._trace_pow_p(self._one_minus_c, self._inv_c_pow_p) % self.ctx.modulus

    @functools.cached_property
    def sum_inv_one_minus_c_pow_p(self):
        return int(self._inv_one_minus_c_pow_p.trace())

    @functools.cached_property
    def sum_cp_over_cm1_p(self):
        # (c-1)^-p = -(1-c)^-p for odd p
        return -self._trace_pow_p(self._c, self._inv_one_minus_c_pow_p) % self.ctx.modulus

    @functools.cached_property
    def sum_pounds1(self):
        return trace_pounds(1, self._c)

    @functools.cached_property
    def sum_pounds1_short(self):
        return trace_pounds(1, self._c, self._inv_one_minus_c_pow_p)

    @functools.cached_property
    def sum_pounds2_c(self):
        return trace_pounds(2, self._c)

    @functools.cached_property
    def sum_pounds2_one_minus_c(self):
        return trace_pounds(2, self._one_minus_c)

    @functools.cached_property
    def sum_rkk_long(self):
        return int(((self._c - self._c_pow_p) * self._inv_shift).trace())

    @functools.cached_property
    def sum_rkk_short(self):
        c = self._c
        denom = (self.ring.one() - self._c_pow_p) * (self.ring.scalar(self.r - 1) + c)
        try:
            inv = denom.inverse()
        except NotAUnit as exc:
            raise NonUnitDenominator(str(exc)) from exc
        return int(((c - self._c_pow_p) * inv).trace())

    def _bracket_trace(self, q, k):
        """Tr(q * (k - (r-1) c^p - r (1-c)^p))."""
        r = self.r
        return (
            k * int(q.trace())
            - (r - 1) * self._trace_pow_p(self._c, q)
            - r * self._trace_pow_p(self._one_minus_c, q)
        ) % self.ctx.modulus

    @functools.cached_property
    def sum_mod2_full(self):
        # (c-1)/(r-1+c) times the bracket with k = r
        q = -(self._one_minus_c * self._inv_shift)
        return self._bracket_trace(q, self.r)

    @functools.cached_property
    def sum_mod2_open(self):
        # r/(r-1+c) times the bracket with k = r-1
        return self.r * self._bracket_trace(self._inv_shift, self.r - 1) % self.ctx.modulus

    @functools.cached_property
    def z_inverse_pow_p_charpoly(self):
        """Coefficients of prod_i (T - (c_i/(c_i-1))^p), lowest degree first."""
        c = self._c
        w = (c * (c - self.ring.one()).inverse()) ** self.p
        return self.ring.charpoly(w).coeffs


@functools.lru_cache(maxsize=512)
def root_sums(r, x, p, e):
    return RootSums(r, x, p, e)


@functools.lru_cache(maxsize=None)
def _ctx(p, e):
    """Z/p^e, validated once per (p, e)."""
    return ModulusCtx(p, e)


def _report(theorem, r, p, e, x, lhs, rhs, m=None):
    lhs %= p ** e
    rhs %= p ** e
    return CongruenceReport(
        theorem=theorem, r=r, p=p, e=e, x=x, lhs=lhs, rhs=rhs,
        modulus=p ** e, verdict=verdict_of(lhs, rhs), m=m,
    )


def _skip(theorem, r, p, e, x, reason, m=None):
    return CongruenceReport(
        theorem=theorem, r=r, p=p, e=e, x=x, lhs=None, rhs=None,
        modulus=p ** e, verdict=SKIP, m=m, reason=reason,
    )


class Point:
    """One (r, x, p) inside a family's scope, read at any precision e."""

    def __init__(self, r, x, p):
        self.r, self.x, self.p = r, x, p

    def rs(self, e):
        return root_sums(self.r, self.x, self.p, e)

    def xp(self, e):
        """x^p mod p^e."""
        ctx = _ctx(self.p, e)
        return pow(residue_from_rational(self.x, ctx).value, self.p, ctx.modulus)

    def lhs(self, d, sum_range, e):
        """The sum of binom(rk,k) x^k / k^d over sum_range, mod p^e."""
        return lhs_sum(self.r, self.x, d, sum_range, _ctx(self.p, e)).value

    def report(self, theorem, e, lhs, rhs, m=None):
        return _report(theorem, self.r, self.p, e, self.x, lhs, rhs, m)

    def skip(self, theorem, e, reason):
        return _skip(theorem, self.r, self.p, e, self.x, reason)


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
    rows = [_skip(i, r, p, fam.e, x, reason, mi) for i in fam.ids or (tag,) for mi in windows]
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


def _cofactor_trace(ring, r):
    """Tr(q * (c^p + r p pounds_1(c))) with q = (c-1)/(r-1+c), in ring."""
    p = ring.ctx.p
    c = ring.gen()
    q = (c - ring.one()) * (ring.scalar(r - 1) + c).inverse()
    q_c_pow_p = ring.power_traces(c, p, q)[p]
    return (q_c_pow_p + r * p * trace_pounds(1, c, q)) % ring.ctx.modulus


def check_rkkmod2_multiple(r, p):
    """The double-root evaluation x0 = (r-1)^(r-1)/r^r mod p^2."""
    x0 = x0_value(r)
    skip = _skip_rows("rkkmod2_multiple", r, x0, p)
    if skip:
        return skip
    pt = Point(r, x0, p)
    m2 = p * p
    double_root, cof_rings = _cofactor_rings(r, p, 2)
    lhs = pt.lhs(0, full_range(p, include_zero=True), 2)
    l1_at_root = pounds(1, ResidueInt(double_root, _ctx(p, 2))).value
    tail = p * r * (r - 2) * pow(r - 1, -1, m2) * l1_at_root
    head = ((r - 2 + 3 * p * r) * pow(r - 1, p - 1, m2) - tail) % m2
    term1 = 2 * pt.xp(2) * pow(3, -1, m2) * head
    term2 = pt.xp(2) * sum(_cofactor_trace(R, r) for R in cof_rings)
    return pt.report("rkkmod2_multiple", 2, lhs, term1 - term2)


def check_central_pol(x, p):
    """Central binomial sum against the closed form (1-4x)^((p-1)/2) mod p."""
    x = as_rational(x)
    if x.denominator % p == 0:
        return _skip("central_pol", 2, p, 1, x, "DenominatorNotUnit")
    pt = Point(2, x, p)
    xv = residue_from_rational(x, _ctx(p, 1)).value
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
    split = split_residues(r, p)
    ctx = _ctx(p, 1)
    long = lhs_sums(r, split, 0, full_range(p), ctx)
    short = lhs_sums(r, split, 0, short_range(r, p), ctx)
    out = []
    for a, lhs_long, lhs_short in zip(split, long, short):
        x = Fraction(a)
        out.append(_report("cor_split_long", r, p, 1, x, lhs_long, 0))
        out.append(_report("cor_split_short", r, p, 1, x, lhs_short, 0))
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
            out.append(_skip("r3_beta_long", 3, p, 1, Fraction(beta), "DegenerateBeta"))
            continue
        x = c * c % p * pow((1 - c) % p, -3, p) % p
        if classify_residue(3, x, p) is not Degeneracy.NONDEGENERATE:
            out.append(_skip("r3_beta_long", 3, p, 1, Fraction(beta), "DegenerateX"))
            continue
        pt = Point(3, Fraction(x), p)
        l1_beta = pounds(1, ResidueInt(beta, ctx)).value
        l1_c = pounds(1, ResidueInt(c, ctx)).value
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
         lambda: (inv(9, p) * ct.leg_p_3 * ct.bernoulli_at(p - 2, Fraction(1, 3))
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
            out.append(_skip(row_id, r, p, e, x, "ExcludedPrime"))
            continue
        lhs = Point(r, x, p).lhs(d, sum_range, e)
        out.append(_report(row_id, r, p, e, x, lhs, rhs_fn()))
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
    "rkksukk": Family(RPX, 1, lambda r, p, x: check_rkksukk(r, x, p), (P_ABOVE_3,)),
    "rkksukmod2": Family(RPX, 2, lambda r, p, x: check_rkksukmod2(r, x, p), (P_ABOVE_3,)),
    "rkkmod2": Family(RPX, 2, lambda r, p, x: check_rkkmod2(r, x, p), one_row=True),
    "rkkmod2_var": Family(RPX, 2, lambda r, p, x: check_rkkmod2_var(r, x, p), (R_AT_LEAST_2,)),
    "rkkmod2_multiple": Family(
        RP, 2, lambda r, p: check_rkkmod2_multiple(r, p),
        (R_AT_LEAST_2, P_ABOVE_3, P_COPRIME_TO_R_RM1), one_row=True),
    "central_pol": Family(PX, 1, lambda p, x: check_central_pol(x, p)),
    "cor_split": Family(RP, 1, lambda r, p: check_cor_split(r, p), default=False),
    "r3_beta": Family(
        P, 1, lambda p, config: check_r3_beta(p, config.x_random or 8, config.seed),
        (P_ABOVE_3,), ("r3_beta_long",), default=False),
    "numerics": Family(
        P, 1, lambda p, config: check_numerics_table(p), (P_ABOVE_3,), default=False),
    "fe": Family(
        P, 1, lambda p, config: finlog.check_functional_equations(
            p, config.x_random or 8, config.seed),
        default=False),
    "series": Family(
        EXACT, 0, lambda r, config: series_rows(r, config.series_order), default=False),
    "identities": Family(
        EXACT, 0, lambda r, config: identity_rows(r, config.identity_n), default=False),
}
