"""One checker per congruence family.

Each checker computes its left-hand side by brute-force summation
(binomsums) and its right-hand side independently through root sums and
special constants (finlog).  Every root sum is symmetric in all roots of the
root polynomial, so it is a trace or characteristic polynomial in one
algebra, Z/p^e[c]/(f) on the unfactored f (modring); the polylog sums come
from finlog.trace_pounds.  A verdict is an exact equality of residues;
inputs outside a theorem's scope produce skip rows rather than failures.
"""

import functools
import math
import random
import time
from fractions import Fraction

from . import _gfpoly
from .binomsums import full_range, lhs_sum, range_A_star, short_range
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
from .report import FAIL, SKIP, CongruenceReport, verdict_of


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


def _report(theorem, r, p, e, x, lhs, rhs, m=None, elapsed=0.0):
    lhs %= p ** e
    rhs %= p ** e
    return CongruenceReport(
        theorem=theorem, r=r, p=p, e=e, x=x, lhs=lhs, rhs=rhs,
        modulus=p ** e, verdict=verdict_of(lhs, rhs), m=m, elapsed=elapsed,
    )


def _skip(theorem, r, p, e, x, reason, m=None):
    return CongruenceReport(
        theorem=theorem, r=r, p=p, e=e, x=x, lhs=None, rhs=None,
        modulus=p ** e, verdict=SKIP, m=m, reason=reason,
    )


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


def check_central_pol(x, p):
    """Central binomial sum against the closed form (1-4x)^((p-1)/2) mod p."""
    x = as_rational(x)
    ctx = ModulusCtx(p, 1)
    start = time.perf_counter()
    try:
        xv = residue_from_rational(x, ctx).value
    except DenominatorNotUnit:
        return _skip("central_pol", 2, p, 1, x, "DenominatorNotUnit")
    lhs = lhs_sum(2, x, 0, short_range(2, p, include_zero=True), ctx).value
    rhs = pow((1 - 4 * xv) % p, (p - 1) // 2, p)
    return _report("central_pol", 2, p, 1, x, lhs, rhs,
                   elapsed=time.perf_counter() - start)


def check_rkksuk(r, x, p):
    """Full-range sum of binom(rk,k) x^k / k against -r x^p * sum pounds_1(c_i) mod p."""
    x = as_rational(x)
    reason = _degeneracy_reason(r, x, p)
    if reason:
        return _skip("rkksuk", r, p, 1, x, reason)
    start = time.perf_counter()
    ctx = ModulusCtx(p, 1)
    lhs = lhs_sum(r, x, 1, full_range(p), ctx).value
    rs = root_sums(r, x, p, 1)
    xp = pow(residue_from_rational(x, ctx).value, p, p)
    rhs = (-r * xp * rs.sum_pounds1) % p
    return _report("rkksuk", r, p, 1, x, lhs, rhs,
                   elapsed=time.perf_counter() - start)


def check_rkksuk_short(r, x, p):
    """Short-range sum against -sum pounds_1(c_i)/(1-c_i)^p mod p."""
    x = as_rational(x)
    reason = _degeneracy_reason(r, x, p)
    if reason:
        return _skip("rkksuk_short", r, p, 1, x, reason)
    start = time.perf_counter()
    ctx = ModulusCtx(p, 1)
    lhs = lhs_sum(r, x, 1, short_range(r, p), ctx).value
    rs = root_sums(r, x, p, 1)
    rhs = (-rs.sum_pounds1_short) % p
    return _report("rkksuk_short", r, p, 1, x, lhs, rhs,
                   elapsed=time.perf_counter() - start)


def check_rkk(r, x, p):
    """Both derivative congruences for sums of binom(rk,k) x^k mod p."""
    x = as_rational(x)
    reason = _degeneracy_reason(r, x, p)
    if reason:
        return [
            _skip("rkk_long", r, p, 1, x, reason),
            _skip("rkk_short", r, p, 1, x, reason),
        ]
    start = time.perf_counter()
    ctx = ModulusCtx(p, 1)
    rs = root_sums(r, x, p, 1)
    xp = pow(residue_from_rational(x, ctx).value, p, p)
    lhs_long = lhs_sum(r, x, 0, full_range(p), ctx).value
    rhs_long = (-r * xp * rs.sum_rkk_long) % p
    out = [_report("rkk_long", r, p, 1, x, lhs_long, rhs_long,
                   elapsed=time.perf_counter() - start)]
    if r >= 2:
        try:
            rhs_short = (-rs.sum_rkk_short) % p
        except NonUnitDenominator:
            out.append(_skip("rkk_short", r, p, 1, x, "NonUnitDenominator"))
            return out
        lhs_short = lhs_sum(r, x, 0, short_range(r, p), ctx).value
        out.append(_report("rkk_short", r, p, 1, x, lhs_short, rhs_short))
    return out


def check_lemma_technical(r, x, p):
    """sum 1/(1-c_i)^p == (r-1) * sum c_i^p/(c_i-1)^p mod p^2 (r >= 2)."""
    x = as_rational(x)
    if r < 2:
        return _skip("lemma_technical", r, p, 2, x, "RequiresRAtLeast2")
    reason = _degeneracy_reason(r, x, p)
    if reason:
        return _skip("lemma_technical", r, p, 2, x, reason)
    start = time.perf_counter()
    rs = root_sums(r, x, p, 2)
    m2 = p * p
    lhs = rs.sum_inv_one_minus_c_pow_p
    rhs = (r - 1) * rs.sum_cp_over_cm1_p % m2
    return _report("lemma_technical", r, p, 2, x, lhs, rhs,
                   elapsed=time.perf_counter() - start)


def check_mystery(r, x, p):
    """The two p-th power sum congruences mod p^2 for the roots and their reciprocals."""
    x = as_rational(x)
    if r < 2:
        return [_skip("mystery_a", r, p, 2, x, "RequiresRAtLeast2"),
                _skip("mystery_b", r, p, 2, x, "RequiresRAtLeast2")]
    reason = _degeneracy_reason(r, x, p)
    if reason:
        return [_skip("mystery_a", r, p, 2, x, reason),
                _skip("mystery_b", r, p, 2, x, reason)]
    start = time.perf_counter()
    ctx = ModulusCtx(p, 2)
    m2 = ctx.modulus
    rs = root_sums(r, x, p, 2)
    x_inv_p = pow(residue_from_rational(1 / x, ctx).value, p, m2)

    lhs_a = ((r - 1) * rs.sum_c_pow_p + r * rs.sum_one_minus_c_pow_p) % m2
    rhs_a = (x_inv_p + r * (r - 1)) % m2

    lhs_b = (rs.sum_inv_c_pow_p + r * rs.sum_one_minus_inv_c_pow_p) % m2
    rhs_b = r % m2 if r > 2 else (x_inv_p + 2) % m2
    elapsed = time.perf_counter() - start
    return [
        _report("mystery_a", r, p, 2, x, lhs_a, rhs_a, elapsed=elapsed),
        _report("mystery_b", r, p, 2, x, lhs_b, rhs_b),
    ]


def check_rkksuk_z(r, x, p, m=None):
    """Per-window elementary-symmetric congruence mod p^2, one row per m.

    Also emits a certificate row: the constant term of the combined
    characteristic polynomial of (c/(c-1))^p must equal x^p mod p^2.
    """
    x = as_rational(x)
    ms = range(1, r) if m is None else [m]
    if r < 2:
        return [_skip("rkksuk_z", r, p, 2, x, "RequiresRAtLeast2")]
    reason = _degeneracy_reason(r, x, p)
    if reason:
        return [_skip("rkksuk_z", r, p, 2, x, reason, m=mi) for mi in ms]
    start = time.perf_counter()
    ctx1 = ModulusCtx(p, 1)
    ctx2 = ModulusCtx(p, 2)
    m2 = ctx2.modulus
    rs = root_sums(r, x, p, 2)
    charpoly = rs.z_inverse_pow_p_charpoly
    inv_r = pow(r, -1, p)
    out = []
    for mi in ms:
        # the inner sum is multiplied by p, so it is only needed mod p;
        # this keeps the binomial table requirement at e=1
        inner = lhs_sum(r, x, 1, range_A_star(r, mi, p), ctx1).value
        lhs = p * (inv_r * inner % p) % m2
        delta = 1 if mi == 1 else 0
        rhs = (delta + charpoly[r - mi]) % m2
        out.append(_report("rkksuk_z", r, p, 2, x, lhs, rhs, m=mi))
    xp2 = pow(residue_from_rational(x, ctx2).value, p, m2)
    out.append(_report("rkksuk_z_const", r, p, 2, x, charpoly[0] % m2, xp2))
    elapsed = (time.perf_counter() - start) / len(out)
    for rep in out:
        rep.elapsed = elapsed
    return out


def check_rkksuk_long(r, x, p):
    """(p/r) * full-range sum of binom(rk,k) x^k/k == -x^p + prod(1 - z_i^-p) mod p^2."""
    x = as_rational(x)
    if r < 2:
        return _skip("rkksuk_long", r, p, 2, x, "RequiresRAtLeast2")
    reason = _degeneracy_reason(r, x, p)
    if reason:
        return _skip("rkksuk_long", r, p, 2, x, reason)
    start = time.perf_counter()
    ctx1 = ModulusCtx(p, 1)
    ctx2 = ModulusCtx(p, 2)
    m2 = ctx2.modulus
    rs = root_sums(r, x, p, 2)
    inner = lhs_sum(r, x, 1, full_range(p), ctx1).value
    lhs = p * (pow(r, -1, p) * inner % p) % m2
    # prod(1 - z_i^-p) is the combined characteristic polynomial at T = 1
    prod_at_one = sum(rs.z_inverse_pow_p_charpoly) % m2
    xp2 = pow(residue_from_rational(x, ctx2).value, p, m2)
    rhs = (prod_at_one - xp2) % m2
    return _report("rkksuk_long", r, p, 2, x, lhs, rhs,
                   elapsed=time.perf_counter() - start)


def check_rkksukk(r, x, p):
    """Full-range sum with 1/k^2 mod p, plus the p^2-divisibility certificate.

    The bracket -1 + (r-1) x^p sum(c_i^p - 1) + r x^p sum(1-c_i)^p is
    computed mod p^3 and must vanish mod p^2; the quotient joins
    r x^p sum pounds_2(1-c_i) to form the right-hand side.
    """
    x = as_rational(x)
    if p <= 3:
        return [_skip("rkksukk", r, p, 1, x, "SmallPrime")]
    reason = _degeneracy_reason(r, x, p)
    if reason:
        return [_skip("rkksukk", r, p, 1, x, reason)]
    start = time.perf_counter()
    ctx1 = ModulusCtx(p, 1)
    ctx3 = ModulusCtx(p, 3)
    m3 = ctx3.modulus
    rs3 = root_sums(r, x, p, 3)
    rs1 = root_sums(r, x, p, 1)
    xp3 = pow(residue_from_rational(x, ctx3).value, p, m3)
    a_term = xp3 * ((rs3.sum_c_pow_p - r) % m3) % m3
    b_term = xp3 * rs3.sum_one_minus_c_pow_p % m3
    bracket = (-1 + (r - 1) * a_term + r * b_term) % m3
    cert = _report("rkksukk_cert", r, p, 2, x, bracket % (p * p), 0)
    if cert.verdict == FAIL:
        cert.reason = "DivisibilityFailure"
        return [cert, _skip("rkksukk", r, p, 1, x, "DivisibilityFailure")]
    quotient = bracket // (p * p)
    xp1 = xp3 % p
    rhs = (quotient + r * xp1 * rs1.sum_pounds2_one_minus_c) % p
    lhs = lhs_sum(r, x, 2, full_range(p), ctx1).value
    main = _report("rkksukk", r, p, 1, x, lhs, rhs,
                   elapsed=time.perf_counter() - start)
    return [cert, main]


def check_rkksukmod2(r, x, p):
    """Full-range sum with 1/k mod p^2, plus the p-divisibility certificate."""
    x = as_rational(x)
    if p <= 3:
        return [_skip("rkksukmod2", r, p, 2, x, "SmallPrime")]
    reason = _degeneracy_reason(r, x, p)
    if reason:
        return [_skip("rkksukmod2", r, p, 2, x, reason)]
    start = time.perf_counter()
    ctx2 = ModulusCtx(p, 2)
    ctx3 = ModulusCtx(p, 3)
    m2, m3 = ctx2.modulus, ctx3.modulus
    rs3 = root_sums(r, x, p, 3)
    rs1 = root_sums(r, x, p, 1)
    xp3 = pow(residue_from_rational(x, ctx3).value, p, m3)
    a_term = xp3 * ((rs3.sum_c_pow_p - r) % m3) % m3
    b_term = xp3 * rs3.sum_one_minus_c_pow_p % m3
    bracket = (2 - (r - 2) * a_term - r * b_term) % m3
    cert = _report("rkksukmod2_cert", r, p, 1, x, bracket % p, 0)
    if cert.verdict == FAIL:
        cert.reason = "DivisibilityFailure"
        return [cert, _skip("rkksukmod2", r, p, 2, x, "DivisibilityFailure")]
    quotient = (bracket // p) % m2
    xp1 = xp3 % p
    delta = (rs1.sum_pounds2_c - rs1.sum_pounds2_one_minus_c) % p
    rhs = (quotient + p * (r * xp1 * delta % p)) % m2
    lhs = lhs_sum(r, x, 1, full_range(p), ctx2).value
    main = _report("rkksukmod2", r, p, 2, x, lhs, rhs,
                   elapsed=time.perf_counter() - start)
    return [cert, main]


def _rhs_mod2_full(r, x, p):
    ctx2 = ModulusCtx(p, 2)
    m2 = ctx2.modulus
    rs = root_sums(r, x, p, 2)
    xp2 = pow(residue_from_rational(x, ctx2).value, p, m2)
    return (-xp2 * rs.sum_mod2_full) % m2


def _rhs_mod2_open(r, x, p):
    ctx2 = ModulusCtx(p, 2)
    m2 = ctx2.modulus
    rs = root_sums(r, x, p, 2)
    xp2 = pow(residue_from_rational(x, ctx2).value, p, m2)
    return xp2 * rs.sum_mod2_open % m2


def check_rkkmod2(r, x, p):
    """Sum over 0 <= k < p of binom(rk,k) x^k mod p^2 via the root formula."""
    x = as_rational(x)
    reason = _degeneracy_reason(r, x, p)
    if reason:
        return _skip("rkkmod2", r, p, 2, x, reason)
    start = time.perf_counter()
    ctx2 = ModulusCtx(p, 2)
    lhs = lhs_sum(r, x, 0, full_range(p, include_zero=True), ctx2).value
    rhs = _rhs_mod2_full(r, x, p)
    return _report("rkkmod2", r, p, 2, x, lhs, rhs,
                   elapsed=time.perf_counter() - start)


def check_rkkmod2_var(r, x, p):
    """Sum over 0 < k < p variant mod p^2, plus the k=0 cross-identity.

    The two right-hand sides must differ by exactly the k=0 term:
    rhs(closed range) - rhs(open range) == 1 mod p^2.
    """
    x = as_rational(x)
    if r < 2:
        return [_skip("rkkmod2_var", r, p, 2, x, "RequiresRAtLeast2")]
    reason = _degeneracy_reason(r, x, p)
    if reason:
        return [_skip("rkkmod2_var", r, p, 2, x, reason)]
    start = time.perf_counter()
    ctx2 = ModulusCtx(p, 2)
    m2 = ctx2.modulus
    lhs = lhs_sum(r, x, 0, full_range(p), ctx2).value
    rhs = _rhs_mod2_open(r, x, p)
    var_row = _report("rkkmod2_var", r, p, 2, x, lhs, rhs,
                      elapsed=time.perf_counter() - start)
    cross = _report("rkkmod2_cross", r, p, 2, x,
                    (_rhs_mod2_full(r, x, p) - rhs) % m2, 1)
    return [var_row, cross]


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
    if r < 2:
        return _skip("rkkmod2_multiple", r, p, 2, x0, "RequiresRAtLeast2")
    if p <= 3:
        return _skip("rkkmod2_multiple", r, p, 2, x0, "SmallPrime")
    if r * (r - 1) % p == 0:
        return _skip("rkkmod2_multiple", r, p, 2, x0, "PDividesRRm1")
    start = time.perf_counter()
    ctx2 = ModulusCtx(p, 2)
    m2 = ctx2.modulus
    double_root, cof_rings = _cofactor_rings(r, p, 2)
    lhs = lhs_sum(r, x0, 0, full_range(p, include_zero=True), ctx2).value
    x0p = pow(residue_from_rational(x0, ctx2).value, p, m2)
    l1_at_root = pounds(1, ResidueInt(double_root, ctx2)).value
    tail = p * r * (r - 2) * pow(r - 1, -1, m2) * l1_at_root
    head = ((r - 2 + 3 * p * r) * pow(r - 1, p - 1, m2) - tail) % m2
    term1 = 2 * x0p * pow(3, -1, m2) * head % m2

    cof_sum = sum(_cofactor_trace(R, r) for R in cof_rings) % m2
    term2 = x0p * cof_sum % m2
    rhs = (term1 - term2) % m2
    return _report("rkkmod2_multiple", r, p, 2, x0, lhs, rhs,
                   elapsed=time.perf_counter() - start)


def check_cor_split(r, p):
    """For every residue a whose root polynomial splits over F_p, both sums vanish."""
    start = time.perf_counter()
    ctx = ModulusCtx(p, 1)
    out = []
    for a in range(1, p):
        if classify_residue(r, a, p) is not Degeneracy.NONDEGENERATE:
            continue
        x = Fraction(a)
        inv_a = pow(a, -1, p)
        f = [math.comb(r, j) * (-1) ** (r - j) % p for j in range(r + 1)]
        f[r - 1] = (f[r - 1] + inv_a) % p
        cp = _gfpoly.powmod([0, 1], p, f, p)
        if _gfpoly.trim(cp) != [0, 1]:
            continue  # not split; the corollary asserts nothing
        lhs_long = lhs_sum(r, x, 0, full_range(p), ctx).value
        lhs_short = lhs_sum(r, x, 0, short_range(r, p), ctx).value
        out.append(_report("cor_split_long", r, p, 1, x, lhs_long, 0))
        out.append(_report("cor_split_short", r, p, 1, x, lhs_short, 0))
    elapsed = time.perf_counter() - start
    for rep in out:
        rep.elapsed = elapsed / max(len(out), 1)
    return out


def check_r3_beta(p, sample_count=8, seed=0):
    """The r=3 sums parametrized by beta with c = beta(1-beta), x = c^2/(1-c)^3.

    Both displayed congruences are checked mod p for sampled beta in F_p;
    degenerate draws (c in {0, 1} or x hitting 0 or x0) become skip rows.
    """
    if p <= 3:
        return [_skip("r3_beta_long", 3, p, 1, None, "SmallPrime")]
    rng = random.Random(f"beta|{seed}|{p}")
    ctx = ModulusCtx(p, 1)
    out = []
    start = time.perf_counter()
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
        xq = Fraction(x)
        l1_beta = pounds(1, ResidueInt(beta, ctx)).value
        l1_c = pounds(1, ResidueInt(c, ctx)).value
        cp = pow(c, p, p)
        one_minus_c = (1 - c) % p

        s_long = lhs_sum(3, xq, 1, full_range(p), ctx).value
        lhs_long = pow(one_minus_c, 2 * p, p) * s_long % p
        rhs_long = (3 * l1_beta - 3 * (1 - cp) * l1_c) % p
        rep_long = _report("r3_beta_long", 3, p, 1, xq, lhs_long, rhs_long, m=beta)

        s_short = lhs_sum(3, xq, 1, short_range(3, p), ctx).value
        lhs_short = pow(one_minus_c, p, p) * s_short % p
        rhs_short = (3 * l1_beta - 3 * l1_c) % p
        rep_short = _report("r3_beta_short", 3, p, 1, xq, lhs_short, rhs_short, m=beta)
        out.extend([rep_long, rep_short])
    elapsed = time.perf_counter() - start
    for rep in out:
        rep.elapsed = elapsed / max(len(out), 1)
    return out


# --- the numerical congruence table -----------------------------------------

def _num_rows(p):
    """All closed-form rows: (id, r, x, d, range kind, e, rhs callable, admissible)."""
    ct = constants_table(p)
    m2 = p * p

    def inv(a, mod):
        return pow(a % mod, -1, mod)

    rows = [
        ("num_r3_x2_k1_sq", 3, Fraction(2), 1, "full", 2,
         lambda: -3 * p * ct.qp2 * ct.qp2 % m2, True),
        ("num_r3_x2_k2", 3, Fraction(2), 2, "full", 1,
         lambda: 6 * ct.sign_half * ct.euler_pm3 % p, True),
        ("num_r3_x2_k0_sq", 3, Fraction(2), 0, "full0", 2,
         lambda: ((6 * ct.sign_half - 1) * inv(5, m2)
                  + 6 * inv(5, m2) * p * ct.qp2) % m2, p != 5),
        ("num_r3_x2_short", 3, Fraction(2), 1, "short", 1,
         lambda: -3 * ct.qp2 % p, True),
        ("num_r3_x18_k1", 3, Fraction(1, 8), 1, "full", 1,
         lambda: (3 * ct.qp2 - 3 * inv(4, p) * ct.lucas_q) % p, p != 5),
        ("num_r3_x18_short", 3, Fraction(1, 8), 1, "short", 1,
         lambda: (3 * ct.qp2 - 3 * inv(2, p) * ct.lucas_q) % p, p != 5),
        ("num_r3_x18_k0_sq", 3, Fraction(1, 8), 0, "full0", 2,
         lambda: (inv(4, m2) + 3 * inv(4, m2) * ct.leg5
                  + 9 * inv(10, m2) * ct.leg5 * p * ct.lucas_q) % m2, p != 5),
        ("num_r3_x427_k1", 3, Fraction(4, 27), 1, "full", 1,
         lambda: (-8 * inv(3, p) * ct.qp2 + 3 * ct.qp3) % p, True),
        ("num_r3_x427_short", 3, Fraction(4, 27), 1, "short", 1,
         lambda: (-4 * ct.qp2 + 3 * ct.qp3) % p, True),
        ("num_r3_x427_k0_sq", 3, Fraction(4, 27), 0, "full0", 2,
         lambda: (inv(9, m2) + 8 * inv(27, m2) * p * (3 + ct.qp2)) % m2, True),
        ("num_r4_x0_k0", 4, Fraction(27, 256), 0, "full0", 1,
         lambda: (11 * inv(72, p) + inv(288, p) * ct.leg_m2) % p, p > 4),
        ("num_r2_x13_k1_sq", 2, Fraction(1, 3), 1, "full", 2,
         lambda: (ct.qp3_sq - inv(2, m2) * p * ct.qp3 * ct.qp3) % m2, True),
        ("num_r2_x13_k2", 2, Fraction(1, 3), 2, "full", 1,
         lambda: (inv(9, p) * ct.leg_p_3 * ct.bernoulli_at(p - 2, Fraction(1, 3))
                  - inv(2, p) * ct.qp3 * ct.qp3) % p, True),
        ("num_r2_xm2_k1_sq", 2, Fraction(-2), 1, "full", 2,
         lambda: (-4 * ct.qp2_sq + 4 * p * ct.qp2 * ct.qp2) % m2, True),
        ("num_r2_xm2_k2", 2, Fraction(-2), 2, "full", 1,
         lambda: -2 * ct.qp2 * ct.qp2 % p, True),
    ]
    return rows


_RANGE_BUILDERS = {
    "full": lambda r, p: full_range(p),
    "full0": lambda r, p: full_range(p, include_zero=True),
    "short": lambda r, p: short_range(r, p),
}


def check_numerics_table(p):
    """Verify every closed-form numerical congruence at its stated modulus."""
    if p <= 3:
        return [_skip("numerics", 0, p, 1, None, "SmallPrime")]
    out = []
    for row_id, r, x, d, kind, e, rhs_fn, admissible in _num_rows(p):
        if not admissible:
            out.append(_skip(row_id, r, p, e, x, "ExcludedPrime"))
            continue
        start = time.perf_counter()
        ctx = ModulusCtx(p, e)
        lhs = lhs_sum(r, x, d, _RANGE_BUILDERS[kind](r, p), ctx).value
        rhs = rhs_fn() % ctx.modulus
        out.append(_report(row_id, r, p, e, x, lhs, rhs,
                           elapsed=time.perf_counter() - start))
    return out
