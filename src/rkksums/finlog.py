"""Finite polylogarithms over Z/p^e and Galois rings, plus special constants.

pounds(s, u) is the truncated series sum_{k=1}^{p-1} u^k / k^s; the orders
actually used are s = 0 (a rational function), s = 1 (truncated logarithm)
and s = 2 (finite dilogarithm).  Root sums only ever need the trace of a
polylog, Tr(v pounds_s(u)) = sum_k k^-s Tr(v u^k), and pounds_from_traces
takes it from the integer sequence Tr(v u^k) without forming the polylog;
pounds on a GaloisElt is the element-level reference.  The weights k^-s
are one cached tuple of Python ints per (p, e, s).  The constants
gathered here - Fermat quotients, Euler and Bernoulli numbers, the Lucas
quotient and Legendre symbols - are what the closed-form numerical
congruences evaluate to.
"""

import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import DivisibilityFailure
from .modring import GaloisElt, ModulusCtx, ResidueInt, as_rational, residue_from_rational
from .report import CongruenceReport, verdict_of

ORDERS = (0, 1, 2)


@functools.lru_cache(maxsize=None)
def _weights(p, e, s):
    """k^-s mod p^e for k = 1..p-1, the inner-loop coefficient table."""
    m = p ** e
    return tuple(pow(k, -s, m) for k in range(1, p))


def pounds(s, u):
    """Finite polylogarithm of order s of a ResidueInt or GaloisElt."""
    if s not in ORDERS:
        raise ValueError(f"unsupported polylog order {s}")
    if isinstance(u, ResidueInt):
        ctx = u.ctx
        w = _weights(ctx.p, ctx.e, s)
        return ResidueInt(kernels.weighted_powers_scalar(u.value, w, ctx.modulus), ctx)
    if isinstance(u, GaloisElt):
        ctx = u.ring.ctx
        w = _weights(ctx.p, ctx.e, s)
        return u.ring.weighted_powers(u, w)
    raise TypeError(f"cannot evaluate pounds on {type(u).__name__}")


def pounds_from_traces(s, traces, p, e):
    """sum_{k=1}^{p-1} k^-s traces[k] mod p^e.

    When traces[k] = Tr(v u^k) this is Tr(v pounds_s(u)): a polylog trace
    is a weighted sum of one integer sequence, and no ring element is built.
    """
    if s not in ORDERS:
        raise ValueError(f"unsupported polylog order {s}")
    return sum(map(operator.mul, _weights(p, e, s), traces[1:p])) % p ** e


def fermat_quotient(x, p, out_precision=1):
    """(x^(p-1) - 1)/p as a residue mod p^out_precision."""
    if out_precision + 1 > 3:
        raise ValueError("out_precision must be at most 2")
    ctx = ModulusCtx(p, out_precision + 1)
    xv = residue_from_rational(as_rational(x), ctx).value
    t = pow(xv, p - 1, ctx.modulus)
    if (t - 1) % p != 0:
        raise DivisibilityFailure(f"{x}^{p-1} != 1 mod {p}")
    return ResidueInt((t - 1) // p, ModulusCtx(p, out_precision))


@functools.lru_cache(maxsize=None)
def euler_numbers_mod_p(p, upto):
    """E_0, E_2, ..., E_upto mod p via the secant-number recurrence."""
    half = upto // 2
    es = [0] * (half + 1)
    es[0] = 1
    for n in range(1, half + 1):
        acc = 0
        for k in range(n):
            acc = (acc + math.comb(2 * n, 2 * k) % p * es[k]) % p
        es[n] = (-acc) % p
    return tuple(es)


def euler_pm3(p):
    """The Euler number E_{p-3} mod p."""
    if p <= 3:
        raise ValueError("need p > 3")
    return ResidueInt(euler_numbers_mod_p(p, p - 3)[(p - 3) // 2], ModulusCtx(p, 1))


@functools.lru_cache(maxsize=None)
def bernoulli_mod_p(p, upto):
    """B_0, B_1, ..., B_upto mod p (B_1 = -1/2 convention)."""
    if upto >= p - 1:
        raise ValueError("Bernoulli recurrence needs indices below p-1")
    bs = [0] * (upto + 1)
    bs[0] = 1
    for n in range(1, upto + 1):
        acc = 0
        for j in range(n):
            acc = (acc + math.comb(n + 1, j) % p * bs[j]) % p
        bs[n] = (-acc) * pow(n + 1, -1, p) % p
    return tuple(bs)


def bernoulli_poly_mod_p(n, a, p):
    """Bernoulli polynomial value B_n(a) mod p for p-integral rational a."""
    ctx = ModulusCtx(p, 1)
    av = residue_from_rational(as_rational(a), ctx).value
    bs = bernoulli_mod_p(p, n)
    acc = 0
    apow = 1
    for k in range(n, -1, -1):
        acc = (acc + math.comb(n, k) % p * bs[k] % p * apow) % p
        apow = apow * av % p
    return ResidueInt(acc, ctx)


def lucas_number_mod(n, m):
    """L_n mod m via 2x2 companion-matrix power (L_0 = 2, L_1 = 1)."""
    a, b, c, d = 1, 1, 1, 0
    ra, rb, rc, rd = 1, 0, 0, 1
    k = n
    while k > 0:
        if k & 1:
            ra, rb, rc, rd = (
                (ra * a + rb * c) % m, (ra * b + rb * d) % m,
                (rc * a + rd * c) % m, (rc * b + rd * d) % m,
            )
        a, b, c, d = (
            (a * a + b * c) % m, (a * b + b * d) % m,
            (c * a + d * c) % m, (c * b + d * d) % m,
        )
        k >>= 1
    # matrix^n = [[F_{n+1}, F_n], [F_n, F_{n-1}]]; L_n is its trace
    return (ra + rd) % m


def lucas_quotient(p):
    """q_L = (L_p - 1)/p mod p; the division is exact since L_p = 1 mod p."""
    if p == 5 or p % 2 == 0:
        raise ValueError("Lucas quotient needs an odd prime p != 5")
    lp = lucas_number_mod(p, p * p)
    if (lp - 1) % p != 0:
        raise DivisibilityFailure(f"L_{p} != 1 mod {p}")
    return ResidueInt((lp - 1) // p, ModulusCtx(p, 1))


def legendre(a, p):
    """Legendre symbol (a|p) in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


@dataclass(frozen=True)
class ConstantsTable:
    """The per-prime constants consumed by the numerical congruence table."""

    p: int
    qp2: int          # Fermat quotient of 2, mod p
    qp3: int          # Fermat quotient of 3, mod p
    qp2_sq: int       # Fermat quotient of 2, mod p^2
    qp3_sq: int       # Fermat quotient of 3, mod p^2
    euler_pm3: int    # E_{p-3} mod p
    lucas_q: int | None   # q_L mod p (None when p = 5)
    sign_half: int    # (-1)^((p-1)/2)
    leg5: int         # (p|5)
    leg_p_3: int      # (p|3)
    leg_m2: int       # (-2|p)

    def bernoulli_at(self, n, a):
        return bernoulli_poly_mod_p(n, a, self.p).value


@functools.lru_cache(maxsize=None)
def constants_table(p):
    if p <= 3:
        raise ValueError("need p > 3")
    return ConstantsTable(
        p=p,
        qp2=fermat_quotient(2, p).value,
        qp3=fermat_quotient(3, p).value,
        qp2_sq=fermat_quotient(2, p, 2).value,
        qp3_sq=fermat_quotient(3, p, 2).value,
        euler_pm3=euler_pm3(p).value,
        lucas_q=None if p == 5 else lucas_quotient(p).value,
        sign_half=1 if (p - 1) // 2 % 2 == 0 else -1,
        leg5=legendre(p, 5),
        leg_p_3=legendre(p, 3),
        leg_m2=legendre(-2, p),
    )


def _fe_report(theorem, p, e, x, lhs, rhs):
    return CongruenceReport(
        theorem=theorem, r=0, p=p, e=e, x=x,
        lhs=lhs, rhs=rhs, modulus=p ** e, verdict=verdict_of(lhs, rhs),
    )


def check_functional_equations(p, sample_count=8, seed=0):
    """Exercise the truncated-logarithm functional equations at random units.

    Families checked per sampled unit x:
      * x^p pounds_s(1/x) == (-1)^s pounds_s(x) mod p for s in {0, 1, 2}
      * pounds_1(1-x) == pounds_1(x) mod p
      * (1-x)^p == 1 - x^p - p*pounds_1(x) mod p^2
      * (1-x)^p == 1 - x^p - p*pounds_1(x) - p^2*pounds_2(1-x) mod p^3 (p > 3)
      * the six-argument orbit of pounds_1 mod p
      * pounds_1(x) == -x q_p(x) - (1-x) q_p(1-x) mod p
    Plus, once per prime: pounds_1(1) == 0 mod p^2 and pounds_2(1) == 0 mod p
    for p > 3.
    """
    rng = random.Random(f"fe|{seed}|{p}")
    reports = []
    ctx1 = ModulusCtx(p, 1)
    ctx2 = ModulusCtx(p, 2)

    if p > 3:
        ctx3 = ModulusCtx(p, 3)
        w1 = pounds(1, ResidueInt(1, ctx2)).value
        reports.append(_fe_report("wolstenholme_l1", p, 2, None, w1, 0))
        w2 = pounds(2, ResidueInt(1, ctx1)).value
        reports.append(_fe_report("wolstenholme_l2", p, 1, None, w2, 0))

    for _ in range(sample_count):
        xv = rng.randrange(1, p)
        x = Fraction(xv)
        xinv = pow(xv, -1, p)
        for s in ORDERS:
            lhs = pow(xv, p, p) * pounds(s, ResidueInt(xinv, ctx1)).value % p
            rhs = (-1) ** s * pounds(s, ResidueInt(xv, ctx1)).value % p
            reports.append(_fe_report(f"fe_reciprocal_s{s}", p, 1, x, lhs, rhs))

        l1 = pounds(1, ResidueInt(xv, ctx1)).value
        l1c = pounds(1, ResidueInt(1 - xv, ctx1)).value
        reports.append(_fe_report("fe_complement", p, 1, x, l1c, l1))

        m2 = ctx2.modulus
        lhs2 = pow(1 - xv, p, m2)
        rhs2 = (1 - pow(xv, p, m2) - p * pounds(1, ResidueInt(xv, ctx2)).value) % m2
        reports.append(_fe_report("fe_pth_power_sq", p, 2, x, lhs2, rhs2))

        if p > 3:
            m3 = ctx3.modulus
            lhs3 = pow(1 - xv, p, m3)
            rhs3 = (
                1
                - pow(xv, p, m3)
                - p * pounds(1, ResidueInt(xv, ctx3)).value
                - p * p * pounds(2, ResidueInt(1 - xv, ctx3)).value
            ) % m3
            reports.append(_fe_report("fe_pth_power_cube", p, 3, x, lhs3, rhs3))

        if xv != 1:
            # orbit x, 1-x, 1/(1-x), x/(x-1), (x-1)/x, 1/x: all pounds_1
            # values agree mod p after the reciprocal/complement unit factors
            one_minus = (1 - xv) % p
            orbit = [
                l1,
                pounds(1, ResidueInt(one_minus, ctx1)).value,
                (-pow(one_minus, p, p)
                 * pounds(1, ResidueInt(pow(one_minus, -1, p), ctx1)).value) % p,
                (pow(xv - 1, p, p)
                 * pounds(1, ResidueInt(xv * pow(xv - 1, -1, p) % p, ctx1)).value) % p,
                (-pow(xv, p, p)
                 * pounds(1, ResidueInt((xv - 1) * xinv % p, ctx1)).value) % p,
                (-pow(xv, p, p) * pounds(1, ResidueInt(xinv, ctx1)).value) % p,
            ]
            orbit_ok = all(v == l1 for v in orbit)
            reports.append(
                _fe_report("fe_six_orbit", p, 1, x, int(orbit_ok), 1)
            )

            # the quotient identity needs exact integer arguments: q_p is
            # sensitive to the representative mod p^2, not just mod p
            q_x = fermat_quotient(xv, p).value
            q_1mx = fermat_quotient(1 - xv, p).value
            rhs_q = (-xv * q_x - (1 - xv) * q_1mx) % p
            reports.append(_fe_report("fe_fermat_quotient", p, 1, x, l1, rhs_q))

    return reports
