"""Finite polylogarithms over Z/p^e and their root-sum traces, plus special constants.

pounds(s, t, ctx) is the truncated series sum_{k=1}^{p-1} t^k / k^s mod
p^e at a residue t, returned as an int in [0, p^e); the orders actually
used are s = 0 (a rational function), s = 1 (truncated logarithm) and
s = 2 (finite dilogarithm).  Root sums only ever need the trace of a
polylog, Tr(v pounds_s(u)) = sum_k k^-s Tr(v u^k), and pounds_from_traces
takes it from the integer sequence Tr(v u^k) without forming the polylog;
the tests keep a polylog of a Galois-ring element as the element-level
reference.  The weights k^-s are one cached tuple of Python ints per
(p, e, s).  The constants gathered here - Fermat quotients, E_{p-3},
B_{p-2}(1/3), the Lucas quotient and Legendre symbols - are what the
closed-form numerical congruences evaluate to.

The Euler number and the Bernoulli polynomial value are each one sum of
k^-2, O(p) work per prime (E. Lehmer, On congruences involving Bernoulli
numbers and the quotients of Fermat and Wilson, Ann. of Math. 39, 1938):

    E_{p-3}      = (-1)^((p-1)/2) / 4 * sum_{k=1}^{floor(p/4)} k^-2  (mod p)
    B_{p-2}(1/3) = 2 (p|3) * sum_{k=1}^{floor(p/3)} k^-2             (mod p)

The O(p^2) Euler and Bernoulli recurrences they replace live in
tests/helpers.py, as the reference the tests compare these sums with.
"""

import functools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import DivisibilityFailure
from .modring import ctx_for, residue_from_rational
from .report import checked

ORDERS = (0, 1, 2)


# one prime's weights (e <= 3, s in ORDERS): the sweep walks prime by prime
@functools.lru_cache(maxsize=9)
def _weights(p, e, s):
    """k^-s mod p^e for k = 1..p-1, the inner-loop coefficient table."""
    m = p ** e
    return tuple(pow(k, -s, m) for k in range(1, p))


def pounds(s, t, ctx):
    """Finite polylogarithm of order s at the residue t, mod p^e of ctx."""
    if s not in ORDERS:
        raise ValueError(f"unsupported polylog order {s}")
    return kernels.weighted_powers_scalar(t, _weights(ctx.p, ctx.e, s), ctx.modulus)


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
    ctx = ctx_for(p, out_precision + 1)
    t = pow(residue_from_rational(x, ctx), p - 1, ctx.modulus)
    if (t - 1) % p != 0:
        raise DivisibilityFailure(f"{x}^{p-1} != 1 mod {p}")
    return (t - 1) // p


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
    m = ctx_for(p, 1).modulus
    lp = lucas_number_mod(p, m * m)
    if (lp - 1) % p != 0:
        raise DivisibilityFailure(f"L_{p} != 1 mod {p}")
    return (lp - 1) // p


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
    b_pm2_third: int  # B_{p-2}(1/3) mod p
    lucas_q: int | None   # q_L mod p (None when p = 5)
    sign_half: int    # (-1)^((p-1)/2)
    leg5: int         # (p|5)
    leg_p_3: int      # (p|3)
    leg_m2: int       # (-2|p)


def _inverse_square_sum(n, p):
    """sum_{k=1}^n k^-2 mod p."""
    return sum(pow(k, -2, p) for k in range(1, n + 1)) % p


def constants_table(p):
    if p <= 3:
        raise ValueError("need p > 3")
    sign_half = 1 if p % 4 == 1 else -1
    return ConstantsTable(
        p=p,
        qp2=fermat_quotient(2, p),
        qp3=fermat_quotient(3, p),
        qp2_sq=fermat_quotient(2, p, 2),
        qp3_sq=fermat_quotient(3, p, 2),
        euler_pm3=sign_half * pow(4, -1, p) * _inverse_square_sum(p // 4, p) % p,
        b_pm2_third=2 * legendre(p, 3) * _inverse_square_sum(p // 3, p) % p,
        lucas_q=None if p == 5 else lucas_quotient(p),
        sign_half=sign_half,
        leg5=legendre(p, 5),
        leg_p_3=legendre(p, 3),
        leg_m2=legendre(-2, p),
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
    ctx1 = ctx_for(p, 1)
    ctx2 = ctx_for(p, 2)

    if p > 3:
        ctx3 = ctx_for(p, 3)
        reports.append(checked("wolstenholme_l1", 0, p, 2, None, pounds(1, 1, ctx2), 0))
        reports.append(checked("wolstenholme_l2", 0, p, 1, None, pounds(2, 1, ctx1), 0))

    for _ in range(sample_count):
        xv = rng.randrange(1, p)
        x = Fraction(xv)
        xinv = pow(xv, -1, p)
        at_x = [pounds(s, xv, ctx1) for s in ORDERS]
        at_inv = [pounds(s, xinv, ctx1) for s in ORDERS]
        for s in ORDERS:
            lhs = pow(xv, p, p) * at_inv[s] % p
            rhs = (-1) ** s * at_x[s] % p
            reports.append(checked(f"fe_reciprocal_s{s}", 0, p, 1, x, lhs, rhs))

        l1 = at_x[1]
        l1c = pounds(1, 1 - xv, ctx1)
        reports.append(checked("fe_complement", 0, p, 1, x, l1c, l1))

        # pounds_1(x) mod p^3 when p > 3, else mod p^2; fe_pth_power_sq reads it mod p^2
        l1_high = pounds(1, xv, ctx3 if p > 3 else ctx2)
        m2 = ctx2.modulus
        lhs2 = pow(1 - xv, p, m2)
        rhs2 = (1 - pow(xv, p, m2) - p * l1_high) % m2
        reports.append(checked("fe_pth_power_sq", 0, p, 2, x, lhs2, rhs2))

        if p > 3:
            m3 = ctx3.modulus
            lhs3 = pow(1 - xv, p, m3)
            rhs3 = (
                1
                - pow(xv, p, m3)
                - p * l1_high
                - p * p * pounds(2, 1 - xv, ctx3)
            ) % m3
            reports.append(checked("fe_pth_power_cube", 0, p, 3, x, lhs3, rhs3))

        if xv != 1:
            # orbit x, 1-x, 1/(1-x), x/(x-1), (x-1)/x, 1/x: all pounds_1
            # values agree mod p after the reciprocal/complement unit factors
            one_minus = (1 - xv) % p
            orbit = [
                l1,
                l1c,
                (-pow(one_minus, p, p) * pounds(1, pow(one_minus, -1, p), ctx1)) % p,
                (pow(xv - 1, p, p) * pounds(1, xv * pow(xv - 1, -1, p) % p, ctx1)) % p,
                (-pow(xv, p, p) * pounds(1, (xv - 1) * xinv % p, ctx1)) % p,
                (-pow(xv, p, p) * at_inv[1]) % p,
            ]
            orbit_ok = all(v == l1 for v in orbit)
            reports.append(
                checked("fe_six_orbit", 0, p, 1, x, int(orbit_ok), 1)
            )

            # the quotient identity needs exact integer arguments: q_p is
            # sensitive to the representative mod p^2, not just mod p
            q_x = fermat_quotient(xv, p)
            q_1mx = fermat_quotient(1 - xv, p)
            rhs_q = (-xv * q_x - (1 - xv) * q_1mx) % p
            reports.append(checked("fe_fermat_quotient", 0, p, 1, x, l1, rhs_q))

    return reports
