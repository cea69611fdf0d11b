"""Tests for finite polylogarithms and the special-constant calculators."""

import math
import random
from fractions import Fraction

import pytest

from helpers import (
    bernoulli_mod_p,
    bernoulli_poly_mod_p,
    euler_numbers_mod_p,
    naive_pounds,
    ring_pounds,
)
from rkksums import finlog
from rkksums.finlog import (
    check_functional_equations,
    constants_table,
    fermat_quotient,
    legendre,
    lucas_number_mod,
    lucas_quotient,
    pounds,
)
from rkksums.modring import GaloisRing, ModulusCtx, MonicPoly
from rkksums.primes import odd_primes_in


def test_pounds_matches_naive_sum():
    rng = random.Random(0)
    for p, e in [(7, 1), (11, 2), (13, 3)]:
        ctx = ModulusCtx(p, e)
        for _ in range(10):
            t = rng.randrange(ctx.modulus)
            for s in (0, 1, 2):
                got = pounds(s, t, ctx)
                assert got == naive_pounds(s, t, p, ctx.modulus)


def test_pounds_zero_order_closed_form():
    # pounds_0(u) = (u - u^p)/(1 - u) whenever 1 - u is a unit
    for p, e in [(7, 2), (13, 1)]:
        ctx = ModulusCtx(p, e)
        m = ctx.modulus
        for t in range(m):
            if (1 - t) % p == 0:
                continue
            lhs = pounds(0, t, ctx)
            rhs = (t - pow(t, p, m)) * pow((1 - t) % m, -1, m) % m
            assert lhs == rhs
    # same closed form inside a Galois ring
    ring = GaloisRing(MonicPoly((3, 1, 1), ModulusCtx(11, 2)))
    u = ring.elt([4, 7])
    lhs = ring_pounds(0, u)
    rhs = (u - u ** 11) * (ring.one() - u).inverse()
    assert lhs == rhs


def test_wolstenholme_values():
    for p in (5, 7, 11, 13, 101):
        assert pounds(1, 1, ModulusCtx(p, 2)) == 0
        assert pounds(2, 1, ModulusCtx(p, 1)) == 0


def test_pounds_commutes_with_precision_reduction():
    p = 11
    rng = random.Random(1)
    for _ in range(20):
        t = rng.randrange(p ** 3)
        for s in (0, 1, 2):
            v3 = pounds(s, t, ModulusCtx(p, 3))
            v2 = pounds(s, t, ModulusCtx(p, 2))
            v1 = pounds(s, t, ModulusCtx(p, 1))
            assert v3 % p ** 2 == v2 and v2 % p == v1


def test_pounds_reduction_commutes_in_galois_rings():
    gc = (3, 1, 1)
    ring3 = GaloisRing(MonicPoly(gc, ModulusCtx(11, 3)))
    ring1 = GaloisRing(MonicPoly(gc, ModulusCtx(11, 1)))
    u3 = ring3.elt([4, 9])
    u1 = ring1.elt([4, 9])
    for s in (0, 1, 2):
        high = ring_pounds(s, u3)
        low = ring_pounds(s, u1)
        assert [v % 11 for v in high.coeffs] == list(low.coeffs)


def test_fermat_quotient_examples():
    assert fermat_quotient(1, 7) == 0
    assert fermat_quotient(2, 5) == 3  # (16 - 1)/5
    # pounds_1(1/2) = q_p(2) mod p
    for p in (5, 7, 11, 29):
        ctx = ModulusCtx(p, 1)
        assert pounds(1, pow(2, -1, p), ctx) == fermat_quotient(2, p)


def test_fermat_quotient_is_multiplicative_mod_p():
    rng = random.Random(2)
    for p in (7, 13, 31):
        for _ in range(20):
            a = rng.randrange(1, 10 ** 6)
            b = rng.randrange(1, 10 ** 6)
            if a % p == 0 or b % p == 0:
                continue
            q_ab = fermat_quotient(a * b, p)
            q_sum = (fermat_quotient(a, p) + fermat_quotient(b, p)) % p
            assert q_ab == q_sum


def test_euler_numbers_small():
    es = euler_numbers_mod_p(101, 8)
    assert es[0] == 1
    assert es[1] == 100          # E_2 = -1
    assert es[2] == 5            # E_4 = 5
    assert es[3] == (-61) % 101  # E_6 = -61


def test_euler_dilog_cross_check():
    # pounds_2(i) = ((-1)^((p-1)/2) + i) * E_{p-3} / 2 in F_p[i]; the
    # polylog route shares no code with the k^-2 sum behind euler_pm3
    for p in (13, 17, 29, 1009, 1433):  # i in F_p
        i_val = next(a for a in range(2, p) if a * a % p == p - 1)
        ctx = ModulusCtx(p, 1)
        lhs = pounds(2, i_val, ctx)
        sign = 1 if (p - 1) // 2 % 2 == 0 else -1
        rhs = (sign + i_val) * constants_table(p).euler_pm3 * pow(2, -1, p) % p
        assert lhs == rhs
    for p in (7, 11, 19):  # i lives in the quadratic extension
        ring = GaloisRing(MonicPoly((1, 0, 1), ModulusCtx(p, 1)))
        i_elt = ring.gen()
        lhs = ring_pounds(2, i_elt)
        sign = 1 if (p - 1) // 2 % 2 == 0 else -1
        e_val = constants_table(p).euler_pm3
        rhs = (ring.scalar(sign) + i_elt) * (e_val * pow(2, -1, p) % p)
        assert lhs == rhs


def test_bernoulli_values():
    # B_0(a) = 1, B_1 = -1/2, B_4 = -1/30 (= 3 mod 7)
    assert bernoulli_poly_mod_p(0, Fraction(3, 4), 11) == 1
    assert bernoulli_mod_p(11, 4)[1] == (-pow(2, -1, 11)) % 11
    assert bernoulli_mod_p(7, 4)[4] == (-pow(30, -1, 7)) % 7 == 3
    # B_1(0) = -1/2 through the polynomial evaluation path
    assert bernoulli_poly_mod_p(1, Fraction(0), 13) == (-pow(2, -1, 13)) % 13


def test_constants_match_the_recurrences():
    # the O(p) sums of k^-2 against the O(p^2) Euler and Bernoulli recurrences
    for p in odd_primes_in(5, 299):
        ct = constants_table(p)
        assert ct.euler_pm3 == euler_numbers_mod_p(p, p - 3)[(p - 3) // 2], p
        assert ct.b_pm2_third == bernoulli_poly_mod_p(p - 2, Fraction(1, 3), p), p


def test_constants_table_makes_no_binomial_calls(monkeypatch):
    # no quadratic recurrence may come back: at p = 1447 one would take seconds
    def forbidden(*args):
        raise AssertionError("math.comb called while building the constants")

    monkeypatch.setattr(math, "comb", forbidden)
    ct = constants_table(1447)
    assert ct.p == 1447 and 0 <= ct.euler_pm3 < 1447 and 0 <= ct.b_pm2_third < 1447


def test_lucas_quotient():
    assert lucas_number_mod(7, 10 ** 6) == 29
    assert lucas_quotient(7) == 4  # (29 - 1)/7
    # L_p = 1 mod p for every odd prime
    for p in (7, 11, 13, 101):
        assert lucas_number_mod(p, p) == 1


@pytest.mark.parametrize("m", [7, 49, 343, 10 ** 6, 1009 ** 2])
def test_lucas_numbers_follow_the_integer_recurrence(m):
    lucas = [2, 1]
    for _ in range(400):
        lucas.append(lucas[-1] + lucas[-2])
    assert [lucas_number_mod(n, m) for n in range(401)] == [v % m for v in lucas[:401]]


def test_lucas_williams_identity():
    # L_{p - (p|5)} = 2 (p|5) mod p^2
    for p in (7, 11, 13, 17, 19, 23, 101):
        sym = legendre(p, 5)
        assert lucas_number_mod(p - sym, p * p) == (2 * sym) % (p * p)


def test_legendre_symbol():
    assert legendre(-1, 13) == 1
    assert legendre(-1, 7) == -1
    assert legendre(0, 7) == 0
    for p in (11, 13):
        squares = {a * a % p for a in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)


def test_functional_equation_sweep():
    for p in (5, 7, 13, 29, 53):
        reports = check_functional_equations(p, sample_count=6, seed=3)
        bad = [r for r in reports if r.verdict != "pass"]
        assert not bad, bad


def test_constants_table_consistency():
    ct = constants_table(11)
    assert ct.qp2 == fermat_quotient(2, 11)
    assert ct.qp2_sq % 11 == ct.qp2
    assert ct.lucas_q == lucas_quotient(11)
    assert constants_table(5).lucas_q is None


def test_functional_equations_reuse_their_polylogs(monkeypatch):
    # per sampled x: 3 orders at x and at 1/x, pounds_1(1-x), two values
    # mod p^3 and three more orbit points; fe_pth_power_sq reduces the
    # pounds_1(x) mod p^3, and the orbit's x, 1-x and 1/x entries reuse
    # values already computed.  Plus 2 per prime.
    calls = []
    original = finlog.pounds

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(finlog, "pounds", counting)
    reports = check_functional_equations(13, 8, 0)
    assert len(calls) == 2 + 8 * 12
    assert all(r.verdict == "pass" for r in reports)
