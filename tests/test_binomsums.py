"""Tests for binomial tables, summation ranges and the brute-force sums."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import exact_binom_table, lucas_binom_mod_p, naive_lhs
from rkksums.binomsums import (
    binom_table,
    full_range,
    lhs_sum,
    range_A,
    range_A_star,
    short_range,
)
from rkksums.errors import ZeroInRange
from rkksums.finlog import pounds
from rkksums.modring import ModulusCtx
from rkksums.primes import odd_primes_in


def test_range_A_examples():
    assert (range_A(3, 1, 7).start, range_A(3, 1, 7).stop) == (0, 3)   # {0,1,2}
    assert (range_A(3, 2, 7).start, range_A(3, 2, 7).stop) == (4, 5)   # {4}
    assert range_A_star(3, 1, 7).start == 1
    with pytest.raises(ValueError):
        range_A(3, 3, 7)


def test_union_of_windows_covers_nonvanishing_binomials():
    for p in (7, 13, 31):
        for r in (3, 4, 5):
            window = set()
            for m in range(1, r):
                rng = range_A(r, m, p)
                window.update(rng)
            for k in range(p):
                vanishes = math.comb(r * k, k) % p == 0
                assert (k in window) == (not vanishes), (p, r, k)


def test_binom_table_values():
    table = binom_table(3, 7, 1)
    assert table[0] == 1
    assert table[3] == 84 % 7 == 0
    table2 = binom_table(2, 7, 1)
    for k in range(4, 7):
        assert table2[k] == 0  # binom(2k,k) = 0 mod p for p/2 < k < p
    t49 = binom_table(3, 7, 2)
    assert t49[3] == 84 % 49


def test_binom_table_matches_lucas_at_e1():
    rng = random.Random(0)
    for _ in range(200):
        p = rng.choice([5, 7, 11, 13, 29])
        r = rng.randrange(1, 7)
        k = rng.randrange(p)
        assert binom_table(r, p, 1)[k] == lucas_binom_mod_p(r * k, k, p)


def test_binom_table_equals_the_exact_table():
    # r >= p included: then (rk)! holds p^2 and more
    for p in odd_primes_in(3, 400):
        for r in range(1, 8):
            exact = exact_binom_table(r, p, 3)
            for e in (1, 2, 3):
                expected = tuple(b % p ** e for b in exact)
                assert binom_table.__wrapped__(r, p, e) == expected, (r, p, e)


@st.composite
def table_entries(draw):
    """(r, p, e, k) with p up to 1447, where p^3 is just under MAX_MODULUS."""
    p = draw(st.sampled_from(odd_primes_in(3, 1448)))
    return draw(st.integers(1, 8)), p, draw(st.integers(1, 3)), draw(st.integers(0, p - 1))


@settings(max_examples=40, deadline=None)
@given(table_entries())
@example((6, 1447, 3, 1446))
@example((7, 3, 3, 2))
def test_binom_table_entry_against_math_comb(case):
    r, p, e, k = case
    assert binom_table(r, p, e)[k] == math.comb(r * k, k) % p ** e


def test_binom_table_takes_no_big_binomial(monkeypatch):
    def forbidden(*args):
        raise AssertionError("math.comb called")

    monkeypatch.setattr(math, "comb", forbidden)
    table = binom_table.__wrapped__(6, 1447, 3)
    assert len(table) == 1447 and table[0] == 1 and table[1] == 6


def test_lhs_sum_empty_range_and_zero_guard():
    ctx = ModulusCtx(7, 1)
    assert lhs_sum(3, Fraction(2), 1, range(5, 5), ctx) == 0
    with pytest.raises(ZeroInRange):
        lhs_sum(3, Fraction(2), 1, full_range(7, include_zero=True), ctx)


def test_lhs_sum_r1_reduces_to_truncated_log():
    for p in (7, 13):
        ctx = ModulusCtx(p, 2)
        for xv in (2, 3, 5):
            got = lhs_sum(1, Fraction(xv), 1, full_range(p), ctx)
            expected = pounds(1, xv, ctx)
            assert got == expected


def test_lhs_sum_against_naive_rational_oracle():
    rng = random.Random(1)
    for _ in range(40):
        p = rng.choice([5, 7, 11, 13])
        e = rng.randrange(1, 4)
        r = rng.randrange(1, 6)
        d = rng.randrange(0, 3)
        num = rng.randrange(-6, 7) or 1
        den = rng.choice([1, 2, 3, 8, 27])
        if num % p == 0 or den % p == 0:
            continue
        x = Fraction(num, den)
        lo = 1 if d else rng.randrange(0, 2)
        hi = rng.randrange(lo + 1, p + 1)
        ctx = ModulusCtx(p, e)
        got = lhs_sum(r, x, d, range(lo, hi), ctx)
        assert got == naive_lhs(r, x, d, lo, hi, p, e)


def test_full_vs_window_sums_agree_mod_p():
    # excluded k have binom(rk,k) = 0 mod p, so the union of A*(r,m) windows
    # reproduces the full open-range sum at e=1
    for p, r, xv in [(13, 3, 2), (17, 4, 5), (11, 5, 3)]:
        ctx = ModulusCtx(p, 1)
        full = lhs_sum(r, Fraction(xv), 1, full_range(p), ctx)
        parts = sum(
            lhs_sum(r, Fraction(xv), 1, range_A_star(r, m, p), ctx)
            for m in range(1, r)
        ) % p
        assert full == parts


def test_short_range_equals_full_for_r2_mod_p():
    for p in (7, 11, 13):
        ctx = ModulusCtx(p, 1)
        for xv in (1, 2, 3):
            full = lhs_sum(2, Fraction(xv), 1, full_range(p), ctx)
            short = lhs_sum(2, Fraction(xv), 1, short_range(2, p), ctx)
            assert full == short


def test_lhs_sum_multiplicative_in_x():
    # reducing x before or after exponentiation cannot change the result
    ctx = ModulusCtx(11, 2)
    a, b = Fraction(3, 2), Fraction(7, 5)
    prod = a * b
    direct = lhs_sum(3, prod, 1, full_range(11), ctx)
    via_residue = lhs_sum(
        3, Fraction(
            (3 * pow(2, -1, 121) * 7 * pow(5, -1, 121)) % 121
        ), 1, full_range(11), ctx
    )
    assert direct == via_residue


@st.composite
def lhs_cases(draw):
    """(r, xs, d, range, p, e): p^e up to 1447^3, just under MAX_MODULUS."""
    p, e = draw(st.sampled_from([(3, 1), (5, 3), (7, 2), (13, 1), (101, 2), (1447, 1), (1447, 3)]))
    m = p ** e
    d = draw(st.sampled_from((0, 1, 2)))
    lo = draw(st.integers(1 if d else 0, p))
    hi = draw(st.integers(lo, p))
    dens = st.integers(1, 50).filter(lambda den: den % p)
    xs = draw(st.lists(st.builds(Fraction, st.integers(-2 * m, 2 * m), dens), max_size=6))
    return draw(st.integers(1, 6)), xs, d, range(lo, hi), p, e


@settings(max_examples=60, deadline=None)
@given(lhs_cases())
@example((6, [Fraction(1447 ** 3 - 1), Fraction(-1), Fraction(2, 3)], 2, range(1, 1447), 1447, 3))
@example((2, [Fraction(5)], 0, range(0, 0), 7, 2))
@example((2, [Fraction(3)], 0, range(4, 7), 7, 1))  # binom(2k,k) = 0 mod 7 throughout
def test_lhs_sum_against_big_int_sum(case):
    r, xs, d, sum_range, p, e = case
    ctx = ModulusCtx(p, e)
    m = ctx.modulus
    terms = [(k, math.comb(r * k, k) * pow(k, -d, m)) for k in sum_range]
    for x in xs:
        value = lhs_sum(r, x, d, sum_range, ctx)
        xv = x.numerator * pow(x.denominator, -1, m) % m
        assert type(value) is int
        assert value == sum(t * pow(xv, k, m) for k, t in terms) % m
