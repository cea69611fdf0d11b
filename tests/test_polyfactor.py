"""Tests for root-polynomial construction, factorization and Hensel lifting."""

import random
from fractions import Fraction

import pytest

from helpers import lift_root, roots_mod_p
from rkksums.errors import NotSquarefree, XNotUnit
from rkksums.modring import ModulusCtx, MonicPoly
from rkksums.polyfactor import (
    Degeneracy,
    build_root_poly,
    classify_x,
    factor_mod_p,
    hensel_lift,
    root_factor_set,
    split_double_root,
    x0_value,
)


def test_build_root_poly_linear_case():
    # r=1: c - 1 + 1/x, so the single root is 1 - 1/x
    ctx = ModulusCtx(7, 1)
    f = build_root_poly(1, Fraction(2), ctx)
    assert f.coeffs == (3, 1)
    assert roots_mod_p(list(f.coeffs), 7) == [4]  # 1 - 1/2 = 4 mod 7


def test_build_root_poly_rejects_zero_x():
    with pytest.raises(XNotUnit):
        build_root_poly(3, Fraction(7), ModulusCtx(7, 1))


def test_root_poly_never_vanishes_at_zero_or_one():
    rng = random.Random(0)
    for _ in range(50):
        p = rng.choice([5, 7, 11, 13])
        r = rng.randrange(2, min(p, 7))
        x = rng.randrange(1, p)
        ctx = ModulusCtx(p, 2)
        f = build_root_poly(r, Fraction(x), ctx)
        inv_x = pow(x, -1, ctx.modulus)
        assert f.evaluate(1) == inv_x
        assert f.evaluate(0) == (-1) ** r % ctx.modulus


def test_classify_x_examples():
    assert classify_x(3, Fraction(4, 27), 11) is Degeneracy.DOUBLE_ROOT_X0
    assert classify_x(3, Fraction(4, 27), 101) is Degeneracy.DOUBLE_ROOT_X0
    assert classify_x(2, Fraction(1, 4), 13) is Degeneracy.DOUBLE_ROOT_X0
    assert classify_x(3, Fraction(2), 7) is Degeneracy.NONDEGENERATE
    assert classify_x(3, Fraction(14), 7) is Degeneracy.ZERO_X
    # r=1: the root collides with the r-1+c denominator exactly at x = 1
    assert classify_x(1, Fraction(1), 7) is Degeneracy.DOUBLE_ROOT_X0
    assert classify_x(1, Fraction(8), 7) is Degeneracy.DOUBLE_ROOT_X0
    assert classify_x(1, Fraction(2), 7) is Degeneracy.NONDEGENERATE


def test_factor_examples():
    # (c-1)^3 + inv(2) c^2 splits into three linears mod 13: roots {6, 7, 9},
    # which are the global roots 1/2 and 1 +- i read mod 13 (i = 5)
    fs = factor_mod_p(build_root_poly(3, Fraction(2), ModulusCtx(13, 1)))
    assert [g.degree for g in fs.factors] == [1, 1, 1]
    roots = sorted((-g.coeffs[0]) % 13 for g in fs.factors)
    assert roots == [6, 7, 9]
    i_val = 5
    assert i_val * i_val % 13 == 12
    assert sorted([pow(2, -1, 13), (1 + i_val) % 13, (1 - i_val) % 13]) == roots

    # mod 7 it splits as linear times irreducible quadratic (-1 non-residue)
    fs7 = factor_mod_p(build_root_poly(3, Fraction(2), ModulusCtx(7, 1)))
    assert sorted(g.degree for g in fs7.factors) == [1, 2]
    linear = min(fs7.factors, key=lambda g: g.degree)
    assert linear.coeffs == (3, 1)  # c - 4

    # r=1: already linear
    fs1 = factor_mod_p(build_root_poly(1, Fraction(2), ModulusCtx(7, 1)))
    assert len(fs1.factors) == 1 and fs1.factors[0].degree == 1


def test_factor_degrees_independent_of_rng():
    f = build_root_poly(5, Fraction(3), ModulusCtx(23, 1))
    degree_sets = set()
    for seed in range(5):
        fs = factor_mod_p(f, random.Random(seed))
        degree_sets.add(tuple(sorted(g.degree for g in fs.factors)))
        assert fs.product().coeffs == f.coeffs
    assert len(degree_sets) == 1


def test_factor_rejects_repeated_roots():
    ctx = ModulusCtx(11, 1)
    f = build_root_poly(3, x0_value(3), ctx)
    with pytest.raises(NotSquarefree):
        factor_mod_p(f)


def test_hensel_identity_at_e1():
    ctx = ModulusCtx(11, 1)
    f = build_root_poly(3, Fraction(4), ctx)
    fs = factor_mod_p(f)
    assert hensel_lift(fs, f, 1) is fs


def test_hensel_product_certificates_random():
    rng = random.Random(1)
    for _ in range(60):
        p = rng.choice([5, 7, 11, 13, 17])
        r = rng.randrange(2, min(p, 7))
        e = rng.randrange(2, 4)
        x = rng.randrange(1, p)
        if classify_x(r, Fraction(x), p) is not Degeneracy.NONDEGENERATE:
            continue
        ctx = ModulusCtx(p, e)
        f = build_root_poly(r, Fraction(x), ctx)
        lifted = hensel_lift(factor_mod_p(f.reduce(1), rng), f, e)
        assert lifted.product().coeffs == f.coeffs
        for g, g0 in zip(lifted.factors, factor_mod_p(f.reduce(1), rng).factors):
            assert tuple(c % p for c in g.coeffs) == g0.coeffs


def test_hensel_precision_consistency():
    # lifting to e=3 then reducing mod p^2 equals lifting to e=2
    ctx3 = ModulusCtx(13, 3)
    f3 = build_root_poly(4, Fraction(5), ctx3)
    rng = random.Random(7)
    fs3 = hensel_lift(factor_mod_p(f3.reduce(1), random.Random(7)), f3, 3)
    fs2 = hensel_lift(factor_mod_p(f3.reduce(1), random.Random(7)), f3.reduce(2), 2)
    assert tuple(g.reduce(2).coeffs for g in fs3.factors) == tuple(
        g.coeffs for g in fs2.factors
    )


def test_root_factor_set_split_roots_match_bruteforce():
    # when the polynomial splits, lifted linear factors carry the Newton lifts
    from helpers import root_poly_coeffs

    fs = root_factor_set(3, Fraction(2), ModulusCtx(13, 3))
    roots = sorted((-g.coeffs[0]) % 13 ** 3 for g in fs.factors)
    expected = sorted(
        lift_root(root_poly_coeffs(3, Fraction(2), 13, 3), a, 13, 3)
        for a in (6, 7, 9)
    )
    assert roots == expected


def test_split_double_root_r2():
    root, cof = split_double_root(2, 11, 2)
    assert root == (1 - 2) % 121
    assert cof.factors == ()
    assert cof.degenerate


def test_split_double_root_r3():
    # double root -2, cofactor root 1/4
    root, cof = split_double_root(3, 11, 2)
    m = 121
    assert root == (1 - 3) % m
    assert len(cof.factors) == 1 and cof.factors[0].degree == 1
    assert (-cof.factors[0].coeffs[0]) % m == pow(4, -1, m)


def test_split_double_root_r4():
    # cofactor quadratic with roots (7 +- 4 sqrt(-2))/27 where they exist
    p = 17  # -2 = 15 is a QR mod 17 (7^2 = 49 = 15)
    root, cof = split_double_root(4, p, 1)
    assert root == (1 - 4) % p
    assert sum(g.degree for g in cof.factors) == 2
    s = next(a for a in range(p) if a * a % p == (-2) % p)
    expected = sorted(
        (7 + sign * 4 * s) * pow(27, -1, p) % p for sign in (1, -1)
    )
    got = sorted(
        (-g.coeffs[0]) % p for g in cof.factors if g.degree == 1
    )
    assert got == expected

    # and the full reconstruction: (c - (1-r))^2 * cofactor = root poly
    f = build_root_poly(4, x0_value(4), ModulusCtx(p, 1))
    lin = MonicPoly(((-root) % p, 1), ModulusCtx(p, 1))
    recon = lin * lin
    for g in cof.factors:
        recon = recon * g
    assert recon.coeffs == f.coeffs
