"""Tests for the residue/Galois-ring layer."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import lift_root
from rkksums import cli
from rkksums.binomsums import lhs_sum
from rkksums.errors import DenominatorNotUnit, ModulusTooLarge, NotAUnit
from rkksums.finlog import fermat_quotient, lucas_quotient, pounds
from rkksums.modring import (
    GaloisRing,
    ModulusCtx,
    MonicPoly,
    ctx_for,
    residue_from_rational,
)
from rkksums.primes import odd_primes_in


def test_ctx_validation():
    ModulusCtx(3, 1)
    ModulusCtx(251, 3)
    with pytest.raises(ValueError):
        ModulusCtx(2, 1)
    with pytest.raises(ValueError):
        ModulusCtx(9, 1)
    with pytest.raises(ValueError):
        ModulusCtx(7, 4)
    with pytest.raises(ValueError):
        ModulusCtx(2_000_003, 3)  # p^3 exceeds MAX_MODULUS


def test_a_sweep_validates_each_modulus_once(monkeypatch):
    built = Counter()
    validate = ModulusCtx.__post_init__

    def counted(ctx):
        built[ctx.p, ctx.e] += 1
        validate(ctx)

    monkeypatch.setattr(ModulusCtx, "__post_init__", counted)
    ctx_for.cache_clear()
    tags = ["cor_split", "numerics", "central_pol", "fe", "r3_beta", "rkksuk", "mystery", "rkksukk"]
    config = cli.RunConfig(r_values=[2, 3], primes=odd_primes_in(5, 60), x_random=2, theorems=tags)
    summary, _ = cli.run(config)
    assert summary.failed == 0 and summary.passed > 500
    assert built and set(built.values()) == {1}, built
    assert ctx_for(7, 2) is ctx_for(7, 2) == ModulusCtx(7, 2)
    for _ in range(2):  # a refusal is raised on every call, never cached
        with pytest.raises(ModulusTooLarge):
            ctx_for(2_000_003, 3)


def test_residue_from_rational_examples():
    assert residue_from_rational(Fraction(4, 27), ModulusCtx(7, 2)) == 31
    assert residue_from_rational(Fraction(0, 1), ModulusCtx(13, 2)) == 0
    with pytest.raises(DenominatorNotUnit):
        residue_from_rational(Fraction(1, 3), ModulusCtx(3, 1))


def quad_ring(p, e):
    ctx = ModulusCtx(p, e)
    return GaloisRing(MonicPoly((1, 0, 1), ctx))  # c^2 + 1


def test_frobenius_conjugates_in_quadratic_ring():
    # (1+c)^7 = 1 - c in Z/7[c]/(c^2+1) since -1 is a non-residue mod 7
    ring = quad_ring(7, 1)
    elt = ring.elt([1, 1]) ** 7
    assert list(elt.coeffs) == [1, 6]


def test_trace_examples():
    # trace of c^2 in Z/25[c]/(c^2+1) is -2: the roots are +-i with i^2 = -1
    ring = quad_ring(5, 2)
    c = ring.gen()
    assert (c * c).trace() == 23
    # oracle: i lifts to 7 mod 25; 7^2 + 18^2 = 373 = 23 mod 25
    i = lift_root([1, 0, 1], 7, 5, 2)
    assert (pow(i, 2, 25) + pow(25 - i, 2, 25)) % 25 == 23

    # trace of the class of c is minus the subleading coefficient of g
    ctx = ModulusCtx(11, 2)
    g = MonicPoly((3, 5, 7, 1), ctx)
    ring3 = GaloisRing(g)
    assert ring3.gen().trace() == (-7) % ctx.modulus
    # trace of a constant is deg(g) * constant
    assert ring3.scalar(9).trace() == 27


def test_generator_power_reduction_law():
    # c^deg(g) reduces to minus the lower part of g, the plain remainder rule
    ctx = ModulusCtx(11, 2)
    g = MonicPoly((3, 5, 7, 1), ctx)
    ring = GaloisRing(g)
    reduced = ring.gen() ** 3
    expected = ring.elt([(-3) % 121, (-5) % 121, (-7) % 121])
    assert reduced == expected


def test_trace_linearity():
    ring = GaloisRing(MonicPoly((2, 3, 1, 1), ModulusCtx(13, 2)))
    rng = random.Random(1)
    m = ring.ctx.modulus
    for _ in range(50):
        u = ring.elt([rng.randrange(m) for _ in range(3)])
        v = ring.elt([rng.randrange(m) for _ in range(3)])
        a, b = rng.randrange(m), rng.randrange(m)
        lhs = (a * u + b * v).trace()
        rhs = (a * u.trace() + b * v.trace()) % m
        assert lhs == rhs


def test_trace_matches_explicit_roots_when_split():
    # g = (c - a)(c - b) over Z/p^e: trace of F(c) is F(a) + F(b)
    p, e = 13, 3
    ctx = ModulusCtx(p, e)
    m = ctx.modulus
    a, b = 100, 2101
    g = MonicPoly(((a * b) % m, (-a - b) % m, 1), ctx)
    ring = GaloisRing(g)
    c = ring.gen()
    for build, direct in [
        (c, lambda t: t),
        (c * c + 5, lambda t: (t * t + 5) % m),
        (c ** p, lambda t: pow(t, p, m)),
    ]:
        assert build.trace() == (direct(a) + direct(b)) % m


def test_inverse_roundtrip_and_nonunit():
    rng = random.Random(2)
    for p, e, gc in [(7, 1, (3, 1, 1)), (11, 3, (8, 2, 0, 1)), (5, 2, (2, 1))]:
        ring = GaloisRing(MonicPoly(gc, ModulusCtx(p, e)))
        m = ring.ctx.modulus
        for _ in range(30):
            u = ring.elt([rng.randrange(m) for _ in range(ring.degree)])
            if all(v % p == 0 for v in u.coeffs):
                continue
            try:
                inv = u.inverse()
            except NotAUnit:
                continue
            assert u * inv == ring.one()
    ring = GaloisRing(MonicPoly((3, 1, 1), ModulusCtx(7, 2)))
    with pytest.raises(NotAUnit):
        ring.elt([7, 14]).inverse()


def test_charpoly_of_generator_is_modpoly():
    for p, e, gc in [(7, 1, (3, 1, 1)), (13, 2, (5, 0, 2, 1)), (5, 3, (2, 1))]:
        ring = GaloisRing(MonicPoly(gc, ModulusCtx(p, e)))
        assert ring.charpoly(ring.gen()).coeffs == ring.modpoly.coeffs


def test_charpoly_of_scalar():
    ring = GaloisRing(MonicPoly((3, 1, 1), ModulusCtx(7, 2)))
    cp = ring.charpoly(ring.scalar(5))
    # (T - 5)^2 = T^2 - 10T + 25
    assert cp.coeffs == (25, (-10) % 49, 1)


def test_cayley_hamilton():
    rng = random.Random(3)
    for _ in range(20):
        p, e = rng.choice([(7, 1), (11, 2), (5, 3)])
        deg = rng.randrange(1, 5)
        ctx = ModulusCtx(p, e)
        base = roots_free_monic(rng, deg, ctx)
        ring = GaloisRing(base)
        u = ring.elt([rng.randrange(ctx.modulus) for _ in range(deg)])
        cp = ring.charpoly(u)
        acc = ring.zero()
        upow = ring.one()
        for coef in cp.coeffs:
            acc = acc + int(coef) * upow
            upow = upow * u
        assert acc == ring.zero()


def roots_free_monic(rng, deg, ctx):
    coeffs = [rng.randrange(ctx.modulus) for _ in range(deg)] + [1]
    return MonicPoly(tuple(coeffs), ctx)


def test_monic_poly_reduce_and_eval():
    ctx = ModulusCtx(7, 3)
    f = MonicPoly((340, 10, 1), ctx)
    f2 = f.reduce(2)
    assert f2.coeffs == (340 % 49, 10, 1)
    assert f.evaluate(2) == (340 + 20 + 4) % 343


def test_degree_one_ring_behaves_like_scalars():
    ctx = ModulusCtx(13, 2)
    ring = GaloisRing(MonicPoly(((-5) % 169, 1), ctx))  # c = 5
    c = ring.gen()
    assert list(c.coeffs) == [5]
    assert (c * c).trace() == 25
    assert (c ** 13).trace() == pow(5, 13, 169)
    assert (c.inverse() * c) == ring.one()


def test_residues_are_plain_ints_in_range():
    # every residue the package hands out is an int in [0, p^e), also for
    # negative and unreduced inputs
    for p, e in [(7, 1), (11, 2), (13, 3)]:
        ctx = ModulusCtx(p, e)
        m = ctx.modulus
        ring = GaloisRing(MonicPoly((3, 5, 1), ctx))
        values = [
            residue_from_rational(Fraction(-4, 27), ctx),
            residue_from_rational(3 * m + 2, ctx),
            lhs_sum(3, Fraction(-2, 3), 1, range(1, p), ctx),
            lhs_sum(3, Fraction(2), 0, range(0, 0), ctx),
            MonicPoly((3, 5, 1), ctx).evaluate(-m - 1),
            ring.trace(ring.elt([-1, m + 4])),
        ] + [pounds(s, t, ctx) for s in (0, 1, 2) for t in (-1, 1, m + 3)]
        for v in values:
            assert type(v) is int and 0 <= v < m, (p, e, v)
        for out_precision in (1, 2):
            q = fermat_quotient(-3, p, out_precision)
            assert type(q) is int and 0 <= q < p ** out_precision
        q = lucas_quotient(p)
        assert type(q) is int and 0 <= q < p
