"""Root sums as integer sequences: the helpers against the ring, and the ring off the verdict path.

RootSums takes every quantity from power sums of Moebius-image polynomials
(modring.image_poly) and from jumps t^N mod chi (modring.jump).  These
tests hold the helpers to the element-level GaloisRing, on random monic
moduli that need not be squarefree, and check that a sweep never builds a
ring element, nor one image's power sums below p twice.
"""

import operator
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rkksums import cli, theorems
from rkksums.errors import NonUnitDenominator, NotAUnit
from rkksums.modring import (
    GaloisRing,
    ModulusCtx,
    MonicPoly,
    extend_recurrence,
    from_power_sums,
    image_poly,
    jump,
    power_sums,
)

MOBIUS = [theorems.C, theorems.ONE_MINUS_C, theorems.INV_C,
          theorems.ONE_MINUS_INV_C, theorems.W, theorems.Z]


@st.composite
def monic_moduli(draw):
    """(ctx, coefficients) of a random monic polynomial of degree 1..6, reducible ones included."""
    p = draw(st.sampled_from([7, 11, 13, 31]))
    ctx = ModulusCtx(p, draw(st.integers(1, 3)))
    n = draw(st.integers(1, 6))
    residue = st.integers(0, ctx.modulus - 1)
    return ctx, tuple(draw(st.lists(residue, min_size=n, max_size=n))) + (1,)


@settings(max_examples=150, deadline=None)
@given(monic_moduli(), st.one_of(
    st.sampled_from(MOBIUS), st.tuples(*[st.integers(-3, 3)] * 4)))
def test_image_poly_power_sums_are_traces_of_the_moebius_element(modulus, mobius):
    ctx, g = modulus
    ring = GaloisRing(MonicPoly(g, ctx))
    a, b, gamma, delta = mobius
    c = ring.gen()
    try:
        u = (c * a + b) * (c * gamma + delta).inverse()
    except NotAUnit:
        try:
            image_poly(g, mobius, ctx.modulus)
        except NonUnitDenominator:
            return
        raise AssertionError("a non-unit denominator gave an image polynomial")
    count = 2 * ring.degree + 2
    sums = power_sums(image_poly(g, mobius, ctx.modulus), count, ctx.modulus)
    assert sums == [int((u ** k).trace()) for k in range(count + 1)]


@settings(max_examples=150, deadline=None)
@given(monic_moduli(), st.data())
def test_jump_gives_the_terms_of_the_recurrence(modulus, data):
    ctx, chi = modulus
    m, n = ctx.modulus, len(chi) - 1
    head = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    count = data.draw(st.integers(0, 3 * ctx.p))
    seq = extend_recurrence(chi, head, count + 2 * n, m)
    q = jump(chi, count, m)
    for j in range(n):
        assert sum(map(operator.mul, q, seq[j:j + n])) % m == seq[count + j]


@settings(max_examples=80, deadline=None)
@given(monic_moduli())
def test_from_power_sums_inverts_power_sums(modulus):
    ctx, chi = modulus
    n = len(chi) - 1
    assert tuple(from_power_sums(power_sums(chi, n, ctx.modulus), ctx.modulus)) == chi


def test_sweep_builds_no_ring_element(monkeypatch):
    calls = {"mul": 0, "inv": 0, "pow": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(GaloisRing, "mul", counting("mul", GaloisRing.mul))
    monkeypatch.setattr(GaloisRing, "inv", counting("inv", GaloisRing.inv))
    monkeypatch.setattr(GaloisRing, "pow", counting("pow", GaloisRing.pow))
    theorems._factor_rings.cache_clear()
    theorems.root_sums.cache_clear()
    tags = [tag for tag, fam in theorems.FAMILIES.items() if fam.grid == theorems.RPX]
    config = cli.RunConfig(
        r_values=[1, 2, 3, 4, 5], primes=[5, 7, 11, 13, 29],
        x_values=[Fraction(2), Fraction(-1, 3), Fraction(4, 27)], x_random=2,
        theorems=tags + ["rkkmod2_multiple"])
    summary, reports = cli.run(config)
    assert {rep.theorem for rep in reports} >= {"rkk_short", "rkksuk_z", "rkkmod2_multiple"}
    assert summary.failed == 0 and summary.passed > 500
    assert calls == {"mul": 0, "inv": 0, "pow": 0}
    assert theorems._factor_rings.cache_info().misses == 0


def test_power_sums_below_p_are_built_once_per_image(monkeypatch):
    p = 101
    built = Counter()

    def counted(poly, count, m):
        if count == p - 1:
            built[tuple(poly), m] += 1
        return power_sums(poly, count, m)

    monkeypatch.setattr(theorems, "power_sums", counted)
    theorems.root_sums.cache_clear()
    config = cli.RunConfig(r_values=[3], primes=[p], x_values=[Fraction(2)],
                           theorems=["rkksuk", "rkksukmod2", "rkksukk"])
    summary, _ = cli.run(config)
    assert summary.failed == 0 and summary.passed >= 3
    assert built and set(built.values()) == {1}, built


def test_the_identity_image_is_f_itself(monkeypatch):
    maps = []

    def recording(f, mobius, m):
        maps.append(mobius)
        return image_poly(f, mobius, m)

    monkeypatch.setattr(theorems, "image_poly", recording)
    theorems.root_sums.cache_clear()
    tags = [tag for tag, fam in theorems.FAMILIES.items() if fam.grid == theorems.RPX]
    config = cli.RunConfig(r_values=[1, 2, 3, 4], primes=[7, 11, 13],
                           x_values=[Fraction(2), Fraction(-1, 3)], theorems=tags)
    summary, _ = cli.run(config)
    assert summary.failed == 0 and summary.passed > 100
    assert maps and theorems.C not in maps
