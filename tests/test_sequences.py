"""Root sums as integer sequences: the helpers against the ring, and the ring off the verdict path.

RootSums takes every quantity from power sums of Moebius-image polynomials
(kernels.image_poly, kernels.reversal) and, for the p-th terms a sequence
does not reach (above theorems.SEQUENCE_BOUND, rkk's, and those past p),
from jumps t^N mod chi (kernels.jump).  These tests hold the helpers to the
element-level GaloisRing, whose arithmetic is _gfpoly's and not kernels',
on random monic moduli that need not be squarefree, and the shortcuts the
sequences take (P_p(1-u) from P_0(u)..P_p(u), reversals, Tr(1/(u-y)) from
chi'/chi) to the image polynomials they replace.  They check that a sweep
never builds a ring element, nor one image's power sums twice, that both
sides of the bound agree, and that every root sum a checker reads reduces
from p^3 to the value computed at p or p^2.
"""

import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkksums import cli, kernels, theorems
from rkksums.errors import NonUnitDenominator, NotAUnit
from rkksums.kernels import (
    extend_recurrence, from_power_sums, image_poly, jump, pole_trace, power_sums, reversal)
from rkksums.modring import GaloisRing, ModulusCtx, MonicPoly
from rkksums.polyfactor import Degeneracy, classify_x, x0_value
from rkksums.primes import odd_primes_in
from rkksums.report import emit_report

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
    # the sequence runs to P_p: the polylog traces weigh its terms below p
    p = 101
    built = Counter()

    def counted(poly, count, m):
        if count == p:
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


# every RootSums attribute a checker reads
READ_BY_CHECKERS = sorted(
    [name for name in vars(theorems.RootSums) if name.startswith("sum_")]
    + ["z_inverse_pow_p_charpoly"])


@st.composite
def nondegenerate_points(draw):
    """(r, x, p): r <= 6, an odd prime p <= 60 above r, and a nondegenerate x."""
    r = draw(st.integers(1, 6))
    p = draw(st.sampled_from(odd_primes_in(r + 1, 60)))
    x = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 60)))
    assume(x.denominator % p and classify_x(r, x, p) is Degeneracy.NONDEGENERATE)
    return r, x, p


@settings(max_examples=60, deadline=None)
@given(nondegenerate_points())
def test_every_root_sum_a_checker_reads_commutes_with_reduction(point):
    # a Point reads its root sums at the highest precision of its tags, so a
    # checker at a lower precision reads them reduced
    r, x, p = point
    high = theorems.RootSums(r, x, p, 3)
    for e in (1, 2):
        low, m = theorems.RootSums(r, x, p, e), p ** e
        for name in READ_BY_CHECKERS:
            value = getattr(high, name)
            reduced = tuple(v % m for v in value) if isinstance(value, tuple) else value % m
            assert reduced == getattr(low, name), (name, r, x, p, e)


def _raises_or_value(fn, *args):
    try:
        return fn(*args)
    except NonUnitDenominator:
        return NonUnitDenominator


@settings(max_examples=150, deadline=None)
@given(monic_moduli())
def test_the_signed_binomial_dot_is_the_p_th_power_sum_of_one_minus_u(modulus):
    ctx, chi = modulus
    p, m = ctx.p, ctx.modulus
    flipped = image_poly(chi, (-1, 1, 0, 1), m)
    jumped = sum(map(operator.mul, jump(flipped, p, m), power_sums(flipped, len(chi) - 2, m))) % m
    row = theorems._signed_binomials(p, ctx.e)
    assert sum(map(operator.mul, row, power_sums(chi, p, m))) % m == jumped


@settings(max_examples=150, deadline=None)
@given(monic_moduli())
def test_the_reversal_is_the_image_of_u_under_one_over_u(modulus):
    ctx, chi = modulus
    m, count = ctx.modulus, 2 * len(chi)
    rev = _raises_or_value(reversal, chi, m)
    image = _raises_or_value(image_poly, chi, (0, 1, 1, 0), m)
    if NonUnitDenominator in (rev, image):
        assert rev is image is NonUnitDenominator
    else:
        assert power_sums(rev, count, m) == power_sums(image, count, m)


@settings(max_examples=150, deadline=None)
@given(monic_moduli(), st.integers(-3, 3))
def test_the_pole_trace_is_p_1_of_the_image_of_u_under_one_over_u_minus_y(modulus, y):
    ctx, chi = modulus
    m = ctx.modulus
    trace = _raises_or_value(pole_trace, chi, y, m)
    image = _raises_or_value(image_poly, chi, (0, 1, 1, -y), m)
    if NonUnitDenominator in (trace, image):
        assert trace is image is NonUnitDenominator
    else:
        assert trace == power_sums(image, 1, m)[1]


@settings(max_examples=60, deadline=None)
@given(nondegenerate_points(), st.integers(1, 3))
def test_both_sides_of_the_sequence_bound_agree(point, e):
    r, x, p = point
    values = {}
    for bound in (p - 1, p):    # every p-th term by a jump, then by a sequence
        theorems.SEQUENCE_BOUND, saved = bound, theorems.SEQUENCE_BOUND
        try:
            rs = theorems.RootSums(r, x, p, e)
            values[bound] = {name: getattr(rs, name) for name in READ_BY_CHECKERS}
        finally:
            theorems.SEQUENCE_BOUND = saved
    assert values[p - 1] == values[p], (r, x, p, e)


SEQUENCE_TAGS = ["mystery", "lemma_technical", "rkksukk", "rkksukmod2", "rkkmod2", "rkkmod2_var"]


def test_below_the_bound_these_tags_take_no_jump(monkeypatch):
    # x = 0, x0 at r = 2, 3, 4, 6 and a denominator divisible by p are degenerate somewhere
    xs = [Fraction(0), Fraction(2), Fraction(-1, 3), Fraction(1, 7)] + [x0_value(r) for r in (2, 3, 4, 6)]
    config = cli.RunConfig(r_values=[1, 2, 3, 4, 5, 6], primes=odd_primes_in(5, 60), x_values=xs,
                           x_random=2, theorems=SEQUENCE_TAGS, fmt="csv")

    def report():
        theorems.root_sums.cache_clear()
        summary, reports = cli.run(config)
        assert summary.failed == 0 and summary.skipped > 0
        return emit_report(reports, "csv", None)

    assert max(config.primes) <= theorems.SEQUENCE_BOUND
    monkeypatch.setattr(theorems, "SEQUENCE_BOUND", 0)
    jumped = report()

    def forbidden(*args):
        raise AssertionError("a jump below the sequence bound")

    monkeypatch.undo()
    monkeypatch.setattr(theorems, "jump", forbidden)
    monkeypatch.setattr(kernels, "jump", forbidden)
    assert report() == jumped


def _sequence_lengths(monkeypatch):
    """The lengths of the power-sum sequences and recurrences theorems builds from now on."""
    lengths = []

    def counted(poly, count, m):
        lengths.append(count + 1)
        return power_sums(poly, count, m)

    def extended(poly, head, count, m):
        lengths.append(count + 1)
        return extend_recurrence(poly, head, count, m)

    monkeypatch.setattr(theorems, "power_sums", counted)
    monkeypatch.setattr(theorems, "extend_recurrence", extended)
    theorems.root_sums.cache_clear()
    return lengths


@pytest.mark.parametrize("r", [2, 6])
def test_above_the_bound_mystery_and_lemma_technical_build_short_sequences(r, monkeypatch):
    # the bracket of rkkmod2 and rkkmod2_var and the z charpoly jump above the bound too
    lengths = _sequence_lengths(monkeypatch)
    tags = ["mystery", "lemma_technical", "rkkmod2", "rkkmod2_var", "rkksuk_z", "rkksuk_long"]
    rows = theorems.point_rows(tags, r, 10_007, Fraction(2))
    assert {row.verdict for row in rows} == {"pass"}
    assert {row.theorem for row in rows} == {
        "mystery_a", "mystery_b", "lemma_technical", "rkkmod2", "rkkmod2_var", "rkkmod2_cross",
        "rkksuk_z", "rkksuk_z_const", "rkksuk_long"}
    assert lengths and max(lengths) <= 2 * r, lengths


@pytest.mark.parametrize("p", [11, 101, 10_007])
@pytest.mark.parametrize("r", [1, 2, 6])
def test_rkk_builds_short_sequences_on_both_sides_of_the_bound(r, p, monkeypatch):
    # rkk's T_p takes the jump its c^(kp) terms take anyway, even below the bound
    lengths = _sequence_lengths(monkeypatch)
    rows = theorems.point_rows(["rkk"], r, p, Fraction(2))
    assert [row.verdict for row in rows] == ["pass"] * min(r, 2)   # rkk_short needs r >= 2
    assert lengths and max(lengths) <= 2 * r, lengths
