"""The unfactored root algebra against the per-factor reference.

Root sums are computed in one ring built on the whole root polynomial, and
polylog traces come from a linear recurrence.  These tests hold both to the
element-level route they replaced: factoring mod p, Hensel lifting, one
Galois ring per factor, and the polylog formed as a ring element
(helpers.ring_pounds).  The reference runs on _gfpoly and the root sums on
kernels; two tests run each side with every function of the other's
arithmetic made to raise.
"""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import forbid_every_function, ring_pounds
from rkksums import _gfpoly, cli, kernels
from rkksums import theorems as T
from rkksums.errors import NonUnitDenominator, NotAUnit
from rkksums.kernels import image_poly
from rkksums.modring import GaloisRing, ModulusCtx, MonicPoly, fl_charpoly, mult_matrix
from rkksums.polyfactor import (
    Degeneracy,
    build_root_poly,
    classify_residue,
    double_root_cofactor,
    factor_mod_p,
    hensel_lift,
    root_factor_set,
    split_double_root,
)
from rkksums.primes import odd_primes_in


@st.composite
def ring_elements(draw):
    """A random monic modulus of degree 1..6 (reducible ones included) and u.

    u is affine in c (a0 + b*c, whose image polynomial is also checked) or a
    general element.
    """
    p = draw(st.sampled_from([7, 11, 13, 31]))
    e = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    ctx = ModulusCtx(p, e)
    residue = st.integers(0, ctx.modulus - 1)
    g = MonicPoly(tuple(draw(st.lists(residue, min_size=n, max_size=n))) + (1,), ctx)
    ring = GaloisRing(g)
    u_len = draw(st.sampled_from(sorted({min(2, n), n})))
    return ring, ring.elt(draw(st.lists(residue, min_size=u_len, max_size=u_len)))


@settings(max_examples=60, deadline=None)
@given(ring_elements())
def test_charpoly_matches_faddeev_leverrier(elements):
    # for affine u = a0 + b c the characteristic polynomial is the image
    # polynomial of c -> b c + a0, which the root sums read
    ring, u = elements
    m, g = ring.ctx.modulus, ring.modpoly.coeffs
    mat = mult_matrix(u.coeffs, g, m)
    inverses = [pow(k, -1, m) for k in range(1, ring.degree + 1)]
    expected = tuple(fl_charpoly(mat, inverses, m))
    assert ring.charpoly(u).coeffs == expected
    if not any(u.coeffs[2:]):
        a0, b = u.coeffs[0], u.coeffs[1] if ring.degree > 1 else 0
        assert image_poly(g, (b, a0, 0, 1), m) == expected


def reference_values():
    """Products, powers, inverse, trace and charpoly in one ring, and the factoring."""
    ring = GaloisRing(MonicPoly((3, 1, 4, 1), ModulusCtx(11, 2)))
    u = ring.elt([2, 3])
    f = build_root_poly(3, Fraction(2), ModulusCtx(7, 3))   # linear times quadratic mod 7
    return (ring.mul(u, u + 1), ring.pow(u, 5), ring.pow(u, -3), ring.inv(u),
            ring.trace(u), ring.charpoly(u), root_factor_set(3, Fraction(2), f.ctx),
            hensel_lift(factor_mod_p(f.reduce(1)), f, 3), split_double_root(4, 13, 2))


def test_charpoly_never_calls_image_poly(monkeypatch):
    # the reference has arithmetic of its own: with every function of
    # kernels raising (image_poly, mulmod and jump among them), the ring
    # and the factoring give the same values as before
    expected = reference_values()
    forbidden = forbid_every_function(monkeypatch, kernels)
    assert reference_values() == expected
    assert {"image_poly", "jump", "mulmod"} <= set(forbidden)
    ring, m = GaloisRing(MonicPoly((3, 1, 4, 1), ModulusCtx(11, 2))), 121
    u = ring.elt([2, 3])
    mat = mult_matrix(u.coeffs, ring.modpoly.coeffs, m)
    inverses = [pow(k, -1, m) for k in range(1, 4)]
    assert ring.charpoly(u).coeffs == tuple(fl_charpoly(mat, inverses, m))


def test_the_verdict_path_never_calls_gfpoly(monkeypatch):
    # the mirror: with every function of the reference's arithmetic raising,
    # a sweep of every per-point tag and the double-root tag still passes
    forbidden = forbid_every_function(monkeypatch, _gfpoly)
    T.root_sums.cache_clear()
    tags = [tag for tag, fam in T.FAMILIES.items() if fam.grid == T.RPX]
    config = cli.RunConfig(r_values=[1, 2, 3, 4], primes=[5, 7, 11, 13],
                           x_values=[Fraction(2), Fraction(-1, 3)], x_random=2,
                           theorems=tags + ["rkkmod2_multiple"])
    summary, reports = cli.run(config)
    assert {rep.theorem for rep in reports} >= {"rkk_short", "rkksuk_z", "rkkmod2_multiple"}
    assert summary.failed == 0 and summary.passed > 300
    assert {"mulmod", "powmod", "invert_mod"} <= set(forbidden)


AGGREGATES = {
    "sum_c_pow_p": lambda R, c, r, p: c ** p,
    "sum_one_minus_c_pow_p": lambda R, c, r, p: (R.one() - c) ** p,
    "sum_inv_c_pow_p": lambda R, c, r, p: c.inverse() ** p,
    "sum_one_minus_inv_c_pow_p": lambda R, c, r, p: (R.one() - c.inverse()) ** p,
    "sum_inv_one_minus_c_pow_p": lambda R, c, r, p: (R.one() - c).inverse() ** p,
    "sum_cp_over_cm1_p": lambda R, c, r, p: c ** p * (c - R.one()).inverse() ** p,
    "sum_pounds1": lambda R, c, r, p: ring_pounds(1, c),
    "sum_pounds1_w": lambda R, c, r, p: ring_pounds(1, (R.one() - c).inverse()),
    "sum_pounds2_c": lambda R, c, r, p: ring_pounds(2, c),
    "sum_pounds2_one_minus_c": lambda R, c, r, p: ring_pounds(2, R.one() - c),
    "sum_rkk_long": lambda R, c, r, p: (
        (c - c ** p) * (R.scalar(r - 1) + c).inverse()),
    "sum_rkk_short": lambda R, c, r, p: (
        (c - c ** p) * ((R.one() - c ** p) * (R.scalar(r - 1) + c)).inverse()),
    "sum_mod2_full": lambda R, c, r, p: (
        (c - R.one()) * (R.scalar(r - 1) + c).inverse()
        * (R.scalar(r) - (r - 1) * c ** p - r * (R.one() - c) ** p)),
    "sum_mod2_open": lambda R, c, r, p: (
        r * (R.scalar(r - 1) + c).inverse()
        * (R.scalar(r - 1) - (r - 1) * c ** p - r * (R.one() - c) ** p)),
}


def factor_rings(r, x, p, e):
    return [GaloisRing(f) for f in root_factor_set(r, x, ModulusCtx(p, e)).factors]


def non_split_cases():
    """(r, x, p) whose root polynomial has an irreducible factor of degree > 1."""
    cases = []
    for r in (2, 3, 4, 5):
        for p in odd_primes_in(r + 2, 19):
            for xv in range(1, p):
                if classify_residue(r, xv, p) is not Degeneracy.NONDEGENERATE:
                    continue
                if any(R.degree > 1 for R in factor_rings(r, Fraction(xv), p, 1)):
                    cases.append((r, Fraction(xv), p))
    return cases


def test_linear_times_quadratic_example_is_non_split():
    degrees = sorted(R.degree for R in factor_rings(3, Fraction(2), 7, 1))
    assert degrees == [1, 2]


@pytest.mark.parametrize("e", [1, 2, 3])
def test_root_sums_match_per_factor_reference_on_non_split_instances(e):
    cases = non_split_cases()
    assert (3, Fraction(2), 7) in cases and len(cases) > 40
    for r, x, p in cases:
        m = p ** e
        rs = T.RootSums(build_root_poly(r, x, ModulusCtx(p, e)), r)   # fresh: nothing cached
        rings = factor_rings(r, x, p, e)
        for name, build in AGGREGATES.items():
            try:
                expected = sum(int(build(R, R.gen(), r, p).trace()) for R in rings) % m
            except NotAUnit:
                with pytest.raises(NonUnitDenominator):
                    getattr(rs, name)
                continue
            assert getattr(rs, name) == expected, (name, r, x, p, e)

        charpolys = []
        for R in rings:
            c = R.gen()
            charpolys.append(R.charpoly((c * (c - R.one()).inverse()) ** p))
        product = functools.reduce(operator.mul, charpolys)
        assert rs.z_inverse_pow_p_charpoly == product.coeffs, (r, x, p, e)


@st.composite
def shifted_moduli(draw):
    """(f, r): a random monic f of degree 1..6, reducible ones included, and
    a shift r in 1..9, with f(0), f(1) and f(1-r) units mod p, so that every
    root sum is defined: c, 1-c and r-1+c are units."""
    p = draw(st.sampled_from([7, 11, 13, 31]))
    ctx = ModulusCtx(p, draw(st.integers(1, 3)))
    r, n = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    residue = st.integers(0, ctx.modulus - 1)
    f = MonicPoly(tuple(draw(st.lists(residue, min_size=n, max_size=n))) + (1,), ctx)
    assume(all(f.evaluate(v) % p for v in (0, 1, 1 - r)))
    return f, r


@settings(max_examples=80, deadline=None)
@given(shifted_moduli(), st.sampled_from([0, 1000]))
def test_root_sums_of_any_monic_polynomial_match_its_ring(modulus, bound):
    # RootSums reads only f and the shift r: the degree is f's, not r, and
    # both sides of the sequence bound give the ring's traces
    f, r = modulus
    p, m = f.ctx.p, f.ctx.modulus
    R = GaloisRing(f)
    c = R.gen()
    T.SEQUENCE_BOUND, saved = bound, T.SEQUENCE_BOUND
    try:
        rs = T.RootSums(f, r)
        for name, build in AGGREGATES.items():
            assert getattr(rs, name) == int(build(R, c, r, p).trace()) % m, (name, f, r, bound)
        z_p = (c * (c - R.one()).inverse()) ** p
        assert rs.z_inverse_pow_p_charpoly == R.charpoly(z_p).coeffs, (f, r, bound)
    finally:
        T.SEQUENCE_BOUND = saved


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([7, 11, 13, 31]), st.data())
def test_short_range_polylog_trace_is_the_polylog_trace_of_w(p, data):
    # rkksuk_short's right side -sum pounds_1(c)/(1-c)^p is Tr pounds_1(w),
    # w = 1/(1-c), mod p: x^p pounds_1(1/x) == -pounds_1(x) and
    # pounds_1(1-x) == pounds_1(x) hold as polynomial identities mod p
    ctx = ModulusCtx(p, 1)
    n = data.draw(st.integers(1, 6))
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    f = MonicPoly(tuple(coeffs) + (1,), ctx)
    assume(f.evaluate(1) % p)
    R = GaloisRing(f)
    w = (R.one() - R.gen()).inverse()
    paper = -int((ring_pounds(1, R.gen()) * w ** p).trace()) % p
    assert paper == int(ring_pounds(1, w).trace()) % p, f
    assert T.RootSums(f, 1).sum_pounds1_w == paper, f


@pytest.mark.parametrize("e", [1, 2, 3])
def test_double_root_cofactor_trace_matches_per_factor_reference(e):
    # x0's check reads Tr((c-1) s bracket) over the cofactor's roots c, the
    # rkkmod2 bracket r - (r-1) c^p - r (1-c)^p; mod p^2 it is
    # Tr((c-1) s (c^p + r p pounds_1(c))), as p pounds_1(c) = 1 - c^p - (1-c)^p
    non_split = 0
    for r in (3, 4, 5, 6):
        for p in odd_primes_in(r + 1, 60):
            if p <= 3 or r * (r - 1) % p == 0:
                continue
            m = p ** e
            root, cofactor = double_root_cofactor(r, p, e)
            root_ref, factors = split_double_root(r, p, e)
            assert root == root_ref
            assert functools.reduce(operator.mul, factors.factors).coeffs == cofactor.coeffs
            expected = polylog_form = 0
            for f in factors.factors:
                R = GaloisRing(f)
                c = R.gen()
                expected += int(AGGREGATES["sum_mod2_full"](R, c, r, p).trace())
                q = (c - R.one()) * (R.scalar(r - 1) + c).inverse()
                polylog_form += int((q * (c ** p + r * p * ring_pounds(1, c))).trace())
            assert T.RootSums(cofactor, r).sum_mod2_full == expected % m, (r, p, e)
            if e <= 2:
                assert (expected - polylog_form) % m == 0, (r, p, e)
            non_split += any(f.degree > 1 for f in factors.factors)
    assert non_split > 20
