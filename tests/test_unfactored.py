"""The unfactored root algebra against the per-factor reference.

Root sums are computed in one ring built on the whole root polynomial, and
polylog traces come from a linear recurrence.  These tests hold both to the
element-level route they replaced: factoring mod p, Hensel lifting, one
Galois ring per factor, and pounds() formed as a ring element.
"""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkksums import theorems as T
from rkksums.errors import NonUnitDenominator, NotAUnit
from rkksums.finlog import pounds
from rkksums import kernels
from rkksums.modring import GaloisRing, ModulusCtx, MonicPoly
from rkksums.polyfactor import (
    Degeneracy,
    classify_residue,
    double_root_cofactor,
    root_factor_set,
    split_double_root,
)
from rkksums.primes import odd_primes_in


@st.composite
def ring_elements(draw):
    """A random monic modulus of degree 1..6 (reducible ones included) and u.

    u is affine in c (a0 + b*c, the fast path) or a general element.
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
    ring, u = elements
    m = ring.ctx.modulus
    mat = kernels.mult_matrix(u.coeffs, ring.modpoly.coeffs, m)
    inverses = [pow(k, -1, m) for k in range(1, ring.degree + 1)]
    expected = kernels.fl_charpoly(mat, inverses, m)
    assert ring.charpoly(u).coeffs == tuple(expected)


AGGREGATES = {
    "sum_c_pow_p": lambda R, c, r, p: c ** p,
    "sum_one_minus_c_pow_p": lambda R, c, r, p: (R.one() - c) ** p,
    "sum_inv_c_pow_p": lambda R, c, r, p: c.inverse() ** p,
    "sum_one_minus_inv_c_pow_p": lambda R, c, r, p: (R.one() - c.inverse()) ** p,
    "sum_inv_one_minus_c_pow_p": lambda R, c, r, p: (R.one() - c).inverse() ** p,
    "sum_cp_over_cm1_p": lambda R, c, r, p: c ** p * (c - R.one()).inverse() ** p,
    "sum_pounds1": lambda R, c, r, p: pounds(1, c),
    "sum_pounds1_short": lambda R, c, r, p: (
        pounds(1, c) * (R.one() - c).inverse() ** p),
    "sum_pounds2_c": lambda R, c, r, p: pounds(2, c),
    "sum_pounds2_one_minus_c": lambda R, c, r, p: pounds(2, R.one() - c),
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
        rs = T.RootSums(r, x, p, e)
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


@pytest.mark.parametrize("e", [1, 2, 3])
def test_double_root_cofactor_trace_matches_per_factor_reference(e):
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
            expected = 0
            for f in factors.factors:
                R = GaloisRing(f)
                c = R.gen()
                q = (c - R.one()) * (R.scalar(r - 1) + c).inverse()
                expected += int((q * (c ** p + r * p * pounds(1, c))).trace())
            got = T._cofactor_trace(cofactor, r)
            assert got == expected % m, (r, p, e)
            non_split += any(f.degree > 1 for f in factors.factors)
    assert non_split > 20
