"""Tests for the exact series and polynomial-identity module."""

from fractions import Fraction

import pytest

from rkksums.seriesid import (
    check_differentiation_ladder,
    check_identities,
    check_series_log_identity,
    fuss_catalan,
    fuss_catalan_residual,
    identity_sides,
    power_sums,
)


def evaluate(coeffs, v):
    """A coefficient list, lowest degree first, evaluated at v by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def test_fuss_catalan_families():
    catalan = fuss_catalan(2, 8)
    assert catalan[:6] == [1, 1, 2, 5, 14, 42]
    geometric = fuss_catalan(1, 8)
    assert geometric == [1] * 9
    assert fuss_catalan(3, 5)[2] == 3  # binom(7,2)/7


def test_fuss_catalan_residual_is_zero():
    for r in (1, 2, 3, 4, 5):
        assert all(c == 0 for c in fuss_catalan_residual(r, 30))


def test_series_log_identity():
    assert check_series_log_identity(2, 60)
    assert check_series_log_identity(5, 40)
    assert check_series_log_identity(1, 25)


def test_power_sums_base_cases():
    s, sp = power_sums(2, 4)
    assert s[1] == [2, -1]              # s_1 = r - y
    assert s[2] == [2, -4, 1]           # s_2 = y^2 - 4y + 2
    assert sp[1] == [-1]
    # y = 0 means all roots are 1, so s_k = r
    for r in (1, 2, 3, 5):
        s_r, _ = power_sums(r, 6)
        for k in range(1, 7):
            assert evaluate(s_r[k], 0) == r


def test_identity_smallest_case():
    sides = identity_sides(4, 1)
    lhs0, rhs0 = sides["id0"]
    assert lhs0 == rhs0 == (1,)


def test_identities_exact():
    for r in (1, 2, 3):
        assert all(check_identities(r, 12).values())
    assert all(check_identities(4, 30).values())
    assert all(check_identities(5, 20).values())


def test_differentiation_ladder():
    for r in (1, 2, 3, 4):
        assert check_differentiation_ladder(r, 10)


def test_identity_caps():
    with pytest.raises(ValueError):
        power_sums(3, 61)
    with pytest.raises(ValueError):
        fuss_catalan(3, 101)


def test_power_sum_shadow_matches_trace_path():
    # s_p(1/x) is the exact sum of c_i^p over the global roots; reducing it
    # mod p^3 must agree with the Galois-ring trace route
    from rkksums import theorems
    from helpers import rational_mod

    for p in (7, 11, 13):
        s, _ = power_sums(3, p)
        for xv in (2, 3, 5):
            if xv % p == 0:
                continue
            from rkksums.polyfactor import Degeneracy, classify_residue

            if classify_residue(3, xv, p) is not Degeneracy.NONDEGENERATE:
                continue
            exact = evaluate(s[p], Fraction(1, xv))
            rs = theorems.root_sums(3, Fraction(xv), p, 3)
            assert rational_mod(exact, p ** 3) == rs.sum_c_pow_p


def test_newton_identities_against_explicit_roots():
    # pick r=2: the two roots of (1+t)^2 - yt are computable via the quadratic
    # formula in a field extension; compare s_k numerically over Q(sqrt(d))
    s, _ = power_sums(2, 8)
    y = Fraction(9, 4)  # discriminant (y-4)y = -63/16, irrational sqrt
    # c1 + c2 = 2 - y, c1 c2 = 1 -> s_k via the linear recurrence
    # s_k = (2-y) s_{k-1} - s_{k-2}
    sk = [Fraction(2), Fraction(2) - y]
    for k in range(2, 9):
        sk.append((Fraction(2) - y) * sk[k - 1] - sk[k - 2])
    for k in range(1, 9):
        assert evaluate(s[k], y) == sk[k]
