"""Acceptance suite: one test per criterion, every congruence an exact equality.

Each test sweeps its full stated grid and prints a single pass line on
success; any failed residue comparison aborts with the offending report.
"""

import random
from fractions import Fraction

from helpers import naive_pounds, split_roots
from rkksums import theorems as T
from rkksums.finlog import (
    check_functional_equations,
    fermat_quotient,
    legendre,
    pounds,
)
from rkksums.modring import ModulusCtx
from rkksums.polyfactor import Degeneracy, build_root_poly, classify_residue
from rkksums.polyfactor import root_factor_set
from rkksums.primes import odd_primes_in
from rkksums.seriesid import (
    check_differentiation_ladder,
    check_identities,
    check_series_log_identity,
    fuss_catalan_residual,
)


def draw_x(r, p, count, seed=0):
    """Random nondegenerate units mod p, drawn with replacement."""
    rng = random.Random(f"acceptance|{seed}|{r}|{p}")
    out = []
    for _ in range(count):
        while True:
            a = rng.randrange(1, p)
            if classify_residue(r, a, p) is Degeneracy.NONDEGENERATE:
                out.append(Fraction(a))
                break
    return out


def assert_all_pass(reports, context=""):
    reports = reports if isinstance(reports, list) else [reports]
    for rep in reports:
        assert rep.verdict == "pass", f"{context}: {rep}"
    return reports


def test_criterion_1_mod_p_theorems():
    checks = 0
    for r in range(1, 7):
        for p in odd_primes_in(r + 1, 300):
            for x in draw_x(r, p, 20):
                assert_all_pass(T.point_rows(["rkksuk"], r, p, x), "rkksuk")
                assert_all_pass(T.point_rows(["rkksuk_short"], r, p, x), "rkksuk_short")
                rows = assert_all_pass(T.point_rows(["rkk"], r, p, x), "rkk")
                checks += 2 + len(rows)
                if r >= 2:
                    assert len(rows) == 2  # the short form must not skip
    print(f"[acceptance] criterion 1: PASS ({checks} checks)")


def test_criterion_2_window_congruences():
    checks = 0
    for r in range(2, 6):
        for p in odd_primes_in(r + 1, 200):
            for x in draw_x(r, p, 10):
                rows = assert_all_pass(T.point_rows(["rkksuk_z"], r, p, x), "rkksuk_z")
                long_row = assert_all_pass(T.point_rows(["rkksuk_long"], r, p, x), "long")[0]
                window = [row for row in rows if row.theorem == "rkksuk_z"]
                assert len(window) == r - 1
                m2 = p * p
                assert sum(row.lhs for row in window) % m2 == long_row.lhs
                assert sum(row.rhs for row in window) % m2 == long_row.rhs
                checks += len(rows) + 1
    print(f"[acceptance] criterion 2: PASS ({checks} checks)")


def test_criterion_3_mod_p2_theorems():
    checks = 0
    for r in range(1, 6):
        for p in odd_primes_in(max(3, r) + 1, 200):
            for x in draw_x(r, p, 10):
                rows52 = assert_all_pass(T.point_rows(["rkksukk"], r, p, x), "rkksukk")
                assert {row.theorem for row in rows52} == {"rkksukk_cert", "rkksukk"}
                rows53 = assert_all_pass(T.point_rows(["rkksukmod2"], r, p, x), "rkksukmod2")
                assert {row.theorem for row in rows53} == {
                    "rkksukmod2_cert", "rkksukmod2"}
                assert_all_pass(T.point_rows(["rkkmod2"], r, p, x), "rkkmod2")
                checks += len(rows52) + len(rows53) + 1
                if r >= 2:
                    rows55 = assert_all_pass(T.point_rows(["rkkmod2_var"], r, p, x), "rkkmod2_var")
                    cross = [row for row in rows55
                             if row.theorem == "rkkmod2_cross"]
                    assert len(cross) == 1  # rhs(closed range) - rhs(open range) == 1 mod p^2
                    checks += len(rows55)
    print(f"[acceptance] criterion 3: PASS ({checks} checks)")


def test_criterion_4_double_root_value():
    checks = 0
    for r in (2, 3, 4, 5):
        for p in odd_primes_in(7, 300):
            if r * (r - 1) % p == 0:
                continue
            rep = assert_all_pass(T.check_rkkmod2_multiple(r, p), "rkkmod2_multiple")[0]
            checks += 1
            m2 = p * p
            if r == 3:
                q2 = fermat_quotient(2, p)
                expected = (pow(9, -1, m2)
                            + 8 * pow(27, -1, m2) * p * (3 + q2)) % m2
                assert rep.lhs == expected
            if r == 4:
                expected = (11 * pow(72, -1, p)
                            + pow(288, -1, p) * legendre(-2, p)) % p
                assert rep.lhs % p == expected
    print(f"[acceptance] criterion 4: PASS ({checks} checks)")


def test_criterion_5_numerics_table():
    checks = 0
    for p in odd_primes_in(5, 300):
        for rep in T.check_numerics_table(p):
            if rep.verdict == "skip":
                assert p == 5 and rep.reason == "ExcludedPrime", rep
                continue
            assert rep.verdict == "pass", rep
            checks += 1
    print(f"[acceptance] criterion 5: PASS ({checks} checks)")


def test_criterion_6_split_scan():
    checks = 0
    for r in (2, 3):
        for p in odd_primes_in(r + 1, 150):
            reports = T.check_cor_split(r, p)
            assert_all_pass(reports, f"cor_split r={r} p={p}")
            checks += len(reports)
    print(f"[acceptance] criterion 6: PASS ({checks} checks)")


def test_criterion_7_lemma_and_remark():
    checks = 0
    for r in range(2, 6):
        for p in odd_primes_in(r + 1, 200):
            for x in draw_x(r, p, 10):
                assert_all_pass(T.point_rows(["lemma_technical"], r, p, x), "lemma_technical")
                rows = assert_all_pass(T.point_rows(["mystery"], r, p, x), "mystery")
                assert {row.theorem for row in rows} == {"mystery_a", "mystery_b"}
                checks += 1 + len(rows)
    print(f"[acceptance] criterion 7: PASS ({checks} checks)")


def test_criterion_8_series_suite():
    for r in range(1, 6):
        assert all(c == 0 for c in fuss_catalan_residual(r, 60))
        assert check_series_log_identity(r, 60)
        verdicts = check_identities(r, 40)
        assert all(verdicts.values()), (r, verdicts)
        assert check_differentiation_ladder(r, 40)
    print("[acceptance] criterion 8: PASS (series order 60, identities n=40)")


def test_criterion_9_infrastructure():
    # trace path vs explicit lifted roots on split instances
    split_cases = 0
    for r in (2, 3):
        for p in odd_primes_in(r + 1, 60):
            for x in draw_x(r, p, 3, seed=9):
                for e in (1, 2, 3):
                    roots = split_roots(r, x, p, e)
                    if roots is None:
                        continue
                    split_cases += 1
                    m = p ** e
                    rs = T.root_sums(r, x, p, e)
                    assert rs.sum_c_pow_p == sum(pow(c, p, m) for c in roots) % m
                    assert rs.sum_pounds1 == sum(
                        naive_pounds(1, c, p, m) for c in roots) % m
    assert split_cases > 50

    # Hensel product certificates
    hensel_cases = 0
    rng = random.Random(99)
    for _ in range(100):
        p = rng.choice(odd_primes_in(5, 60))
        r = rng.randrange(2, min(p, 7))
        e = rng.randrange(1, 4)
        xv = rng.randrange(1, p)
        if classify_residue(r, xv, p) is not Degeneracy.NONDEGENERATE:
            continue
        ctx = ModulusCtx(p, e)
        f = build_root_poly(r, Fraction(xv), ctx)
        fs = root_factor_set(r, Fraction(xv), ctx)
        assert fs.product().coeffs == f.coeffs
        hensel_cases += 1
    assert hensel_cases > 50

    # symmetric-function identities through traces
    for r in (2, 3, 4, 5):
        for p in odd_primes_in(r + 1, 60):
            for x in draw_x(r, p, 2, seed=10):
                for e in (1, 2):
                    ctx = ModulusCtx(p, e)
                    m = ctx.modulus
                    rs = T.root_sums(r, x, p, e)
                    xv = x.numerator % m
                    sum_c = rs.trace_sum(lambda R: R.gen())
                    assert sum_c == (r - pow(xv, -1, m)) % m
                    sum_inv_1mc = rs.trace_sum(
                        lambda R: (R.one() - R.gen()).inverse())
                    assert sum_inv_1mc == (r - 1) % m
                    sum_inv_shift = rs.trace_sum(
                        lambda R: (R.scalar(r - 1) + R.gen()).inverse())
                    assert sum_inv_shift == 1 % m
                    prod_c = 1
                    for ring in rs.rings:
                        const = ring.charpoly(ring.gen()).coeffs[0]
                        prod_c = prod_c * (-1) ** ring.degree * const % m
                    assert prod_c == 1 % m

    # finite-polylog functional equations and Wolstenholme sweeps
    for p in odd_primes_in(5, 120):
        reports = check_functional_equations(p, sample_count=4, seed=11)
        bad = [rep for rep in reports if rep.verdict != "pass"]
        assert not bad, bad
    for p in odd_primes_in(5, 300):
        assert pounds(1, 1, ModulusCtx(p, 2)) == 0
        assert pounds(2, 1, ModulusCtx(p, 1)) == 0
    print("[acceptance] criterion 9: PASS")
