"""Per-checker tests: verdicts, skip behavior, and explicit-root cross-checks."""

import random
from fractions import Fraction

from helpers import naive_pounds, split_roots
from rkksums import theorems as T
from rkksums.finlog import fermat_quotient, pounds
from rkksums.modring import ModulusCtx
from rkksums.primes import odd_primes_in


def all_pass(reports):
    reports = reports if isinstance(reports, list) else [reports]
    bad = [r for r in reports if r.verdict == "fail"]
    assert not bad, bad
    return reports


def test_central_pol():
    all_pass(T.check_central_pol(Fraction(0), 11))
    [rep] = T.check_central_pol(Fraction(1, 4), 7)
    assert rep.verdict == "pass" and rep.lhs == 0  # (1-4x) = 0 branch
    rng = random.Random(0)
    for p in odd_primes_in(3, 300):
        for _ in range(20):
            all_pass(T.check_central_pol(Fraction(rng.randrange(p)), p))


def test_generic_checkers_skip_degenerate_x():
    [rep] = T.point_rows(["rkksuk"], 3, 7, Fraction(7))
    assert rep.verdict == "skip" and rep.reason == "DegenerateX:zero"
    [rep] = T.point_rows(["rkksuk"], 3, 11, Fraction(4, 27))
    assert rep.verdict == "skip" and rep.reason == "DegenerateX:x0"
    [rep] = T.point_rows(["rkkmod2"], 2, 13, Fraction(1, 4))
    assert rep.verdict == "skip" and rep.reason == "DegenerateX:x0"
    [rep] = T.point_rows(["rkksuk"], 3, 7, Fraction(1, 7))
    assert rep.verdict == "skip" and rep.reason == "DenominatorNotUnit"


def test_rkksuk_r1_is_reciprocal_log_identity():
    # r=1 reduces to pounds_1(x) = -x^p pounds_1(1/x) mod p
    for p in (7, 13):
        for xv in range(2, p):
            if xv == 1:
                continue
            [rep] = T.point_rows(["rkksuk"], 1, p, Fraction(xv))
            if rep.verdict == "skip":
                assert xv % p == 1
                continue
            assert rep.verdict == "pass"
            lhs = pounds(1, xv, ModulusCtx(p, 1))
            rhs = (-pow(xv, p, p)
                   * pounds(1, pow(xv, -1, p), ModulusCtx(p, 1))) % p
            assert lhs == rhs == rep.rhs


def test_root_sums_match_explicit_roots_when_split():
    # r=3, x=2, p=13 splits: roots 1/2, 1+i, 1-i = {7, 6, 9}
    p, e = 13, 2
    m = p ** e
    roots = split_roots(3, 2, p, e)
    assert roots is not None
    rs = T.root_sums(3, Fraction(2), p, e)
    assert rs.sum_c_pow_p == sum(pow(c, p, m) for c in roots) % m
    assert rs.sum_one_minus_c_pow_p == sum(pow(1 - c, p, m) for c in roots) % m
    assert rs.sum_pounds1 == sum(naive_pounds(1, c, p, m) for c in roots) % m
    assert rs.sum_rkk_long == sum(
        (c - pow(c, p, m)) * pow(2 + c, -1, m) for c in roots
    ) % m
    # elementary symmetric data: charpoly of (c/(c-1))^p against direct values
    ws = [pow(c * pow(c - 1, -1, m) % m, p, m) for c in roots]
    cp = rs.z_inverse_pow_p_charpoly
    assert cp[0] == (-1) ** 3 * ws[0] * ws[1] * ws[2] % m
    assert cp[2] == (-sum(ws)) % m


def test_all_root_sum_aggregates_match_explicit_roots():
    # every cached aggregate, including the inverse-laden ones, against
    # direct evaluation at Newton-lifted roots of split instances
    cases = 0
    for r, p, e in [(2, 11, 2), (2, 13, 3), (3, 13, 2), (4, 17, 1), (3, 31, 2)]:
        for xv in range(2, p):
            from rkksums.polyfactor import Degeneracy, classify_residue

            if classify_residue(r, xv, p) is not Degeneracy.NONDEGENERATE:
                continue
            roots = split_roots(r, xv, p, e)
            if roots is None:
                continue
            cases += 1
            m = p ** e
            rs = T.root_sums(r, Fraction(xv), p, e)

            def inv(v):
                return pow(v, -1, m)

            direct = {
                "sum_c_pow_p": sum(pow(c, p, m) for c in roots),
                "sum_one_minus_c_pow_p": sum(pow(1 - c, p, m) for c in roots),
                "sum_inv_c_pow_p": sum(pow(inv(c), p, m) for c in roots),
                "sum_one_minus_inv_c_pow_p": sum(
                    pow(1 - inv(c), p, m) for c in roots),
                "sum_inv_one_minus_c_pow_p": sum(
                    pow(inv(1 - c), p, m) for c in roots),
                "sum_cp_over_cm1_p": sum(
                    pow(c, p, m) * pow(inv(c - 1), p, m) for c in roots),
                "sum_pounds1": sum(naive_pounds(1, c, p, m) for c in roots),
                "sum_pounds1_short": sum(
                    naive_pounds(1, c, p, m) * pow(inv(1 - c), p, m)
                    for c in roots),
                "sum_pounds2_c": sum(naive_pounds(2, c, p, m) for c in roots),
                "sum_pounds2_one_minus_c": sum(
                    naive_pounds(2, 1 - c, p, m) for c in roots),
                "sum_rkk_long": sum(
                    (c - pow(c, p, m)) * inv(r - 1 + c) for c in roots),
                "sum_rkk_short": sum(
                    (c - pow(c, p, m)) * inv((1 - pow(c, p, m)) * (r - 1 + c))
                    for c in roots),
                "sum_mod2_full": sum(
                    (c - 1) * inv(r - 1 + c)
                    * (r - (r - 1) * pow(c, p, m) - r * pow(1 - c, p, m))
                    for c in roots),
                "sum_mod2_open": sum(
                    r * inv(r - 1 + c)
                    * (r - 1 - (r - 1) * pow(c, p, m) - r * pow(1 - c, p, m))
                    for c in roots),
            }
            for name, value in direct.items():
                assert getattr(rs, name) == value % m, (name, r, p, e, xv)
            if cases >= 12:
                return
    assert cases >= 5


def test_mystery_explicit_quadratic():
    # r=2, p=5, x=3: the root polynomial has roots {12, 23} mod 25
    p, m = 5, 25
    roots = split_roots(2, 3, p, 2)
    assert sorted(roots) == [12, 23]
    rs = T.root_sums(2, Fraction(3), p, 2)
    assert rs.sum_c_pow_p == sum(pow(c, p, m) for c in roots) % m
    reports = all_pass(T.point_rows(["mystery"], 2, p, Fraction(3)))
    lhs_direct = (sum(pow(c, p, m) for c in roots)
                  + 2 * sum(pow(1 - c, p, m) for c in roots)) % m
    assert reports[0].lhs == lhs_direct


def test_mystery_full_grid():
    rng = random.Random(1)
    for r in (2, 3, 4):
        for p in odd_primes_in(r + 1, 60):
            for _ in range(4):
                all_pass(T.point_rows(["mystery"], r, p, Fraction(rng.randrange(1, p))))


def test_lemma_technical_r1_skips():
    [rep] = T.point_rows(["lemma_technical"], 1, 7, Fraction(2))
    assert rep.verdict == "skip" and rep.reason == "RequiresRAtLeast2"


def test_rkkmod2_var_r1_skips():
    reps = T.point_rows(["rkkmod2_var"], 1, 7, Fraction(2))
    assert reps[0].verdict == "skip" and reps[0].reason == "RequiresRAtLeast2"


def test_rkkmod2_r1_exact_geometric():
    # r=1 closed range: sum_{0<=k<p} x^k, an exact geometric identity
    for p in (5, 11):
        for xv in (2, 3):
            [rep] = T.point_rows(["rkkmod2"], 1, p, Fraction(xv))
            assert rep.verdict == "pass"
            m = p * p
            geo = sum(pow(xv, k, m) for k in range(p)) % m
            assert rep.lhs == geo


def test_window_rows_aggregate_to_long_row():
    rng = random.Random(2)
    for r in (3, 4, 5):
        for p in odd_primes_in(r + 1, 40):
            xv = rng.randrange(1, p)
            x = Fraction(xv)
            rows = T.point_rows(["rkksuk_z"], r, p, x)
            if rows[0].verdict == "skip":
                continue
            all_pass(rows)
            [long_row] = T.point_rows(["rkksuk_long"], r, p, x)
            all_pass(long_row)
            m2 = p * p
            window_rows = [row for row in rows if row.theorem == "rkksuk_z"]
            assert sum(row.lhs for row in window_rows) % m2 == long_row.lhs
            assert sum(row.rhs for row in window_rows) % m2 == long_row.rhs


def test_mod_p_reductions_tie_theorem_families():
    rng = random.Random(3)
    for r in (2, 3, 4):
        for p in odd_primes_in(max(r + 1, 5), 50):
            xv = rng.randrange(1, p)
            x = Fraction(xv)
            main53 = T.point_rows(["rkksukmod2"], r, p, x)[-1]
            if main53.verdict == "skip":
                continue
            [rep41] = T.point_rows(["rkksuk"], r, p, x)
            all_pass([main53, rep41])
            assert main53.lhs % p == rep41.lhs

            [rep54] = T.point_rows(["rkkmod2"], r, p, x)
            rows44 = T.point_rows(["rkk"], r, p, x)
            all_pass([rep54, *rows44])
            # closed range = open range + the k=0 term, reduced mod p
            assert rep54.lhs % p == (rows44[0].lhs + 1) % p
            assert rep54.rhs % p == (rows44[0].rhs + 1) % p


def test_rkkmod2_cross_identity_value():
    rng = random.Random(4)
    for r in (2, 3, 5):
        for p in odd_primes_in(r + 1, 60):
            x = Fraction(rng.randrange(1, p))
            rows = T.point_rows(["rkkmod2_var"], r, p, x)
            if rows[0].verdict == "skip":
                continue
            cross = rows[1]
            assert cross.theorem == "rkkmod2_cross"
            assert cross.verdict == "pass"  # rhs_closed - rhs_open = 1 mod p^2


def test_rkkmod2_multiple_values():
    # r=3: 1/9 + (8/27) p (3 + q_p(2)) mod p^2, hence 1/9 mod p
    for p in (7, 11, 13, 31):
        [rep] = T.check_rkkmod2_multiple(3, p)
        assert rep.verdict == "pass"
        m2 = p * p
        q2 = fermat_quotient(2, p)
        expected = (pow(9, -1, m2)
                    + 8 * pow(27, -1, m2) * p * (3 + q2)) % m2
        assert rep.lhs == expected
        assert rep.lhs % p == pow(9, -1, p)
    # r=4 reduces mod p to 11/72 + (1/288)(-2|p)
    from rkksums.finlog import legendre

    for p in (7, 11, 17, 19):
        [rep] = T.check_rkkmod2_multiple(4, p)
        assert rep.verdict == "pass"
        expected = (11 * pow(72, -1, p) + pow(288, -1, p) * legendre(-2, p)) % p
        assert rep.lhs % p == expected


def test_cor_split_counts_match_direct_enumeration():
    # r=2: a splits iff 1 - 4a is a nonzero square; as a runs over the
    # admissible residues that count is exactly (p-3)/2
    from helpers import roots_mod_p, root_poly_coeffs

    for p in (11, 13, 101):
        reports = T.check_cor_split(2, p)
        assert all(r.verdict == "pass" for r in reports)
        count = len(reports) // 2
        direct = 0
        for a in range(1, p):
            if (1 - 4 * a) % p == 0:
                continue
            if len(roots_mod_p(root_poly_coeffs(2, a, p, 1), p)) == 2:
                direct += 1
        assert count == direct == (p - 3) // 2

    # r=3, p=13: brute-force enumeration of split residues
    reports = T.check_cor_split(3, 13)
    assert all(r.verdict == "pass" for r in reports)
    direct = sum(
        1 for a in range(1, 13)
        if 27 * a % 13 != 4
        and len(set(roots_mod_p(root_poly_coeffs(3, a, 13, 1), 13))) == 3
    )
    assert len(reports) // 2 == direct



def test_split_residues_match_the_frobenius_criterion():
    # the root count against c^p == c (mod f), the test cor_split made per residue
    from helpers import splits_by_frobenius
    from rkksums.polyfactor import Degeneracy, classify_residue

    for r in range(1, 7):
        for p in odd_primes_in(r + 1, 399):
            expected = [a for a in range(1, p)
                        if classify_residue(r, a, p) is Degeneracy.NONDEGENERATE
                        and splits_by_frobenius(r, a, p)]
            assert T.split_residues(r, p) == expected, (r, p)

def test_r3_beta_fixed_points():
    # beta = (1+i)/2 with i^2 = -1 gives c = 1/2, x = 2: the short form is
    # -3 q_p(2); beta and 1-beta produce identical values
    for p in (13, 17, 29):
        i_val = next(a for a in range(2, p) if a * a % p == p - 1)
        beta = (1 + i_val) * pow(2, -1, p) % p
        c = beta * (1 - beta) % p
        assert c == pow(2, -1, p)
        ctx = ModulusCtx(p, 1)
        l1b = pounds(1, beta, ctx)
        l1b2 = pounds(1, (1 - beta) % p, ctx)
        assert l1b == l1b2
        q2 = fermat_quotient(2, p)
        # pounds_1((1+i)/2) = q_p(2)/2 and pounds_1(1/2) = q_p(2), so the
        # short-form right-hand side is -(3/2) q_p(2); multiplying by the
        # unit (1-c)^-p = 2 recovers the displayed value -3 q_p(2)
        assert l1b == q2 * pow(2, -1, p) % p
        rhs_short = (3 * l1b - 3 * pounds(1, c, ctx)) % p
        assert rhs_short == (-3 * q2 * pow(2, -1, p)) % p
        assert 2 * rhs_short % p == (-3 * q2) % p


def test_r3_beta_sweep():
    # p=7 is all-degenerate: every c = beta(1-beta) lands on x in {0, x0}
    reports = T.check_r3_beta(7, sample_count=6, seed=5)
    assert not [r for r in reports if r.verdict == "fail"]
    for p in (13, 31, 53):
        reports = T.check_r3_beta(p, sample_count=6, seed=5)
        assert not [r for r in reports if r.verdict == "fail"]
        assert any(r.verdict == "pass" for r in reports)


def test_numerics_table_small_primes():
    for p in (5, 7, 11, 13, 29):
        reports = T.check_numerics_table(p)
        bad = [r for r in reports if r.verdict == "fail"]
        assert not bad, bad
        if p == 5:
            skipped = {r.theorem for r in reports if r.verdict == "skip"}
            assert skipped == {
                "num_r3_x2_k0_sq", "num_r3_x18_k1",
                "num_r3_x18_short", "num_r3_x18_k0_sq",
            }


def test_rkk_short_form_only_for_r_at_least_2():
    rows = T.point_rows(["rkk"], 1, 7, Fraction(3))
    assert [row.theorem for row in rows] == ["rkk_long"]
