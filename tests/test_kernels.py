"""Differential tests: kernels against naive references."""

import random

from rkksums import kernels


def ref_poly_mulmod(a, b, g, mod):
    m = len(g) - 1
    prod = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            prod[i + j] = (prod[i + j] + int(a[i]) * int(b[j])) % mod
    for i in range(2 * m - 2, m - 1, -1):
        top = prod[i]
        prod[i] = 0
        for j in range(m):
            prod[i - m + j] = (prod[i - m + j] - top * int(g[j])) % mod
    return prod[:m]


def random_monic(rng, m, mod):
    return [rng.randrange(mod) for _ in range(m)] + [1]


def test_poly_mulmod_against_reference():
    rng = random.Random(2)
    for _ in range(100):
        mod = rng.choice([7, 11 ** 2, 13 ** 3])
        m = rng.randrange(1, 7)
        g = random_monic(rng, m, mod)
        a = [rng.randrange(mod) for _ in range(m)]
        b = [rng.randrange(mod) for _ in range(m)]
        got = kernels.mulmod(a, b, g, mod)
        assert list(got) == ref_poly_mulmod(a, b, g, mod)


def test_poly_powmod_is_iterated_mul():
    rng = random.Random(3)
    for _ in range(30):
        mod = 11 ** 2
        m = rng.randrange(1, 5)
        g = random_monic(rng, m, mod)
        a = [rng.randrange(mod) for _ in range(m)]
        n = rng.randrange(1, 30)
        acc = [1] + [0] * (m - 1)
        for _ in range(n):
            acc = kernels.mulmod(acc, a, g, mod)
        assert list(kernels.poly_powmod(a, n, g, mod)) == list(acc)


def test_kernels_kept_for_the_benchmark_agree_with_the_reference():
    # poly_mulmod and weighted_powers_poly have no caller in the package, but
    # the benchmark's layer list still times them by name
    rng = random.Random(8)
    for _ in range(30):
        mod = rng.choice([7, 11 ** 2])
        m = rng.randrange(1, 5)
        g = random_monic(rng, m, mod)
        u = [rng.randrange(mod) for _ in range(m)]
        w = [rng.randrange(mod) for _ in range(6)]
        assert kernels.poly_mulmod(u, u, g, mod) == ref_poly_mulmod(u, u, g, mod)
        acc, power = [0] * m, [1] + [0] * (m - 1)
        for wk in w:
            power = ref_poly_mulmod(power, u, g, mod)
            acc = [(a + wk * v) % mod for a, v in zip(acc, power)]
        assert kernels.weighted_powers_poly(u, w, g, mod) == acc


def test_weighted_powers_scalar_direct():
    mod = 13
    w = [pow(k, -1, mod) for k in range(1, mod)]
    t = 5
    expected = sum(pow(t, k, mod) * w[k - 1] for k in range(1, mod)) % mod
    assert kernels.weighted_powers_scalar(t, w, mod) == expected


def test_weighted_geometric_sum_direct():
    rng = random.Random(4)
    mod = 7 ** 2
    coefs = [rng.randrange(mod) for _ in range(20)]
    w = [rng.randrange(mod) for _ in range(20)]
    xs = [11, 0, 1, mod - 1]
    lo, hi = 3, 17
    expected = [sum(
        coefs[k] * w[k] * pow(x, k, mod) for k in range(lo, hi)
    ) % mod for x in xs]
    horner = [coefs[k] * w[k] % mod for k in reversed(range(lo, hi))]
    assert [kernels.weighted_geometric_sum(horner, x, lo, mod) for x in xs] == expected


def test_trace_is_matrix_diagonal():
    rng = random.Random(5)
    for _ in range(50):
        mod = rng.choice([7, 5 ** 3])
        m = rng.randrange(1, 6)
        g = random_monic(rng, m, mod)
        u = [rng.randrange(mod) for _ in range(m)]
        mat = kernels.mult_matrix(u, g, mod)
        assert kernels.trace_mult(u, g, mod) == sum(mat[i][i] for i in range(m)) % mod


def _c_power(j, m, g, mod):
    c = [0] * m
    if m == 1:
        c[0] = (-g[0]) % mod
    else:
        c[1] = 1
    return kernels.poly_powmod(c, j, g, mod)


def test_mult_matrix_columns():
    # column j of the matrix is u * c^j reduced by g
    rng = random.Random(6)
    mod = 13 ** 2
    m = 4
    g = random_monic(rng, m, mod)
    u = [rng.randrange(mod) for _ in range(m)]
    mat = kernels.mult_matrix(u, g, mod)
    for j in range(m):
        expected = kernels.mulmod(u, _c_power(j, m, g, mod), g, mod)
        assert [row[j] for row in mat] == list(expected)


def test_fl_charpoly_against_cofactor_expansion():
    # polynomials in T are integer coefficient lists, lowest degree first
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def poly_add(a, b, sign):
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        return [ai + sign * bi for ai, bi in zip(a, b)]

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = [0]
        for j in range(len(rows)):
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total = poly_add(total, poly_mul(rows[0][j], det(minor)), (-1) ** j)
        return total

    rng = random.Random(7)
    for _ in range(20):
        mod = rng.choice([11, 7 ** 2, 5 ** 3])
        m = rng.randrange(1, 5)
        mat = [[rng.randrange(mod) for _ in range(m)] for _ in range(m)]

        # char poly = det(T*I - M) over Z, reduced mod `mod`
        t_poly = [[[(-mat[i][j]) % mod, 1] if i == j else [(-mat[i][j]) % mod]
                   for j in range(m)] for i in range(m)]
        exact = det(t_poly)
        coeffs = [c % mod for c in exact] + [0] * (m + 1 - len(exact))

        inv_table = [pow(k, -1, mod) for k in range(1, m + 1)]
        got = kernels.fl_charpoly(mat, inv_table, mod)
        assert list(got) == coeffs[: m + 1]
