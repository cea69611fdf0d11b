"""Hot numeric kernels: modular sums and polynomial arithmetic on Python ints.

Every residue is a Python int in [0, mod), so no product can overflow and
the moduli the package accepts are bounded only by its input contract
(modring.MAX_MODULUS).  Polynomials are lists (or tuples) of coefficients,
lowest degree first, except in weighted_geometric_sum, which takes them
highest first (Horner order); quotient polynomials g are monic of length
m+1, and quotient-ring elements have m coefficients.

mulmod is the one product mod a monic polynomial: the root-sum sequences
use it through modring.jump, and the quotient-ring reference (GaloisRing's
products and powers) directly.  This is the one engine the package has,
reported as "numpy" by rkksums.engine().

poly_mulmod and weighted_powers_poly have no caller in the package.  They
stay only because the benchmark's layer list (perfbench/layers.py and
BENCHMARK.json) times them by name, and a missing name reads "absent"
there; they go when those layers are re-based on the sequences.
"""


def mulmod(a, b, chi, m):
    """a * b mod the monic chi, for a and b of deg(chi) coefficients each."""
    n = len(chi) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for i in range(2 * n - 2, n - 1, -1):
        top = prod[i] % m
        if top:
            for j in range(n):
                prod[i - n + j] -= top * chi[j]
    return [v % m for v in prod[:n]]


def poly_powmod(a, n, g, mod):
    out = [1 % mod] + [0] * (len(g) - 2)
    base = list(a)
    while n > 0:
        if n & 1:
            out = mulmod(out, base, g, mod)
        base = mulmod(base, base, g, mod)
        n >>= 1
    return out


def weighted_powers_scalar(t, w, mod):
    """sum_{k=1}^{len(w)} w[k-1] * t^k  (mod mod), by Horner's rule on ints."""
    acc = 0
    for wk in reversed(w):
        acc = (acc + wk) * t % mod
    return acc


def weighted_geometric_sum(coefs, x, lo, mod):
    """sum_{k=lo}^{hi-1} a_k * x^k  (mod mod), by Horner's rule.

    coefs holds a_(hi-1), ..., a_lo, with hi = lo + len(coefs): highest
    power first, in Horner order.
    """
    acc = 0
    for a in coefs:
        acc = (acc * x + a) % mod
    return acc * pow(x, lo, mod) % mod


def _shift_reduce(col, g, mod):
    """col * c reduced by the monic g, for col of deg(g) coefficients."""
    top = col[-1]
    col = [0] + col[:-1]
    if top:
        col = [(ci - top * gi) % mod for ci, gi in zip(col, g)]
    return col


def trace_mult(u, g, mod):
    """Trace of the multiplication-by-u operator on the basis 1, c, ..., c^(m-1)."""
    col = list(u)
    tr = col[0] % mod
    for j in range(1, len(g) - 1):
        col = _shift_reduce(col, g, mod)
        tr = (tr + col[j]) % mod
    return tr


def mult_matrix(u, g, mod):
    """Matrix of multiplication by u, as a list of rows; column j holds u * c^j reduced by g."""
    cols = [[ci % mod for ci in u]]
    for _ in range(1, len(g) - 1):
        cols.append(_shift_reduce(cols[-1], g, mod))
    return [list(row) for row in zip(*cols)]


def fl_charpoly(mat, inv_table, mod):
    """Characteristic polynomial by the Faddeev-LeVerrier scheme.

    mat is a list of rows.  inv_table[k-1] must hold the inverse of k mod
    `mod` for k = 1..m; these are the only divisions performed, which keeps
    the scheme valid when the modulus is a prime power.  Returns monic
    coefficients, lowest first.
    """
    m = len(mat)
    coeffs = [0] * m + [1 % mod]
    acc = [[int(i == j) % mod for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        an = [[sum(mat[i][l] * acc[l][j] for l in range(m)) % mod for j in range(m)]
              for i in range(m)]
        tr = sum(an[i][i] for i in range(m))
        ck = -tr * inv_table[k - 1] % mod
        coeffs[m - k] = ck
        for i in range(m):
            an[i][i] = (an[i][i] + ck) % mod
        acc = an
    return coeffs


# --- named by the benchmark's layer list only --------------------------------

def poly_mulmod(a, b, g, mod):
    """(a * b) reduced by the monic polynomial g: a quotient-ring product."""
    return mulmod(a, b, g, mod)


def weighted_powers_poly(u, w, g, mod):
    """sum_{k=1}^{len(w)} w[k-1] * u^k in the quotient ring by g."""
    m = len(g) - 1
    acc = [0] * m
    pw = [1 % mod] + [0] * (m - 1)
    for wk in w:
        pw = mulmod(pw, u, g, mod)
        if wk:
            acc = [(ai + wk * vi) % mod for ai, vi in zip(acc, pw)]
    return acc
