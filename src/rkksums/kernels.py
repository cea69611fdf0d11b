"""Hot numeric kernels: modular sums and polynomial arithmetic.

Every residue lives in [0, mod) with mod*(mod+1) < 2**63, so a product of two
residues plus a residue never overflows a signed 64-bit integer and every
intermediate is reduced before the next multiplication.  Polynomials are
coefficient arrays, lowest degree first; quotient polynomials g are monic of
length m+1.

The kernels are plain Python loops.  A scalar kernel loops over Python ints;
the quotient-ring kernels loop over NumPy int64 arrays, and
weighted_geometric_sum runs its one loop on a whole int64 array of x values
at once.  This is the one engine the package has, reported as "numpy" by
rkksums.engine().
"""

import numpy as np


def poly_mulmod(a, b, g, mod):
    """(a * b) reduced by the monic polynomial g, coefficients mod `mod`."""
    m = g.shape[0] - 1
    prod = np.zeros(2 * m - 1, dtype=np.int64)
    for i in range(m):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(m):
            prod[i + j] = (prod[i + j] + ai * b[j]) % mod
    for i in range(2 * m - 2, m - 1, -1):
        top = prod[i]
        if top == 0:
            continue
        prod[i] = 0
        for j in range(m):
            prod[i - m + j] = (prod[i - m + j] - top * g[j]) % mod
    return prod[:m].copy()


def poly_powmod(a, n, g, mod):
    m = g.shape[0] - 1
    out = np.zeros(m, dtype=np.int64)
    out[0] = 1 % mod
    base = a.copy()
    while n > 0:
        if n & 1:
            out = poly_mulmod(out, base, g, mod)
        base = poly_mulmod(base, base, g, mod)
        n >>= 1
    return out


def weighted_powers_scalar(t, w, mod):
    """sum_{k=1}^{len(w)} w[k-1] * t^k  (mod mod), by Horner's rule on ints."""
    acc = 0
    for wk in reversed(w):
        acc = (acc + wk) * t % mod
    return acc


def weighted_powers_poly(u, w, g, mod):
    """sum_{k=1}^{len(w)} w[k-1] * u^k in the quotient ring by g."""
    m = g.shape[0] - 1
    acc = np.zeros(m, dtype=np.int64)
    pw = np.zeros(m, dtype=np.int64)
    pw[0] = 1 % mod
    for k in range(w.shape[0]):
        pw = poly_mulmod(pw, u, g, mod)
        wk = w[k]
        if wk == 0:
            continue
        for i in range(m):
            acc[i] = (acc[i] + wk * pw[i]) % mod
    return acc


def weighted_geometric_sum(coefs, w, x, lo, hi, mod):
    """sum_{k=lo}^{hi-1} coefs[k] * w[k] * x^k  (mod mod), by Horner's rule.

    x is a residue, either an int or a 1-D int64 array of residues; the
    result has its type and shape.  An int x is summed in Python ints; an
    array is summed for every entry at once, reduced after every
    multiply-add, which stays below mod*(mod-1).
    """
    acc = x * 0
    for t in reversed((coefs[lo:hi] * w[lo:hi] % mod).tolist()):
        acc = (acc * x + t) % mod
    # times x^lo, by squaring
    while lo:
        if lo & 1:
            acc = acc * x % mod
        x = x * x % mod
        lo >>= 1
    return acc


def trace_mult(u, g, mod):
    """Trace of the multiplication-by-u operator on the basis 1, c, ..., c^(m-1)."""
    m = g.shape[0] - 1
    col = u.copy()
    tr = col[0] % mod
    for j in range(1, m):
        top = col[m - 1]
        for i in range(m - 1, 0, -1):
            col[i] = col[i - 1]
        col[0] = 0
        if top != 0:
            for i in range(m):
                col[i] = (col[i] - top * g[i]) % mod
        tr = (tr + col[j]) % mod
    return tr


def mult_matrix(u, g, mod):
    """Matrix of multiplication by u; column j holds u * c^j reduced by g."""
    m = g.shape[0] - 1
    mat = np.zeros((m, m), dtype=np.int64)
    col = u.copy()
    for i in range(m):
        mat[i, 0] = col[i] % mod
    for j in range(1, m):
        top = col[m - 1]
        for i in range(m - 1, 0, -1):
            col[i] = col[i - 1]
        col[0] = 0
        if top != 0:
            for i in range(m):
                col[i] = (col[i] - top * g[i]) % mod
        for i in range(m):
            mat[i, j] = col[i]
    return mat


def fl_charpoly(mat, inv_table, mod):
    """Characteristic polynomial by the Faddeev-LeVerrier scheme.

    inv_table[k-1] must hold the inverse of k mod `mod` for k = 1..m; these
    are the only divisions performed, which keeps the scheme valid when the
    modulus is a prime power.  Returns monic coefficients, lowest first.
    """
    m = mat.shape[0]
    coeffs = np.zeros(m + 1, dtype=np.int64)
    coeffs[m] = 1 % mod
    acc = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        acc[i, i] = 1 % mod
    for k in range(1, m + 1):
        an = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            for l in range(m):
                a_il = mat[i, l]
                if a_il == 0:
                    continue
                for j in range(m):
                    an[i, j] = (an[i, j] + a_il * acc[l, j]) % mod
        tr = 0
        for i in range(m):
            tr = (tr + an[i, i]) % mod
        ck = (-tr * inv_table[k - 1]) % mod
        coeffs[m - k] = ck
        for i in range(m):
            an[i, i] = (an[i, i] + ck) % mod
        acc = an
    return coeffs
