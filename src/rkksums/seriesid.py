"""Characteristic-zero verification of the formal series and polynomial identities.

Everything here is exact rational arithmetic: truncated power series over Q
for the generalized Catalan generating function and its logarithm, and
polynomials in Q[y] for the power-sum identities that feed the modular
brackets.  No floating point, no tolerances.
"""

import functools
import math
from fractions import Fraction
from types import MappingProxyType

MAX_SERIES_ORDER = 100
MAX_IDENTITY_N = 60


class SeriesQ:
    """Truncated power series over Q: coefficients 0..order inclusive."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        self.order = order
        cs = list(coeffs)[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.coeffs = [Fraction(c) for c in cs]

    @classmethod
    def zero(cls, order):
        return cls([], order)

    @classmethod
    def one(cls, order):
        return cls([1], order)

    @classmethod
    def x(cls, order):
        return cls([0, 1], order)

    def __add__(self, other):
        other = self._coerce(other)
        return SeriesQ(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __sub__(self, other):
        other = self._coerce(other)
        return SeriesQ(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __mul__(self, other):
        other = self._coerce(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return SeriesQ(out, n)

    def _coerce(self, other):
        if isinstance(other, SeriesQ):
            if other.order != self.order:
                raise ValueError("mixed truncation orders")
            return other
        return SeriesQ([other], self.order)

    def pow(self, k):
        out = SeriesQ.one(self.order)
        base = self
        while k > 0:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self):
        return SeriesQ(
            [i * self.coeffs[i] for i in range(1, self.order + 1)], self.order
        )

    def integral(self):
        """Antiderivative with zero constant term (order drops implicitly)."""
        out = [Fraction(0)] * (self.order + 1)
        for i in range(self.order):
            out[i + 1] = self.coeffs[i] / (i + 1)
        return SeriesQ(out, self.order)

    def inverse(self):
        """Multiplicative inverse; needs a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series has no inverse: zero constant term")
        inv0 = 1 / self.coeffs[0]
        out = [Fraction(0)] * (self.order + 1)
        out[0] = inv0
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                if self.coeffs[k]:
                    acc += self.coeffs[k] * out[n - k]
            out[n] = -inv0 * acc
        return SeriesQ(out, self.order)

    def log(self):
        """Formal log of a series with constant term 1, as integral of f'/f."""
        if self.coeffs[0] != 1:
            raise ValueError("formal log needs constant term 1")
        return (self.derivative() * self.inverse()).integral()

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"SeriesQ([{head}, ...], order={self.order})"


def fuss_catalan(r, order):
    """The series sum_k binom(rk+1,k)/(rk+1) x^k, the root of z = 1 + x z^r.

    The functional equation is not asserted here: fuss_catalan_residual
    measures it, and the series tag reports it as a row of its own.
    """
    if r < 1 or order < 1:
        raise ValueError("need r >= 1 and order >= 1")
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"order capped at {MAX_SERIES_ORDER}")
    return SeriesQ(
        [Fraction(math.comb(r * k + 1, k), r * k + 1) for k in range(order + 1)], order
    )


@functools.lru_cache(maxsize=32)
def fuss_catalan_residual(r, order):
    """Coefficients of B - (1 + x B^r); identically zero by construction."""
    series = fuss_catalan(r, order)
    return tuple((series - (SeriesQ.x(order) * series.pow(r) + 1)).coeffs)


def check_series_log_identity(r, order):
    """sum_k binom(rk,k) x^k / k == r * log(FussCatalan_r) through the given order."""
    b = fuss_catalan(r, order)
    rhs = b.log() * r
    lhs = SeriesQ(
        [Fraction(0)] + [Fraction(math.comb(r * k, k), k) for k in range(1, order + 1)],
        order,
    )
    return lhs == rhs


# --- polynomials in Q[y] -----------------------------------------------------

class PolyQ:
    """Dense polynomial over Q in the indeterminate y."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def y(cls):
        return cls([0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return PolyQ(out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return PolyQ([-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return PolyQ()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return PolyQ(out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, PolyQ):
            return other
        return PolyQ([other])

    def scale(self, k):
        return PolyQ([c * k for c in self.coeffs])

    def derivative(self):
        return PolyQ([i * self.coeffs[i] for i in range(1, len(self.coeffs))])

    def evaluate(self, v):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return self.coeffs == self._coerce(other).coeffs

    def __repr__(self):
        return f"PolyQ({self.coeffs})"


def power_sums(r, n):
    """Power sums s_k of the roots of prod(1 + c_i t) = (1+t)^r - yt, and ds_k/dy.

    Elementary symmetric functions read off directly: e_1 = r - y and
    e_j = binom(r, j) otherwise; Newton's identities then give s_k in Z[y].
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_IDENTITY_N:
        raise ValueError(f"n capped at {MAX_IDENTITY_N}")
    e = [PolyQ.const(math.comb(r, j)) for j in range(r + 1)]
    if r >= 1:
        e[1] = PolyQ([r, -1])
    s = [None] * (n + 1)
    for k in range(1, n + 1):
        acc = PolyQ()
        for j in range(1, min(k, r) + 1):
            term = e[j] * (s[k - j] if k - j >= 1 else PolyQ())
            acc = acc + (term if j % 2 == 1 else -term)
        if k <= r:
            ek_term = e[k].scale(k)
            acc = acc + (ek_term if k % 2 == 1 else -ek_term)
        s[k] = acc
    derivs = [None] + [s[k].derivative() for k in range(1, n + 1)]
    return s, derivs


@functools.lru_cache(maxsize=32)
def identity_sides(r, n):
    """LHS and RHS polynomials of the three binomial/power-sum identities.

    Returns a read-only mapping: key -> (lhs PolyQ, rhs PolyQ) for keys
    'id0', 'id1b', 'id2b'.  Cached, so the identities tag's verdict rows and
    its differentiation ladder build the polynomials once.
    """
    s, sprime = power_sums(r, n)
    lhs0 = PolyQ([Fraction(math.comb(r * k, k)) for k in range(n)][::-1])
    lhs1 = PolyQ()
    lhs2 = PolyQ()
    for k in range(n):
        coef = Fraction(math.comb(r * k, k))
        mono = [Fraction(0)] * (n - k + 1)
        mono[n - k] = coef / (n - k)
        lhs1 = lhs1 + PolyQ(mono)
        mono2 = [Fraction(0)] * (n - k + 1)
        mono2[n - k] = coef / (n - k) ** 2
        lhs2 = lhs2 + PolyQ(mono2)

    rhs0 = PolyQ()
    rhs1 = PolyQ()
    rhs2a = PolyQ()
    rhs2b = PolyQ()
    prefix = PolyQ()  # sum_{j<=k} (s_j - r)/j
    for k in range(1, n + 1):
        b = Fraction(math.comb(r * n, n - k))
        sign = Fraction(-1) if k % 2 == 1 else Fraction(1)
        sk_minus_r = s[k] - PolyQ.const(r)
        rhs0 = rhs0 + sprime[k].scale(b * sign / k)
        rhs1 = rhs1 + sk_minus_r.scale(b * sign / k)
        rhs2a = rhs2a + sk_minus_r.scale(b * sign / (k * k))
        prefix = prefix + sk_minus_r.scale(Fraction(1, k))
        rhs2b = rhs2b + prefix.scale(b * sign / k)
    rhs2 = rhs2a.scale(-(r - 1)) + rhs2b.scale(r)
    return MappingProxyType({"id0": (lhs0, rhs0), "id1b": (lhs1, rhs1), "id2b": (lhs2, rhs2)})


def check_identities(r, n):
    """Exact verdicts for id0, id1b, id2b in Q[y]."""
    sides = identity_sides(r, n)
    return {key: lhs == rhs for key, (lhs, rhs) in sides.items()}


def check_differentiation_ladder(r, n):
    """d/dy of the id2b RHS times y gives the id1b RHS; d/dy of id1b gives id0."""
    sides = identity_sides(r, n)
    _, rhs0 = sides["id0"]
    _, rhs1 = sides["id1b"]
    _, rhs2 = sides["id2b"]
    step1 = PolyQ.y() * rhs2.derivative() == rhs1
    step2 = rhs1.derivative() == rhs0
    return step1 and step2
