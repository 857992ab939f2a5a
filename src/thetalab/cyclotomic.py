"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored in the power basis 1, z, ..., z^(phi(m)-1) reduced
modulo the m-th cyclotomic polynomial, as one integer vector over one
common denominator: the element is sum(num[d] * z^d) / den with den > 0
and gcd(den, *num) == 1 (zero is num = (0, ...), den = 1).  Equal
elements of one order therefore have equal (num, den), and products and
sums are integer vector operations.  The inverse is integer arithmetic
too: the product P of the other Galois conjugates of x, divided by the
rational norm x * P.  Series and matrices store their coefficients in
the same layout, and `field_scalar` is the one rule that reads such a
stored element back: a Fraction for a rational value, else a
CyclotomicNumber.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial.

    Computed by dividing x^m - 1 by Phi_d for each proper divisor d of m,
    in place: every Phi_d is monic with integer coefficients, and every
    quotient is exact.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    p = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            div = cyclotomic_polynomial(d)
            k = len(div) - 1
            # from the top down, p[i] is the quotient's coefficient of x^(i-k)
            for i in range(len(p) - 1, k - 1, -1):
                c = p[i]
                if c:
                    for j in range(k):
                        p[i - k + j] -= c * div[j]
            p = p[k:]
    return tuple(p)


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Reductions of z^d for d = 0..m-1 modulo Phi_m.

    Row d lists the nonzero (index, coefficient) pairs of z^d in the power
    basis; the coefficients are integers because Phi_m is monic.  Since
    z^m = 1, z^d reduces through row d % m for every d >= 0.
    """
    phi = euler_phi(m)
    poly = cyclotomic_polynomial(m)
    # z^phi = -(poly[0] + ... + poly[phi-1] z^(phi-1))
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(m):
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
        top = cur[phi - 1]
        cur = [0] + cur[: phi - 1]
        if top:
            for j in range(phi):
                cur[j] -= top * poly[j]
    return tuple(rows)


def reduce_vector(m: int, vec: list) -> list:
    """The power-basis vector of sum(vec[d] * z^d) modulo Phi_m."""
    phi = euler_phi(m)
    if len(vec) <= phi:
        return vec + [0] * (phi - len(vec))
    table = _power_table(m)
    out = vec[:phi]
    for d in range(phi, len(vec)):
        c = vec[d]
        if c:
            for j, r in table[d % m]:
                out[j] += c * r
    return out


def reduce_vectors(m: int, flat: list, stride: int):
    """The power-basis vectors modulo Phi_m, as tuples, of the polynomials
    sum(flat[i * stride + d] * z^d) over d < stride, one for each i; the
    reduction works on whole columns d."""
    phi = euler_phi(m)
    cols = [flat[d::stride] for d in range(stride)]
    table = _power_table(m)
    for d in range(phi, stride):
        for j, r in table[d % m]:
            cols[j] = [x + r * y for x, y in zip(cols[j], cols[d])]
    return zip(*cols[:phi])


def embed_vector(order: int, num, m: int) -> list:
    """The power-basis vector, in order m, of the element with vector num
    in order `order`; m is a multiple of order."""
    if m == order:
        return list(num)
    step = m // order
    vec = [0] * (step * (len(num) - 1) + 1)
    vec[::step] = num
    return reduce_vector(m, vec)


def prime_factors(n: int) -> list[tuple[int, int]]:
    """The factorization of n >= 1 as (prime, exponent) pairs, primes increasing."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _mobius(n: int) -> int:
    factors = prime_factors(n)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


@lru_cache(maxsize=None)
def _trace_weights(m: int) -> tuple[tuple[int, ...], int]:
    """Integer weights w and scale s with Tr(z^d) / phi(m) = w[d] / s.

    Tr(zeta_m^d) is the Ramanujan sum mu(n) * phi(m) / phi(n) with
    n = m / gcd(d, m), so the normalised trace of z^d is mu(n) / phi(n).
    """
    ns = [m // gcd(d, m) for d in range(euler_phi(m))]
    scale = lcm(*(euler_phi(n) for n in ns))
    return tuple(_mobius(n) * (scale // euler_phi(n)) for n in ns), scale


def _make(order: int, num, den: int) -> "CyclotomicNumber":
    """The element num / den of Q(zeta_order); num is reduced, den > 0."""
    x = object.__new__(CyclotomicNumber)
    x._set(order, num, den)
    return x


class CyclotomicNumber:
    """An element of Q(zeta_m) in canonical reduced form."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        """The element sum(coeffs[d] * z^d) for int or Fraction coeffs of any length."""
        cs = [_as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set(order, reduce_vector(order, [c.numerator * (den // c.denominator) for c in cs]), den)

    def _set(self, order: int, num, den: int) -> None:
        """Store num / den in lowest terms; zero gets den = 1."""
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        self.order = order
        self.num = tuple(num)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(x, order: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber(order, [_as_fraction(x)])

    # -- order manipulation -------------------------------------------

    def to_order(self, m: int) -> "CyclotomicNumber":
        """The same element written in order m, a multiple of self.order
        (an embedding into Q(zeta_m))."""
        if m == self.order:
            return self
        if m % self.order:
            raise ValueError(f"cannot embed order {self.order} into {m}")
        return _make(m, embed_vector(self.order, self.num, m), self.den)

    @staticmethod
    def _aligned(a: "CyclotomicNumber", b) -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        if isinstance(b, (int, Fraction)):
            b = CyclotomicNumber.from_rational(b, 1)
        if not isinstance(b, CyclotomicNumber):
            raise TypeError(f"cannot combine CyclotomicNumber with {type(b).__name__}")
        if a.order == b.order:
            return a, b
        m = lcm(a.order, b.order)
        return a.to_order(m), b.to_order(m)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        a, b = self._aligned(self, other)
        g = gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        return _make(a.order, [x * fa + y * fb for x, y in zip(a.num, b.num)], a.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, CyclotomicNumber) else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return _make(self.order, [x * f.numerator for x in self.num], self.den * f.denominator)
        a, b = self._aligned(self, other)
        bterms = [(j, y) for j, y in enumerate(b.num) if y]
        prod = [0] * (2 * len(a.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in bterms:
                    prod[i + j] += x * y
        return _make(a.order, reduce_vector(a.order, prod), a.den * b.den)

    __rmul__ = __mul__

    def _conjugate(self, k: int) -> "CyclotomicNumber":
        """sigma_k(self), the image under z -> z^k for k prime to the order."""
        m = self.order
        vec = [0] * m
        for d, x in enumerate(self.num):
            vec[d * k % m] = x
        return _make(m, reduce_vector(m, vec), self.den)

    def inverse(self) -> "CyclotomicNumber":
        """Exact inverse by the norm: the product P of the conjugates
        sigma_k(self), k prime to the order and k != 1, over the rational
        norm self * P.  The complex conjugate sigma_(-1)(self) comes
        first: when self times it is already rational (a rational
        multiple of a root of unity, or any element of a quadratic
        field), P stops there."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        m = self.order
        p = self._conjugate(m - 1)
        norm = self * p
        if not norm.is_rational():
            for k in range(2, m - 1):
                if gcd(k, m) == 1:
                    p = p * self._conjugate(k)
            norm = self * p
        return p * (1 / norm.rational_value())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / _as_fraction(other))
        a, b = self._aligned(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CyclotomicNumber.from_rational(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates and conversions -----------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return self.is_rational() and self.num[0] * f.denominator == f.numerator * self.den
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._aligned(self, other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        """Hash of the normalised trace Tr(x) / phi(m).

        It does not depend on the order the element is written in, so
        equal elements of different orders hash alike, and a rational
        element hashes like the equal int or Fraction.
        """
        weights, scale = _trace_weights(self.order)
        return hash(Fraction(sum(x * w for x, w in zip(self.num, weights)), self.den * scale))

    def complex_value(self) -> complex:
        """Numeric embedding sending zeta_m to exp(2*pi*i/m)."""
        z = cmath.exp(2j * cmath.pi / self.order)
        den = self.den
        acc = 0j
        for x in reversed(self.num):
            acc = acc * z + complex(x / den)
        return acc

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.rational_value()})"
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            elif d == 1:
                terms.append(f"{c}*z{self.order}")
            else:
                terms.append(f"{c}*z{self.order}^{d}")
        return "Cyc(" + " + ".join(terms) + ")"


def zeta(m: int, k: int = 1) -> CyclotomicNumber:
    """The root of unity zeta_m^k as an exact cyclotomic number."""
    num = [0] * euler_phi(m)
    for j, r in _power_table(m)[k % m]:
        num[j] = r
    return _make(m, num, 1)


# -- exact scalars -----------------------------------------------------------

EXACT_SCALARS = (int, Fraction, CyclotomicNumber)


def scalar_is_zero(x) -> bool:
    """Whether an exact scalar is zero; `not x` is the fast test for a Fraction."""
    if isinstance(x, CyclotomicNumber):
        return x.is_zero()
    return not x


def scalar_inverse(x):
    """1 / x for a nonzero exact scalar, of x's own field."""
    if isinstance(x, CyclotomicNumber):
        return x.inverse()
    return Fraction(1) / x


def encode_scalars(scalars: list) -> tuple[int, int, list]:
    """The exact scalars as integer vectors over one field and one
    denominator: (order, den, nums) with scalars[i] = sum(nums[i][d] *
    z^d) / den in the power basis of Q(zeta_order), order the lcm of the
    orders of the CyclotomicNumbers among them (zeros included) and den
    the least common denominator, so gcd(den, *every num) == 1."""
    order = 1
    for c in scalars:
        if isinstance(c, CyclotomicNumber):
            order = lcm(order, c.order)
        elif not isinstance(c, EXACT_SCALARS):
            raise TypeError(f"not an exact scalar: {type(c).__name__}")
    pad = [0] * (euler_phi(order) - 1)
    parts = [
        (embed_vector(c.order, c.num, order), c.den) if isinstance(c, CyclotomicNumber)
        else ([c.numerator] + pad, c.denominator)
        for c in scalars
    ]
    den = lcm(1, *(d for _, d in parts))
    return order, den, [num if d == den else [x * (den // d) for x in num] for num, d in parts]


def field_scalar(order: int, num, den: int):
    """The element sum(num[d] * z^d) / den of Q(zeta_order), for a reduced
    power-basis vector num, read back as a scalar: a Fraction when its
    value is rational (zero included), at every order, else a
    CyclotomicNumber of that order.  Series coefficients and matrix
    entries are read back by this rule alone."""
    if any(num[1:]):
        return _make(order, num, den)
    return Fraction(num[0], den)


def scalar_json(x):
    """The JSON value of an exact scalar: "p/q" for a rational value (a
    rational-valued CyclotomicNumber included), else the list of its
    power-basis coefficients as "p/q"."""
    if isinstance(x, CyclotomicNumber):
        if not x.is_rational():
            return [f"{c.numerator}/{c.denominator}" for c in x.coeffs]
        x = x.rational_value()
    return f"{x.numerator}/{x.denominator}"


def scalar_complex(x) -> complex:
    """The numeric value of a scalar: a CyclotomicNumber's complex_value,
    else complex(x) (an int, a Fraction or a number)."""
    if isinstance(x, CyclotomicNumber):
        return x.complex_value()
    return complex(x)
