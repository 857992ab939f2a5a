"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored in the power basis 1, z, ..., z^(phi(m)-1) reduced
modulo the m-th cyclotomic polynomial, as one integer vector over one
common denominator: the element is sum(num[d] * z^d) / den with den > 0
and gcd(den, *num) == 1 (zero is num = (0, ...), den = 1).  Equal
elements of one order therefore have equal (num, den), and products and
sums are integer vector operations.  `fractions.Fraction` appears only
where a division really happens: the inverse, division, the rational
value, the hash and the `coeffs` view.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder of integer/rational coefficient polynomials."""
    num = list(num)
    q = [0] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c == 0:
            continue
        f = Fraction(c, 1) / lead if lead != 1 else c
        q[i] = f
        for j, d in enumerate(den):
            num[i + j] -= f * d
    return q, _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial.

    Computed by dividing x^m - 1 by the product of Phi_d over proper
    divisors d of m; all intermediate quotients are exact.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    if m == 1:
        return (-1, 1)
    p = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            q, r = _poly_divmod(p, list(cyclotomic_polynomial(d)))
            if r:
                raise AssertionError("cyclotomic division not exact")
            p = q
    return tuple(int(c) for c in p)


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


def embed_vector(order: int, num, m: int) -> list:
    """The power-basis vector, in order m, of the element with vector num
    in order `order`; m is a multiple of order."""
    step = m // order
    vec = [0] * (step * (len(num) - 1) + 1)
    vec[::step] = num
    return reduce_vector(m, vec)


@lru_cache(maxsize=None)
def _restriction(m: int, t: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows L and scale s with y = L x / s whenever x (order m) is
    the embedding of y (order t); t divides m.

    The embedding is an injective linear map E, so row reduction of
    [E | I] over Q leaves [I | L] in its first phi(t) rows, with L E = I.
    """
    pt, pm = euler_phi(t), euler_phi(m)
    # column d of E: the order-m vector of zeta_t^d = zeta_m^(d m / t)
    cols = [CyclotomicNumber.zeta_power(m, d * (m // t)).num for d in range(pt)]
    aug = [[Fraction(cols[d][r]) for d in range(pt)] + [Fraction(int(r == c)) for c in range(pm)]
           for r in range(pm)]
    for c in range(pt):
        piv = next(r for r in range(c, pm) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(pm):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    left = [row[pt:] for row in aug[:pt]]
    scale = lcm(*(x.denominator for row in left for x in row))
    return tuple(tuple(int(x * scale) for x in row) for row in left), scale


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


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

    @staticmethod
    def zeta_power(m: int, k: int = 1) -> "CyclotomicNumber":
        num = [0] * euler_phi(m)
        for j, r in _power_table(m)[k % m]:
            num[j] = r
        return _make(m, num, 1)

    # -- order manipulation -------------------------------------------

    def to_order(self, m: int) -> "CyclotomicNumber":
        """The same element written in order m.

        m is a multiple of self.order (an embedding into Q(zeta_m)), or a
        divisor of it when the element lies in the subfield Q(zeta_m).
        """
        if m == self.order:
            return self
        if m % self.order:
            if self.order % m:
                raise ValueError(f"cannot embed order {self.order} into {m}")
            rows, scale = _restriction(self.order, m)
            x = _make(m, [sum(a * b for a, b in zip(row, self.num)) for row in rows], self.den * scale)
            back = x.to_order(self.order)
            if (back.num, back.den) != (self.num, self.den):
                raise ValueError(f"element does not lie in Q(zeta_{m})")
            return x
        return _make(m, embed_vector(self.order, self.num, m), self.den)

    @staticmethod
    def _aligned(a: "CyclotomicNumber", b) -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        if isinstance(b, (int, Fraction)):
            b = CyclotomicNumber.from_rational(b, 1)
        if not isinstance(b, CyclotomicNumber):
            raise TypeError(f"cannot combine CyclotomicNumber with {type(b).__name__}")
        if a.order == b.order:
            return a, b
        m = promoted_kind(scalar_kind(a), scalar_kind(b)) // 2
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

    def inverse(self) -> "CyclotomicNumber":
        """Exact inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # (num / den)^(-1) = den * num^(-1); invariants: s*num = r (mod Phi_m)
        r0, r1 = list(cyclotomic_polynomial(self.order)), _poly_trim(list(self.num))
        s0, s1 = [0], [1]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            s = list(s0)
            s += [0] * (len(q) + len(s1) - 1 - len(s))
            for i, qc in enumerate(q):
                if qc == 0:
                    continue
                for j, sc in enumerate(s1):
                    s[i + j] -= qc * sc
            r0, r1, s0, s1 = r1, _poly_trim(r), s1, _poly_trim(s)
        if not r1:
            raise ZeroDivisionError("element not invertible (zero divisor?)")
        c = Fraction(r1[0]) / self.den
        return CyclotomicNumber(self.order, [x / c for x in s1])

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
    return CyclotomicNumber.zeta_power(m, k)


# -- scalar kinds -----------------------------------------------------------


def scalar_kind(x) -> int:
    """The type and order of an exact scalar as one code: 1 for an int or
    a Fraction, 2m for a CyclotomicNumber of order m."""
    return 2 * x.order if isinstance(x, CyclotomicNumber) else 1


# promoted_kind(*kinds): the kind of a sum or product of scalars of the
# given kinds.  Arithmetic writes its result in the lcm of its operands'
# orders and gives a Fraction only when every operand is one, which is the
# lcm of the codes; the builtin itself keeps per-entry use in the matrix
# product cheap.
promoted_kind = lcm


def scalar_of_kind(kind: int, order: int, num, den: int):
    """The scalar of the given kind equal to sum(num[d] * z^d) / den, for
    a power-basis vector num in an order that the kind's order divides."""
    if kind == 1:
        return Fraction(num[0], den)
    return _make(order, num, den).to_order(kind // 2)

