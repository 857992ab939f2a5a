"""Truncated series in fractional powers of q with exact coefficients.

A :class:`PuiseuxSeries` stores a sparse map from integer exponent
numerators to coefficients, together with a ramification index ``ram``
(the numerator k stands for the exponent k/ram) and a truncation bound
``trunc``: the series is known modulo q^(trunc/ram).  Operations never
claim more precision than their operands carry; identity checks against
such series are therefore sound, not optimistic.

Coefficients are `fractions.Fraction` or :class:`CyclotomicNumber`.

Precision rules.  A product keeps exponents below
``min(a.trunc + vb, b.trunc + va)``, where ``va`` and ``vb`` are the
operands' valuations: each factor's truncation error enters shifted by
the other factor's valuation.  An inverse of a series with valuation v
is known modulo ``trunc - 2v``.

Kernels.  When every coefficient of both factors is a Fraction, the
product is computed by Kronecker substitution (Harvey 2009): both
factors are compressed by the gcd of their exponent offsets from their
valuations, cut to the slots the product keeps, scaled to integers by
their common denominators, and packed into one Python int each with
signed byte slots wide enough for the largest possible product
coefficient (see packing.py).  One big-integer product (Karatsuba in
CPython) then yields every coefficient.  Products with cyclotomic
coefficients use the schoolbook loop, which tests also use as the
reference.  The inverse is a Newton iteration on top of the product
(Brent & Kung 1978), so both coefficient kinds share it.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from math import gcd, isqrt, lcm

from .cyclotomic import CyclotomicNumber
from .packing import pack, slot_width, unpack


def _is_zero_coeff(c) -> bool:
    if isinstance(c, CyclotomicNumber):
        return c.is_zero()
    return c == 0


def _coeff_inv(a):
    if isinstance(a, CyclotomicNumber):
        return a.inverse()
    return Fraction(1) / a


def _as_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, CyclotomicNumber):
        # keep coefficients canonical: demote rational-valued elements
        return c.rational_value() if c.is_rational() else c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _all_fractions(terms: dict) -> bool:
    return all(isinstance(c, Fraction) for c in terms.values())


def _schoolbook_product(a: dict, b: dict, t: int) -> dict:
    """Terms below t of the product of two term maps, pair by pair."""
    terms: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            if k >= t:
                continue
            p = ca * cb
            if k in terms:
                s = terms[k] + p
                if _is_zero_coeff(s):
                    del terms[k]
                else:
                    terms[k] = s
            else:
                terms[k] = p
    return terms


def _int_slots(offsets: list, g: int) -> tuple[list, int]:
    """Dense integer slots of (offset, Fraction) pairs on the stride g, and
    the common denominator they were scaled by."""
    den = lcm(*(c.denominator for _, c in offsets))
    slots = [0] * (max(d for d, _ in offsets) // g + 1)
    for d, c in offsets:
        slots[d // g] = c.numerator * (den // c.denominator)
    return slots, den


def _packed_product(a: dict, va: int, b: dict, vb: int, t: int) -> dict:
    """Terms below t of the product of two nonempty Fraction term maps with
    valuations va and vb, by Kronecker substitution."""
    # only terms below these bounds meet a partner term below t
    pa = [(k - va, c) for k, c in a.items() if k < t - vb]
    pb = [(k - vb, c) for k, c in b.items() if k < t - va]
    g = gcd(*(d for d, _ in pa), *(d for d, _ in pb))
    if g == 0:  # two monomials
        g, n = 1, 1
    else:
        n = -(-(t - va - vb) // g)  # product slots below t
    sa, da = _int_slots(pa, g)
    sb, db = _int_slots(pb, g)
    # every product slot sums at most min(len) pairs; one more bit for the sign
    bound = max(map(abs, sa)) * max(map(abs, sb)) * min(len(pa), len(pb))
    width = slot_width(bound)
    prod = pack(sa, width) * pack(sb, width)
    den = da * db
    v = va + vb
    terms = {}
    for i, c in enumerate(unpack(prod, width, n)):
        if c:
            terms[v + i * g] = Fraction(c, den)
    return terms


class PuiseuxSeries:
    """Sparse truncated series sum_k c_k q^(k/ram), known mod q^(trunc/ram)."""

    __slots__ = ("ram", "terms", "trunc")

    def __init__(self, ram: int, terms: dict, trunc: int):
        if ram < 1:
            raise ValueError("ramification must be positive")
        self.ram = ram
        self.trunc = trunc
        self.terms = {
            int(k): _as_coeff(c)
            for k, c in terms.items()
            if k < trunc and not _is_zero_coeff(c)
        }

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(trunc: int, ram: int = 1) -> "PuiseuxSeries":
        return PuiseuxSeries(ram, {}, trunc)

    @staticmethod
    def one(trunc: int, ram: int = 1) -> "PuiseuxSeries":
        return PuiseuxSeries(ram, {0: Fraction(1)}, trunc)

    @staticmethod
    def constant(c, trunc: int, ram: int = 1) -> "PuiseuxSeries":
        return PuiseuxSeries(ram, {0: c}, trunc)

    @staticmethod
    def monomial(c, num: int, den: int, trunc_q: int) -> "PuiseuxSeries":
        """c * q^(num/den), known modulo q^trunc_q (an integer bound)."""
        return PuiseuxSeries(den, {num: c}, trunc_q * den)

    # -- bookkeeping ----------------------------------------------------

    def _with_ram(self, ram: int) -> "PuiseuxSeries":
        if ram == self.ram:
            return self
        if ram % self.ram:
            raise ValueError("can only grow ramification by integer factor")
        f = ram // self.ram
        return PuiseuxSeries(ram, {k * f: c for k, c in self.terms.items()}, self.trunc * f)

    @staticmethod
    def _common(a: "PuiseuxSeries", b: "PuiseuxSeries"):
        r = a.ram * b.ram // gcd(a.ram, b.ram)
        return a._with_ram(r), b._with_ram(r)

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> Fraction | None:
        """Lowest known exponent, or None if zero to truncation."""
        if not self.terms:
            return None
        return Fraction(min(self.terms), self.ram)

    def coefficient(self, num: int, den: int = 1):
        """Coefficient of q^(num/den); raises if beyond truncation."""
        e = Fraction(num, den)
        if e >= Fraction(self.trunc, self.ram):
            raise ValueError("exponent beyond carried truncation")
        k = e * self.ram
        if k.denominator != 1:
            return Fraction(0)
        return self.terms.get(int(k), Fraction(0))

    def known_order(self) -> Fraction:
        """The exponent bound this series is known modulo."""
        return Fraction(self.trunc, self.ram)

    def truncate(self, trunc_q) -> "PuiseuxSeries":
        """Restrict to terms below the exponent trunc_q (a rational)."""
        t = Fraction(trunc_q) * self.ram
        if t > self.trunc:
            raise ValueError("cannot raise truncation")
        ti = math.ceil(t)
        return PuiseuxSeries(self.ram, {k: c for k, c in self.terms.items() if k < ti}, ti)

    def normalize(self) -> "PuiseuxSeries":
        """Strip common factors from ram, exponents, and truncation."""
        g = gcd(self.ram, self.trunc)
        for k in self.terms:
            g = gcd(g, k)
            if g == 1:
                return self
        if g <= 1:
            return self
        return PuiseuxSeries(self.ram // g, {k // g: c for k, c in self.terms.items()}, self.trunc // g)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = PuiseuxSeries.constant(other, self.trunc, self.ram)
        a, b = self._common(self, other)
        t = min(a.trunc, b.trunc)
        terms = {k: c for k, c in a.terms.items() if k < t}
        for k, c in b.terms.items():
            if k >= t:
                continue
            if k in terms:
                s = terms[k] + c
                if _is_zero_coeff(s):
                    del terms[k]
                else:
                    terms[k] = s
            else:
                terms[k] = c
        return PuiseuxSeries(a.ram, terms, t)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(self.ram, {k: -c for k, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = PuiseuxSeries.constant(other, self.trunc, self.ram)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return PuiseuxSeries(self.ram, {k: c * other for k, c in self.terms.items()}, self.trunc)
        a, b = self._common(self, other)
        # product precision: each factor's truncation error enters shifted
        # by the other factor's valuation
        va = min(a.terms) if a.terms else a.trunc
        vb = min(b.terms) if b.terms else b.trunc
        t = min(a.trunc + vb, b.trunc + va)
        if a.terms and b.terms and _all_fractions(a.terms) and _all_fractions(b.terms):
            terms = _packed_product(a.terms, va, b.terms, vb, t)
        else:
            terms = _schoolbook_product(a.terms, b.terms, t)
        return PuiseuxSeries(a.ram, terms, t)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PuiseuxSeries":
        if n < 0:
            return self.inverse() ** (-n)
        result = PuiseuxSeries.one(self.trunc, self.ram)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse modulo the carried truncation.

        The leading exponent negates; precision drops to trunc - 2v where
        v is the valuation (the error of 1/a is the error of a divided
        by the square of its leading part).

        The unit part u = q^(-v) * self is known below n = trunc - v, and
        so is its inverse h.  Newton iteration finds h from g = 1/u[0]:
        if g = h + E with E below q^p, the step g <- g*(2 - u*g), computed
        as g + g*(1 - u*g), gives h - u*E^2, which is right below q^(2p).
        Each step therefore first sets g's working truncation to the new
        precision min(2p, n) and cuts u to it; the product rule alone
        would only ever certify g to its old precision.
        """
        if not self.terms:
            raise ZeroDivisionError("inverse of a series that is zero to truncation")
        ram = self.ram
        v = min(self.terms)
        n = self.trunc - v
        unit = {k - v: c for k, c in self.terms.items()}
        g = PuiseuxSeries(ram, {0: _coeff_inv(unit[0])}, 1)
        p = 1
        while p < n:
            p = min(2 * p, n)
            g = PuiseuxSeries(ram, g.terms, p)
            g = g + g * (1 - PuiseuxSeries(ram, unit, p) * g)
        return PuiseuxSeries(ram, {k - v: c for k, c in g.terms.items()}, self.trunc - 2 * v)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self * _coeff_inv(_as_coeff(other))
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def rescale(self, num: int, den: int) -> "PuiseuxSeries":
        """Substitute q -> q^(num/den), i.e. tau -> (num/den) tau."""
        if num <= 0 or den <= 0:
            raise ValueError("rescale factor must be positive")
        return PuiseuxSeries(
            self.ram * den, {k * num: c for k, c in self.terms.items()}, self.trunc * num
        )

    # -- comparisons, evaluation, formatting ------------------------------

    def same_series(self, other) -> bool:
        """True when self - other vanishes identically to the shared truncation."""
        return (self - other).is_zero()

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._common(self, other)
        return a.terms == b.terms and a.trunc == b.trunc

    def __hash__(self):
        a = self.normalize()
        return hash((a.ram, a.trunc, tuple(sorted(a.terms.items(), key=lambda kv: kv[0]))))

    def items(self):
        """Sorted (exponent: Fraction, coefficient) pairs."""
        return [(Fraction(k, self.ram), c) for k, c in sorted(self.terms.items())]

    def eval_complex(self, q: complex) -> complex:
        """Numeric value: substitute a complex q with |q| < 1."""
        qr = q ** (1.0 / self.ram) if self.ram > 1 else q
        acc = 0j
        for k, c in self.terms.items():
            cc = c.complex_value() if isinstance(c, CyclotomicNumber) else complex(c)
            acc += cc * qr**k
        return acc

    def eval_at_tau(self, tau: complex) -> complex:
        """Numeric value at q = e(tau) = exp(2*pi*i*tau)."""
        acc = 0j
        for k, c in self.terms.items():
            cc = c.complex_value() if isinstance(c, CyclotomicNumber) else complex(c)
            acc += cc * cmath.exp(2j * cmath.pi * tau * k / self.ram)
        return acc

    def __str__(self):
        if not self.terms:
            return f"O(q^({self.trunc}/{self.ram}))"
        bits = []
        for k, c in sorted(self.terms.items()):
            e = Fraction(k, self.ram)
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*q")
            else:
                bits.append(f"{c}*q^({e})")
        t = Fraction(self.trunc, self.ram)
        return " + ".join(bits) + f" + O(q^({t}))"

    def __repr__(self):
        return f"PuiseuxSeries(ram={self.ram}, trunc={self.trunc}, {len(self.terms)} terms)"

    # -- serialization ----------------------------------------------------

    def field_tag(self) -> str:
        orders = [c.order for c in self.terms.values() if isinstance(c, CyclotomicNumber)]
        if not orders:
            return "Q"
        m = 1
        for o in orders:
            m = m * o // gcd(m, o)
        return f"Q(zeta_{m})"

    def to_json(self) -> str:
        def enc(c):
            if isinstance(c, CyclotomicNumber):
                return [f"{x.numerator}/{x.denominator}" for x in c.coeffs]
            return f"{c.numerator}/{c.denominator}"

        obj = {
            "ram": self.ram,
            "field": self.field_tag(),
            "trunc": self.trunc,
            "terms": [[k, enc(c)] for k, c in sorted(self.terms.items())],
        }
        return json.dumps(obj, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "PuiseuxSeries":
        obj = json.loads(text)
        field = obj["field"]
        order = 1
        if field.startswith("Q(zeta_"):
            order = int(field[len("Q(zeta_"):-1])

        def dec(c):
            if isinstance(c, list):
                return CyclotomicNumber(order, [Fraction(x) for x in c])
            return Fraction(c)

        return PuiseuxSeries(obj["ram"], {int(k): dec(c) for k, c in obj["terms"]}, obj["trunc"])


def eta_series(order: int) -> PuiseuxSeries:
    """Dedekind eta: q^(1/24) * sum_n (-1)^n q^(n(3n-1)/2), mod q^order.

    Uses the sparse pentagonal-number expansion; the term count is
    O(sqrt(order)) rather than the O(order) partial products of the
    defining infinite product.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    trunc = 24 * order
    terms: dict[int, Fraction] = {}
    bound = isqrt(order) + 2
    for n in range(-bound - 1, bound + 2):
        p = n * (3 * n - 1) // 2
        k = 1 + 24 * p
        if k < trunc:
            terms[k] = Fraction(-1 if n % 2 else 1)
    return PuiseuxSeries(24, terms, trunc)


def eta_product_oracle(order: int) -> PuiseuxSeries:
    """Brute-force oracle: partial product prod_{n<=order} (1 - q^n)."""
    acc = PuiseuxSeries.one(order)
    for n in range(1, order + 1):
        acc = acc * PuiseuxSeries(1, {0: Fraction(1), n: Fraction(-1)}, order)
    return acc
