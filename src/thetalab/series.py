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
coefficient (see packing.py); widths below 8 bytes are rounded up to 1,
2, 4 or 8, which pack through numpy in one call.  One big-integer
product (Karatsuba in CPython) then yields every coefficient.  Products
with cyclotomic coefficients use the schoolbook loop, which tests also
use as the reference.  A factor with a single term needs neither: the
product is the other factor with its exponents shifted and its
coefficients scaled (or only shifted, for ``one * base`` in
``__pow__``).  The inverse is a Newton iteration on top of the product
(Brent & Kung 1978), so both coefficient kinds share it; it starts at
the precision the leading coefficient alone gives, the gcd of the unit
part's exponents.

The public constructor canonicalises its terms one by one: ints become
Fractions, rational-valued cyclotomic numbers are demoted, zero
coefficients and exponents at or past the truncation are dropped.  A
kernel result whose terms are canonical by construction skips that pass
through the private constructor ``_canonical``: negation, ``rescale``,
``_with_ram`` and the Newton steps of any series, and sums, differences
and products whose operands have only Fraction coefficients.  Those that
involve a cyclotomic coefficient can come out rational-valued, so they
still go through the public constructor.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm

from .cyclotomic import CyclotomicNumber, scalar_inverse, scalar_is_zero, scalar_json
from .packing import pack, slot_width, unpack


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
    return all(map(isinstance, terms.values(), repeat(Fraction)))


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
                if scalar_is_zero(s):
                    del terms[k]
                else:
                    terms[k] = s
            else:
                terms[k] = p
    return terms


def _int_slots(terms: dict, v: int, offsets: list, g: int) -> tuple[list, int]:
    """Dense integer slots, on the stride g, of the Fraction coefficients at
    the exponents v + offsets, and the common denominator they were scaled
    by."""
    ratios = [terms[v + d].as_integer_ratio() for d in offsets]
    den = lcm(*[q for _, q in ratios])
    slots = [0] * (max(offsets) // g + 1)
    for d, (p, q) in zip(offsets, ratios):
        slots[d // g] = p * (den // q)
    return slots, den


def _monomial_product(a: dict, b: dict, t: int) -> dict:
    """Terms below t of the product of two nonempty term maps, one of them
    a single term: the other map shifted and scaled."""
    if len(a) == 1:
        a, b = b, a
    ((kb, cb),) = b.items()
    if cb == 1:  # one * base in __pow__
        return {k + kb: c for k, c in a.items() if k + kb < t}
    return {k + kb: c * cb for k, c in a.items() if k + kb < t}


def _packed_product(a: dict, va: int, b: dict, vb: int, t: int) -> dict:
    """Terms below t of the product of two nonempty Fraction term maps with
    valuations va and vb, by Kronecker substitution."""
    # only terms below these bounds meet a partner term below t
    oa = [k - va for k in a if k < t - vb]
    ob = [k - vb for k in b if k < t - va]
    g = gcd(*oa, *ob)
    if g == 0:  # both factors cut to a single term
        g, n = 1, 1
    else:
        n = -(-(t - va - vb) // g)  # product slots below t
    sa, da = _int_slots(a, va, oa, g)
    sb, db = _int_slots(b, vb, ob, g)
    # every product slot sums at most min(len) pairs; one more bit for the sign
    bound = max(map(abs, sa)) * max(map(abs, sb)) * min(len(oa), len(ob))
    width = slot_width(bound)
    if width < 8:  # 1, 2, 4 and 8 bytes pack through numpy, the rest slot by slot
        width = 1 << (width - 1).bit_length()
    prod = pack(sa, width) * pack(sb, width)
    den = da * db
    v = va + vb
    coeffs = unpack(prod, width, n)
    if den == 1:
        return {v + i * g: Fraction(c) for i, c in enumerate(coeffs) if c}
    return {v + i * g: Fraction(c, den) for i, c in enumerate(coeffs) if c}


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
            if k < trunc and not scalar_is_zero(c)
        }

    @staticmethod
    def _canonical(ram: int, terms: dict, trunc: int) -> "PuiseuxSeries":
        """A series from terms that are canonical already: int exponents
        below trunc, nonzero Fraction or non-rational cyclotomic
        coefficients.  The map is kept, not copied."""
        s = object.__new__(PuiseuxSeries)
        s.ram = ram
        s.terms = terms
        s.trunc = trunc
        return s

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
        return PuiseuxSeries._canonical(
            ram, {k * f: c for k, c in self.terms.items()}, self.trunc * f
        )

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

    def _sum(self, other, negate: bool) -> "PuiseuxSeries":
        """self + other, or self - other when negate is set."""
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = PuiseuxSeries.constant(other, self.trunc, self.ram)
        a, b = self._common(self, other)
        t = min(a.trunc, b.trunc)
        terms = {k: c for k, c in a.terms.items() if k < t}
        for k, c in b.terms.items():
            if k >= t:
                continue
            if k in terms:
                s = terms[k] - c if negate else terms[k] + c
                if scalar_is_zero(s):
                    del terms[k]
                else:
                    terms[k] = s
            else:
                terms[k] = -c if negate else c
        if _all_fractions(a.terms) and _all_fractions(b.terms):
            return PuiseuxSeries._canonical(a.ram, terms, t)
        return PuiseuxSeries(a.ram, terms, t)

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries._canonical(
            self.ram, {k: -c for k, c in self.terms.items()}, self.trunc
        )

    def __sub__(self, other):
        return self._sum(other, True)

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
        if not (a.terms and b.terms):
            return PuiseuxSeries._canonical(a.ram, {}, t)
        rational = _all_fractions(a.terms) and _all_fractions(b.terms)
        if len(a.terms) == 1 or len(b.terms) == 1:
            terms = _monomial_product(a.terms, b.terms, t)
        elif rational:
            terms = _packed_product(a.terms, va, b.terms, vb, t)
        else:
            terms = _schoolbook_product(a.terms, b.terms, t)
        if rational:
            return PuiseuxSeries._canonical(a.ram, terms, t)
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
        so is its inverse h.  Newton iteration finds h from g = 1/u[0],
        which is right below q^s when every exponent of u is a multiple
        of s: if g = h + E with E below q^p, the step g <- g*(2 - u*g),
        computed as g + g*(1 - u*g), gives h - u*E^2, which is right below
        q^(2p).  Each step therefore first sets g's working truncation to
        the new precision min(2p, n) and cuts u to it; the product rule
        alone would only ever certify g to its old precision.
        """
        if not self.terms:
            raise ZeroDivisionError("inverse of a series that is zero to truncation")
        ram = self.ram
        v = min(self.terms)
        n = self.trunc - v
        unit = {k - v: c for k, c in self.terms.items()}
        s = gcd(*unit)  # 0 for a single term, whose inverse is exact
        p = min(s, n) if s else n
        g = PuiseuxSeries(ram, {0: scalar_inverse(unit[0])}, p)
        while p < n:
            p = min(2 * p, n)
            g = PuiseuxSeries._canonical(ram, g.terms, p)
            u = PuiseuxSeries._canonical(ram, {k: c for k, c in unit.items() if k < p}, p)
            g = g + g * (1 - u * g)
        return PuiseuxSeries._canonical(
            ram, {k - v: c for k, c in g.terms.items()}, self.trunc - 2 * v
        )

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self * scalar_inverse(_as_coeff(other))
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def rescale(self, num: int, den: int) -> "PuiseuxSeries":
        """Substitute q -> q^(num/den), i.e. tau -> (num/den) tau."""
        if num <= 0 or den <= 0:
            raise ValueError("rescale factor must be positive")
        return PuiseuxSeries._canonical(
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
        obj = {
            "ram": self.ram,
            "field": self.field_tag(),
            "trunc": self.trunc,
            "terms": [[k, scalar_json(c)] for k, c in sorted(self.terms.items())],
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
