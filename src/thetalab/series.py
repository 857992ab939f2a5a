"""Truncated series in fractional powers of q with exact coefficients.

A :class:`PuiseuxSeries` has a ramification index ``ram`` (the exponent
numerator k stands for the exponent k/ram) and a truncation bound
``trunc``: the series is known modulo q^(trunc/ram).  Operations never
claim more precision than their operands carry; identity checks against
such series are therefore sound, not optimistic.

Store.  A series lies over one field Q(zeta_m), its ``order`` m (m = 1
for a rational series), with one common denominator ``den``: ``nums``
maps each exponent numerator k below ``trunc`` whose coefficient is
nonzero to an integer vector of length phi(m), and that coefficient is
sum(nums[k][d] * z^d) / den in the power basis modulo Phi_m, the layout
of a CyclotomicNumber.  gcd(den, every numerator) is 1, so equal series
written over one ram and one order have equal stores.  The constructor
encodes int, Fraction and CyclotomicNumber coefficients over the lcm of
their orders (`encode_scalars`, which the exact matrices use too); a sum
or product is written over the lcm of its operands' orders.  Over Q
(phi(m) = 1) each vector is one int, and a sum adds those ints; over a
larger field it adds the vectors entry by entry.

Read-back.  ``terms`` maps each exponent numerator to its coefficient,
built on first read by the one rule of `field_scalar`: a Fraction for a
rational value, otherwise a CyclotomicNumber of the series' order.

Precision rules.  A product keeps exponents below
``min(a.trunc + vb, b.trunc + va)``, where ``va`` and ``vb`` are the
operands' valuations: each factor's truncation error enters shifted by
the other factor's valuation.  A scalar multiple keeps the truncation.
An inverse of a series with valuation v is known modulo ``trunc - 2v``.

Product.  Every product is one Kronecker substitution (Harvey 2009):
both factors are compressed by the gcd of their exponent offsets from
their valuations and cut to the slots the product keeps, and packed
into one Python int each, with signed slots wide enough for the largest
possible product coefficient (see packing.py).  One big-integer product
(Karatsuba in CPython) then yields every q-slot.  Over Q the
substitution is in q alone: the int of q-slot i is slot i, and each
product slot is a coefficient, with no Phi_m reduction.  Over a larger
field it is in (q, z): entry d of q-slot i goes to slot
i * (2 phi - 1) + d, and each q-slot of the product is a polynomial in
z of degree below 2 phi - 1, which is reduced modulo Phi_m once.  The
cost follows the operands' spans in slots, not their numbers of terms.
A scalar multiple is the product with a one-term series.  The inverse is
a Newton iteration on top of the product (Brent & Kung 1978); it starts
at the precision the leading coefficient alone gives, the gcd of the
unit part's exponents.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm

from .cyclotomic import (
    EXACT_SCALARS,
    CyclotomicNumber,
    embed_vector,
    encode_scalars,
    euler_phi,
    field_scalar,
    reduce_vectors,
    scalar_complex,
    scalar_inverse,
    scalar_json,
)
from .packing import pack, pack_width, unpack


def _slots(nums: dict, v: int, offsets: list, g: int, stride: int) -> list:
    """The vectors at the exponents v + offsets as one dense list: the
    vector at offset d fills the slots from d // g * stride on."""
    slots = [0] * ((max(offsets) // g + 1) * stride)
    if stride == 1:  # over Q each vector is one int
        for d in offsets:
            slots[d // g] = nums[v + d][0]
        return slots
    for d in offsets:
        i = d // g * stride
        num = nums[v + d]
        slots[i:i + len(num)] = num
    return slots


def _product(a: "PuiseuxSeries", b: "PuiseuxSeries", t: int) -> "PuiseuxSeries":
    """The terms below t of a * b, for series of one ram and one order,
    by Kronecker substitution in q over Q and in (q, z) otherwise."""
    if not (a.nums and b.nums):
        return PuiseuxSeries._of(a.ram, a.order, 1, {}, t)
    phi = euler_phi(a.order)
    stride = 2 * phi - 1  # z-powers of a product of two vectors
    va, vb = min(a.nums), min(b.nums)
    # only terms below these bounds meet a partner term below t
    oa = [k - va for k in a.nums if k < t - vb]
    ob = [k - vb for k in b.nums if k < t - va]
    g = gcd(*oa, *ob)
    if g == 0:  # both factors cut to a single term
        g, n = 1, 1
    else:
        n = -(-(t - va - vb) // g)  # product q-slots below t
    sa = _slots(a.nums, va, oa, g, stride)
    sb = _slots(b.nums, vb, ob, g, stride)
    # a slot sums at most min(len) q-pairs of at most phi z-pairs each
    bound = max(map(abs, sa)) * max(map(abs, sb)) * min(len(oa), len(ob)) * phi
    width = pack_width(bound)
    coeffs = unpack(pack(sa, width) * pack(sb, width), width, n * stride)
    v = va + vb
    if phi == 1:  # over Q each slot is a coefficient, with no Phi_m to reduce by
        nums = {v + i * g: [c] for i, c in enumerate(coeffs) if c}
    else:
        nums = {
            v + i * g: list(num)
            for i, num in enumerate(reduce_vectors(a.order, coeffs, stride)) if any(num)
        }
    return PuiseuxSeries._of(a.ram, a.order, a.den * b.den, nums, t)


class PuiseuxSeries:
    """Sparse truncated series sum_k c_k q^(k/ram), known mod q^(trunc/ram)."""

    __slots__ = ("ram", "trunc", "order", "den", "nums", "_terms")

    def __init__(self, ram: int, terms: dict, trunc: int):
        if ram < 1:
            raise ValueError("ramification must be positive")
        kept = {int(k): c for k, c in terms.items() if k < trunc}
        order, den, nums = encode_scalars(list(kept.values()))  # in lowest terms
        self.ram, self.trunc, self.order, self.den = ram, trunc, order, den
        self.nums = {k: num for k, num in zip(kept, nums) if any(num)}
        self._terms = None

    @staticmethod
    def _of(ram: int, order: int, den: int, nums: dict, trunc: int) -> "PuiseuxSeries":
        """The series nums / den over Q(zeta_order) in lowest terms, for a
        map nums from int exponents below trunc to nonzero vectors of
        length phi(order); the map is kept unless a factor is divided out."""
        if den > 1:
            g = gcd(den, *chain.from_iterable(nums.values()))
            if g > 1:
                den //= g
                nums = {k: [x // g for x in num] for k, num in nums.items()}
        s = object.__new__(PuiseuxSeries)
        s.ram, s.trunc, s.order, s.den, s.nums, s._terms = ram, trunc, order, den, nums, None
        return s

    @property
    def terms(self) -> dict:
        """The coefficients by exponent numerator: a Fraction for a
        rational value, else a CyclotomicNumber of the series' order."""
        if self._terms is None:
            self._terms = {k: field_scalar(self.order, v, self.den) for k, v in self.nums.items()}
        return self._terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(trunc: int, ram: int = 1) -> "PuiseuxSeries":
        return PuiseuxSeries(ram, {}, trunc)

    @staticmethod
    def one(trunc: int, ram: int = 1) -> "PuiseuxSeries":
        return PuiseuxSeries(ram, {0: 1}, trunc)

    @staticmethod
    def constant(c, trunc: int, ram: int = 1) -> "PuiseuxSeries":
        return PuiseuxSeries(ram, {0: c}, trunc)

    @staticmethod
    def monomial(c, num: int, den: int, trunc_q: int) -> "PuiseuxSeries":
        """c * q^(num/den), known modulo q^trunc_q (an integer bound)."""
        return PuiseuxSeries(den, {num: c}, trunc_q * den)

    # -- bookkeeping ----------------------------------------------------

    def _over(self, ram: int, order: int) -> "PuiseuxSeries":
        """The same series written over ram and Q(zeta_order), multiples of
        its own."""
        if ram == self.ram and order == self.order:
            return self
        f = ram // self.ram
        nums = {k * f: embed_vector(self.order, num, order) for k, num in self.nums.items()}
        return PuiseuxSeries._of(ram, order, self.den, nums, self.trunc * f)

    @staticmethod
    def _common(a: "PuiseuxSeries", b: "PuiseuxSeries"):
        """a and b written over one ram and one order."""
        r, m = lcm(a.ram, b.ram), lcm(a.order, b.order)
        return a._over(r, m), b._over(r, m)

    def is_zero(self) -> bool:
        return not self.nums

    def valuation(self) -> Fraction | None:
        """Lowest known exponent, or None if zero to truncation."""
        if not self.nums:
            return None
        return Fraction(min(self.nums), self.ram)

    def coefficient(self, num: int, den: int = 1):
        """Coefficient of q^(num/den); raises if beyond truncation."""
        e = Fraction(num, den)
        if e >= Fraction(self.trunc, self.ram):
            raise ValueError("exponent beyond carried truncation")
        vec = self.nums.get(e * self.ram)  # a non-integral key matches no exponent
        return Fraction(0) if vec is None else field_scalar(self.order, vec, self.den)

    def known_order(self) -> Fraction:
        """The exponent bound this series is known modulo."""
        return Fraction(self.trunc, self.ram)

    def normalize(self) -> "PuiseuxSeries":
        """Strip common factors from ram, exponents, and truncation."""
        g = gcd(self.ram, self.trunc, *self.nums)
        if g <= 1:
            return self
        nums = {k // g: num for k, num in self.nums.items()}
        return PuiseuxSeries._of(self.ram // g, self.order, self.den, nums, self.trunc // g)

    # -- ring operations -------------------------------------------------

    def _sum(self, other, negate: bool) -> "PuiseuxSeries":
        """self + other, or self - other when negate is set."""
        if isinstance(other, EXACT_SCALARS):
            other = PuiseuxSeries.constant(other, self.trunc, self.ram)
        a, b = self._common(self, other)
        t = min(a.trunc, b.trunc)
        g = gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        if negate:
            fb = -fb
        phi = euler_phi(a.order)
        if phi == 1:  # over Q each vector is one int
            ints = {k: x * fa for k, (x,) in a.nums.items() if k < t}
            for k, (y,) in b.nums.items():
                if k < t:
                    ints[k] = ints.get(k, 0) + y * fb
            nums = {k: [x] for k, x in ints.items() if x}
        else:
            nums = {k: [x * fa for x in num] for k, num in a.nums.items() if k < t}
            zero = [0] * phi
            for k, num in b.nums.items():
                if k < t:
                    s = [x + y * fb for x, y in zip(nums.get(k, zero), num)]
                    if any(s):
                        nums[k] = s
                    else:
                        del nums[k]
        return PuiseuxSeries._of(a.ram, a.order, a.den * fa, nums, t)

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __neg__(self):
        nums = {k: [-x for x in num] for k, num in self.nums.items()}
        return PuiseuxSeries._of(self.ram, self.order, self.den, nums, self.trunc)

    def __sub__(self, other):
        return self._sum(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, EXACT_SCALARS):
            a, b = self._common(self, PuiseuxSeries.constant(other, 1, self.ram))
            return _product(a, b, self.trunc)
        a, b = self._common(self, other)
        # product precision: each factor's truncation error enters shifted
        # by the other factor's valuation
        va = min(a.nums, default=a.trunc)
        vb = min(b.nums, default=b.trunc)
        return _product(a, b, min(a.trunc + vb, b.trunc + va))

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
        if not self.nums:
            raise ZeroDivisionError("inverse of a series that is zero to truncation")
        ram = self.ram
        v = min(self.nums)
        n = self.trunc - v
        unit = {k - v: num for k, num in self.nums.items()}
        s = gcd(*unit)  # 0 for a single term, whose inverse is exact
        p = min(s, n) if s else n
        g = PuiseuxSeries(ram, {0: scalar_inverse(field_scalar(self.order, unit[0], self.den))}, p)
        while p < n:
            p = min(2 * p, n)
            g = PuiseuxSeries._of(ram, g.order, g.den, g.nums, p)
            cut = {k: num for k, num in unit.items() if k < p}
            u = PuiseuxSeries._of(ram, self.order, self.den, cut, p)
            g = g + g * (1 - u * g)
        nums = {k - v: num for k, num in g.nums.items()}
        return PuiseuxSeries._of(ram, g.order, g.den, nums, self.trunc - 2 * v)

    def __truediv__(self, other):
        if isinstance(other, EXACT_SCALARS):
            return self * scalar_inverse(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def rescale(self, num: int, den: int) -> "PuiseuxSeries":
        """Substitute q -> q^(num/den), i.e. tau -> (num/den) tau."""
        if num <= 0 or den <= 0:
            raise ValueError("rescale factor must be positive")
        nums = {k * num: x for k, x in self.nums.items()}
        return PuiseuxSeries._of(self.ram * den, self.order, self.den, nums, self.trunc * num)

    # -- comparisons, evaluation, formatting ------------------------------

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._common(self, other)
        return a.trunc == b.trunc and a.den == b.den and a.nums == b.nums

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
            acc += scalar_complex(c) * cmath.exp(2j * cmath.pi * tau * k / self.ram)
        return acc

    def __str__(self):
        bits = []
        for k, c in sorted(self.terms.items()):
            e = Fraction(k, self.ram)
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*q")
            else:
                bits.append(f"{c}*q^({e})")
        bits.append(f"O(q^({Fraction(self.trunc, self.ram)}))")
        return " + ".join(bits)

    def __repr__(self):
        return f"PuiseuxSeries(ram={self.ram}, trunc={self.trunc}, {len(self.nums)} terms)"

    # -- serialization ----------------------------------------------------

    def field_tag(self) -> str:
        """"Q" when every coefficient is rational, else the series' field."""
        if any(any(num[1:]) for num in self.nums.values()):
            return f"Q(zeta_{self.order})"
        return "Q"

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
