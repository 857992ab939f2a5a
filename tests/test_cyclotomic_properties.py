"""Property tests of the integer-vector cyclotomic numbers.

Products are checked against a Fraction schoolbook reference, Phi_m
against sympy, and equality and hashing across orders (m, k*m).
"""

import cmath
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab.cyclotomic import CyclotomicNumber, cyclotomic_polynomial, euler_phi, zeta
from thetalab.series import PuiseuxSeries

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# every lcm of three of these is at most 240, so phi stays at most 64
ORDERS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24)

fractions = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40)),
    st.one_of(st.integers(1, 12), st.integers(1, 2**20)),
)


@st.composite
def elements(draw, orders=ORDERS):
    """Coefficient lists up to 2*phi + 2 long, so that __init__ also reduces."""
    m = draw(st.sampled_from(orders))
    coeffs = draw(st.lists(fractions, max_size=2 * euler_phi(m) + 2))
    return CyclotomicNumber(m, coeffs)


def reference_product(a, b):
    """Fraction schoolbook product of the coeffs, then long division by Phi_m."""
    phi, poly = euler_phi(a.order), cyclotomic_polynomial(a.order)
    prod = [Fraction(0)] * (2 * phi - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    for d in range(len(prod) - 1, phi - 1, -1):
        c, prod[d] = prod[d], Fraction(0)
        for j in range(phi):
            prod[d - phi + j] -= c * poly[j]
    return tuple(prod[:phi])


def assert_canonical(x):
    assert len(x.num) == euler_phi(x.order)
    assert all(isinstance(c, int) for c in x.num)
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    if x.is_zero():
        assert x.den == 1


def test_cyclotomic_polynomial_matches_sympy():
    pytest.importorskip("sympy")
    from sympy.polys.specialpolys import cyclotomic_poly

    for m in range(1, 61):
        expected = tuple(int(c) for c in reversed(cyclotomic_poly(m, polys=True).all_coeffs()))
        assert cyclotomic_polynomial(m) == expected, m


@PROPS
@given(elements(), elements(), elements())
def test_field_axioms_across_orders(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    assert a * b == b * a
    for x in (a + b, a * b, a - c, -a, a * c):
        assert_canonical(x)
    if not a.is_zero():
        inv = a.inverse()
        assert_canonical(inv)
        assert a * inv == 1
        assert (b / a) * a == b


@PROPS
@given(elements(), st.data())
def test_product_matches_fraction_reference(a, data):
    b = data.draw(elements(orders=(a.order,)))
    prod = a * b
    assert_canonical(prod)
    assert prod.coeffs == reference_product(a, b)
    assert a.coeffs == tuple(Fraction(x, a.den) for x in a.num)


@PROPS
@given(elements(), elements())
def test_complex_value_is_ring_homomorphism(a, b):
    va, vb = a.complex_value(), b.complex_value()
    # rounding error grows with the coefficients, not with |va * vb|
    size_a, size_b = float(sum(map(abs, a.coeffs))), float(sum(map(abs, b.coeffs)))
    scale = max(1.0, size_a * size_b, size_a + size_b)
    assert abs((a * b).complex_value() - va * vb) < 1e-9 * scale
    assert abs((a + b).complex_value() - (va + vb)) < 1e-9 * scale
    assert abs(zeta(a.order).complex_value() - cmath.exp(2j * cmath.pi / a.order)) < 1e-12


@PROPS
@given(elements(), st.integers(1, 6))
def test_equality_and_hash_survive_embedding(a, k):
    b = a.to_order(k * a.order)
    assert_canonical(b)
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    if a.is_rational():
        q = a.rational_value()
        assert a == q and hash(a) == hash(q)
        if q.denominator == 1:
            assert hash(a) == hash(int(q))


def test_hash_agrees_for_equal_roots_of_unity():
    assert zeta(4) == zeta(8) ** 2
    assert len({zeta(4), zeta(8) ** 2}) == 1
    assert len({zeta(3), zeta(6) ** 2, zeta(12) ** 4, zeta(5)}) == 2
    assert hash(zeta(8) ** 4) == hash(-1) and hash(zeta(6, 0)) == hash(Fraction(1))
    s = PuiseuxSeries(1, {0: zeta(4), 2: Fraction(1, 3) + zeta(12)}, 5)
    t = PuiseuxSeries(1, {0: zeta(8) ** 2, 2: Fraction(1, 3) + zeta(24) ** 2}, 5)
    assert s == t
    assert hash(s) == hash(t)
    assert len({s, t}) == 1
