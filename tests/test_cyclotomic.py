import cmath
from fractions import Fraction
from random import Random

import pytest

from thetalab.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    zeta,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(16) == 8
    assert euler_phi(24) == 8


def test_root_of_unity_products():
    assert zeta(4) * zeta(4) == -1
    assert zeta(8) ** 4 == -1
    assert zeta(12, 2) * zeta(12, 10) == 1
    assert zeta(5) ** 5 == 1
    # canonical form: equal elements have equal coefficient vectors
    a = zeta(12, 7)
    b = zeta(12) ** 7
    assert a.coeffs == b.coeffs


def test_inverses():
    assert zeta(12).inverse() == zeta(12, 11)
    got = (1 + zeta(4)).inverse()
    assert got == (1 - zeta(4)) / 2
    assert got * (1 + zeta(4)) == 1
    two = CyclotomicNumber.from_rational(2, 8)
    assert two.inverse() == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.from_rational(0, 4).inverse()


def test_product_of_mixed_orders_is_written_in_their_lcm():
    # a product of two orders embeds both operands in their lcm
    assert zeta(4) * zeta(8) == zeta(8, 3)
    assert zeta(4).to_order(8) * zeta(8) == zeta(8, 3)


def test_to_order_of_a_divisor_restricts():
    # writing an element of Q(zeta_t) back in order t undoes the embedding,
    # also where the embedding reduces (t odd, m = 2t) or adds primes
    rng = Random(3)
    for t, m in ((1, 6), (2, 4), (3, 6), (3, 12), (4, 8), (5, 10), (6, 12), (5, 15), (8, 24)):
        for _ in range(10):
            y = CyclotomicNumber(t, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                     for _ in range(euler_phi(t))])
            back = y.to_order(m).to_order(t)
            assert (back.order, back.num, back.den) == (y.order, y.num, y.den)
    with pytest.raises(ValueError):
        zeta(8).to_order(4)  # not in Q(i)
    with pytest.raises(ValueError):
        zeta(4).to_order(6)  # neither a multiple nor a divisor


def test_complex_embedding():
    assert abs(zeta(4).complex_value() - 1j) < 1e-15
    assert abs((zeta(8) + zeta(8, 7)).complex_value() - cmath.sqrt(2)) < 1e-14
    assert CyclotomicNumber.from_rational(0, 6).complex_value() == 0


def test_embedding_is_ring_hom():
    rng = Random(7)
    for m in (8, 12, 16, 24):
        phi = euler_phi(m)
        for _ in range(25):
            a = CyclotomicNumber(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(phi)])
            b = CyclotomicNumber(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(phi)])
            lhs = (a * b).complex_value()
            rhs = a.complex_value() * b.complex_value()
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_random_inverses_are_two_sided():
    rng = Random(3)
    for _ in range(40):
        m = rng.choice((4, 8, 12, 16))
        a = CyclotomicNumber(m, [rng.randint(-5, 5) for _ in range(euler_phi(m))])
        if a.is_zero():
            continue
        inv = a.inverse()
        assert a * inv == 1
        assert inv * a == 1


def test_power_basis_reduction_is_canonical():
    # zeta_8^2 embeds to the same element as zeta_4 after order promotion
    assert zeta(4).to_order(8) == zeta(8) ** 2
    # sums reduce: 1 + zeta_3 + zeta_3^2 = 0
    assert (1 + zeta(3) + zeta(3) ** 2).is_zero()
    assert (zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)) == -1
