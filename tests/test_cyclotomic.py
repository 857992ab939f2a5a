import cmath
from fractions import Fraction
from random import Random

import pytest

from thetalab.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    _mobius,
    euler_phi,
    prime_factors,
    zeta,
)
from thetalab.projective import build_rep_generators
from thetalab.series import PuiseuxSeries


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


def test_to_order_only_embeds():
    # an element is written only in a multiple of its order
    with pytest.raises(ValueError):
        zeta(8).to_order(4)  # a divisor
    with pytest.raises(ValueError):
        zeta(8, 2).to_order(4)  # a divisor, though zeta_8^2 = i lies in Q(i)
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


@pytest.mark.parametrize("m", (8, 24, 32, 96))
def test_inverse_of_a_root_times_a_rational_and_of_a_general_element(m):
    # c zeta^k times its complex conjugate is already rational; 1 + 2 zeta
    # times its conjugate is 5 + 2 (zeta + zeta^-1), which is not, so its
    # inverse needs the other conjugates too
    for c in (3, Fraction(-2, 5)):
        for k in (1, 5, m - 1):
            x = c * zeta(m, k)
            assert x * x.inverse() == 1
            assert x.inverse() == zeta(m, -k) / c
    y = 1 + 2 * zeta(m)
    assert not (y * y._conjugate(m - 1)).is_rational()
    assert y * y.inverse() == 1


def test_power_basis_reduction_is_canonical():
    # zeta_8^2 embeds to the same element as zeta_4 after order promotion
    assert zeta(4).to_order(8) == zeta(8) ** 2
    # sums reduce: 1 + zeta_3 + zeta_3^2 = 0
    assert (1 + zeta(3) + zeta(3) ** 2).is_zero()
    assert (zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)) == -1


def test_prime_factors():
    for n in range(1, 400):
        factors = prime_factors(n)
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes))
        assert all(p > 1 and all(p % d for d in range(2, p)) for p in primes)
        product = 1
        for p, e in factors:
            assert e >= 1
            product *= p**e
        assert product == n
        assert _mobius(n) == (0 if any(e > 1 for _, e in factors) else (-1) ** len(factors))
    assert [_mobius(n) for n in (1, 2, 4, 6, 30, 12)] == [1, -1, 0, 1, -1, 0]


def test_rational_values_read_back_as_fractions():
    # one rule for series coefficients and matrix entries alike: a
    # rational value of Q(zeta_m), m > 1, is a Fraction, the rest are
    # CyclotomicNumbers of the field's order
    terms = {0: zeta(8), 1: zeta(8) ** 4, 2: Fraction(1, 3), 3: zeta(8, 3) * zeta(8)}
    s = PuiseuxSeries(1, terms, 5)
    assert s.order == 8
    for k, want in ((1, Fraction(-1)), (2, Fraction(1, 3)), (3, Fraction(-1))):
        assert type(s.terms[k]) is Fraction and s.terms[k] == want
        assert type(s.coefficient(k)) is Fraction and s.coefficient(k) == want
    assert type(s.coefficient(4)) is Fraction and s.coefficient(4) == 0
    assert (s.terms[0].order, s.coefficient(0)) == (8, zeta(8))
    square = s * s
    assert type(square.terms[4]) is Fraction and square.terms[4] == Fraction(19, 9)
    assert type(square.terms[2]) is CyclotomicNumber and square.terms[1] == -2 * zeta(8)
    A0 = build_rep_generators(4).A0
    rows = (A0 @ A0).rows  # A0^2 = 4 times the permutation X_k -> X_(-k)
    assert all(type(c) is Fraction for r in rows for c in r)
    assert rows == tuple(tuple(Fraction(4 * ((i + j) % 4 == 0)) for j in range(4))
                         for i in range(4))
    # row 1 of A0 is (1, i, -1, -i), written over Q(zeta_8)
    assert [type(c) for c in A0.rows[1]] == [Fraction, CyclotomicNumber, Fraction, CyclotomicNumber]
    assert A0.rows[1][1].order == A0.rows[1][3].order == 8
