from fractions import Fraction
from random import Random

import pytest

from thetalab.cyclotomic import zeta
from thetalab.series import PuiseuxSeries, eta_product_oracle, eta_series


def rand_series(rng, ram=1, trunc=30, cyclo=False):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        k = rng.randint(-4, trunc - 1)
        if cyclo:
            terms[k] = zeta(4) * rng.randint(-5, 5) + rng.randint(-5, 5)
        else:
            terms[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return PuiseuxSeries(ram, terms, trunc)


def test_zero_series_prints_its_bound_in_lowest_terms():
    assert str(PuiseuxSeries.zero(6, 4)) == "O(q^(3/2))"
    assert str(PuiseuxSeries.zero(24)) == "O(q^(24))"
    # the bound of a series with terms is written the same way
    assert str(PuiseuxSeries(4, {2: 1}, 6)) == "1*q^(1/2) + O(q^(3/2))"


def test_basic_arithmetic():
    one_plus = PuiseuxSeries(1, {0: 1, 1: 1}, 10)
    one_minus = PuiseuxSeries(1, {0: 1, 1: -1}, 10)
    prod = one_plus * one_minus
    assert prod.items() == [(Fraction(0), Fraction(1)), (Fraction(2), Fraction(-1))]
    x = rand_series(Random(1))
    assert (x + -x).is_zero()
    a = PuiseuxSeries.monomial(Fraction(1), 1, 4, 10)
    b = PuiseuxSeries.monomial(Fraction(1), 1, 8, 10)
    c = a * b
    assert c.ram == 8 and c.items()[0][0] == Fraction(3, 8)


def test_mixed_ramification_alignment():
    a = PuiseuxSeries(2, {1: Fraction(1)}, 20)   # q^(1/2)
    b = PuiseuxSeries(3, {1: Fraction(1)}, 30)   # q^(1/3)
    s = a + b
    assert s.ram == 6
    assert s.items() == [(Fraction(1, 3), Fraction(1)), (Fraction(1, 2), Fraction(1))]


def test_truncation_is_conservative():
    a = PuiseuxSeries(1, {0: 1}, 5)
    b = PuiseuxSeries(1, {0: 1}, 50)
    assert (a * b).trunc == 5
    # multiplication shifts precision by the partner's valuation
    lowval = PuiseuxSeries(1, {-3: 1}, 50)
    assert (a * lowval).trunc == 5 - 3


def test_inverse_examples():
    geo = PuiseuxSeries(1, {0: 1, 1: -1}, 12).inverse()
    assert all(c == 1 for _, c in geo.items())
    half = PuiseuxSeries.monomial(Fraction(1), 1, 2, 10).inverse()
    assert half.items()[0][0] == Fraction(-1, 2)
    s = PuiseuxSeries(4, {1: 2}, 80) * PuiseuxSeries(1, {0: 1, 1: -2}, 20)
    si = s.inverse()
    assert (s * si - 1).is_zero()
    # (1/2) q^(-1/4) (1 + 2q + 4q^2 + ...)
    assert si.items()[0] == (Fraction(-1, 4), Fraction(1, 2))
    assert si.coefficient(3, 4) == 1
    assert si.coefficient(7, 4) == 2
    with pytest.raises(ZeroDivisionError):
        PuiseuxSeries.zero(10).inverse()


def test_inverse_property_randomized():
    rng = Random(11)
    count = 0
    while count < 100:
        s = rand_series(rng, ram=rng.choice((1, 2, 3, 4)), cyclo=(count % 7 == 0))
        if s.is_zero():
            continue
        count += 1
        inv = s.inverse()
        assert (s * inv - 1).is_zero()
        assert (inv * s - 1).is_zero()


def test_ring_axioms_randomized():
    rng = Random(5)
    for _ in range(60):
        r = rng.choice((1, 2, 4))
        a, b, c = (rand_series(rng, ram=r) for _ in range(3))
        assert ((a + b) + c - (a + (b + c))).is_zero()
        assert (a * b - b * a).is_zero()
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert (lhs - rhs).is_zero()
        # associativity of multiplication at the shared truncation
        assert ((a * b) * c - a * (b * c)).is_zero()


def test_rescale():
    s = PuiseuxSeries(1, {1: 1, 3: 1}, 10)
    r = s.rescale(2, 1)
    assert r.items() == [(Fraction(2), Fraction(1)), (Fraction(6), Fraction(1))]
    r = PuiseuxSeries(1, {1: 1}, 10).rescale(1, 3)
    assert r.ram == 3 and r.items()[0][0] == Fraction(1, 3)


def test_rescale_roundtrip_exact():
    rng = Random(23)
    for _ in range(40):
        s = rand_series(rng, ram=rng.choice((1, 2, 3)))
        k = rng.randint(2, 5)
        back = s.rescale(1, k).rescale(k, 1)
        assert back.normalize().ram == s.normalize().ram
        assert back.normalize() == s.normalize()


def test_normalize_strips_common_factors():
    s = PuiseuxSeries(8, {2: 1, 6: 1}, 16)
    n = s.normalize()
    assert n.ram == 4 and n.trunc == 8 and n.terms == {1: 1, 3: 1}


def test_eta_series_against_product_oracle():
    order = 60
    eta = eta_series(order)
    assert eta.ram == 24
    assert eta.items()[0][0] == Fraction(1, 24)
    shifted = eta * PuiseuxSeries(24, {-1: 1}, 24 * order + 1)
    oracle = eta_product_oracle(order)
    assert (shifted - oracle).is_zero()
    # eta^24/q has constant term 1
    p24 = eta ** 24 * PuiseuxSeries(1, {-1: 1}, order + 1)
    assert p24.coefficient(0) == 1


def test_eta_product_inverse_gives_partition_numbers():
    order = 400
    # p(n) by a coin-change count over parts 1, ..., order - 1
    partitions = [1] + [0] * (order - 1)
    for part in range(1, order):
        for n in range(part, order):
            partitions[n] += partitions[n - part]
    oracle = eta_product_oracle(order)
    inv = oracle.inverse()
    assert inv.trunc == order
    assert [inv.coefficient(n) for n in range(order)] == partitions
    # the pentagonal-number expansion agrees with the product to the same depth
    shifted = eta_series(order) * PuiseuxSeries(24, {-1: 1}, 24 * order + 1)
    diff = shifted - oracle
    assert diff.is_zero() and diff.known_order() > order - 1


def test_cyclotomic_coefficients():
    i = zeta(4)
    a = PuiseuxSeries(1, {0: Fraction(1), 1: i}, 10)
    b = PuiseuxSeries(1, {0: Fraction(1), 1: -i}, 10)
    prod = a * b
    assert prod.items() == [(Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))]
    assert prod.field_tag() == "Q"
    assert a.field_tag() == "Q(zeta_4)"


def test_serialization_roundtrip():
    rng = Random(9)
    cases = [rand_series(rng, ram=rng.choice((1, 2, 24)), cyclo=(k % 3 == 0)) for k in range(10)]
    # coefficients of orders 4 and 8 are written in the series' field Q(zeta_8)
    cases.append(PuiseuxSeries(1, {0: zeta(4), 1: zeta(8)}, 5))
    for s in cases:
        t = PuiseuxSeries.from_json(s.to_json())
        assert t == s
        assert t.to_json() == s.to_json()


def test_serialization_schema():
    import json

    s = PuiseuxSeries(4, {1: Fraction(3, 2)}, 12)
    obj = json.loads(s.to_json())
    assert obj == {"ram": 4, "field": "Q", "trunc": 12, "terms": [[1, "3/2"]]}


def test_eval_at_tau():
    import cmath

    s = PuiseuxSeries(2, {1: 1}, 100)  # q^(1/2)
    tau = 0.3 + 1.1j
    want = cmath.exp(2j * cmath.pi * tau / 2)
    assert abs(s.eval_at_tau(tau) - want) < 1e-14
