"""Property tests of the packed series product and the Newton inverse.

The packed product is checked against the schoolbook product, which is
the path cyclotomic coefficients take.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab.cyclotomic import zeta
from thetalab.series import PuiseuxSeries, _schoolbook_product

KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=150)

coefficients = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)).filter(bool),
    st.one_of(st.integers(1, 12), st.integers(1, 2**40)),
)


@st.composite
def series(draw, coeffs=coefficients):
    """A series on a coset of a stride, with a possibly negative valuation.

    Lists of one offset give single-term operands, offsets up to 2000
    strides give sparse operands with wide gaps, and the truncation may sit
    far past the last term, so that the partner's truncation decides which
    terms reach the product."""
    ram = draw(st.sampled_from((1, 2, 3, 4, 8, 24)))
    stride = draw(st.sampled_from((1, 2, 3, 5, 24)))
    val = draw(st.integers(-40, 40))
    offsets = draw(st.lists(
        st.one_of(st.integers(0, 30), st.integers(0, 2000)), min_size=1, max_size=10, unique=True,
    ))
    terms = {val + stride * d: draw(coeffs) for d in offsets}
    trunc = max(terms) + draw(st.one_of(st.integers(1, 40), st.integers(1, 5000)))
    return PuiseuxSeries(ram, terms, trunc)


def reference_product(a, b):
    """The schoolbook product, at the truncation min(a.trunc + vb, b.trunc + va)."""
    a, b = PuiseuxSeries._common(a, b)
    va, vb = min(a.terms), min(b.terms)
    t = min(a.trunc + vb, b.trunc + va)
    return PuiseuxSeries(a.ram, _schoolbook_product(a.terms, b.terms, t), t)


@KERNEL
@given(series(), series())
def test_packed_product_matches_schoolbook(a, b):
    prod = a * b
    ref = reference_product(a, b)
    assert prod.ram == ref.ram and prod.trunc == ref.trunc
    assert prod.terms == ref.terms


def _coprime_den(x):
    return next(d for d in (3, 5, 7, 11, 13) if x % d)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("delta", (-1, 0, 1))
@pytest.mark.parametrize("nbytes", (1, 2, 3, 8))
def test_packed_product_at_slot_byte_boundary(nbytes, delta, sign):
    # a's m coefficients x/da scale to x and b's m coefficients sign/2 to
    # sign, so the slot bound m*x*1 is the target; the middle slot reaches
    # it, because all m of its term pairs add the same sign
    target = 2 ** (8 * nbytes - 1) + delta
    m = next((d for d in range(2, 64) if target % d == 0), 1)
    x = target // m
    da = _coprime_den(x)
    a = PuiseuxSeries(24, {-7 + 3 * i: Fraction(x, da) for i in range(m)}, 400)
    b = PuiseuxSeries(8, {2 + i: Fraction(sign, 2) for i in range(m)}, 300)
    prod = a * b
    assert prod.coefficient(-1 + 3 * (m - 1), 24) == Fraction(sign * target, 2 * da)
    assert prod.terms == reference_product(a, b).terms


small_coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))


def assert_inverse(s, depth):
    """Check the inverse of s, cut to depth exponent steps past its
    valuation; inverse coefficients grow with the depth, so it stays
    moderate."""
    v = min(s.terms)
    s = PuiseuxSeries(s.ram, s.terms, min(s.trunc, v + depth))
    inv = s.inverse()
    assert inv.trunc == s.trunc - 2 * v
    assert (s * inv - 1).is_zero()


@KERNEL
@given(series(coeffs=small_coefficients))
def test_inverse_of_rational_series(s):
    assert_inverse(s, 300)


cyclotomic_coefficients = st.builds(
    lambda x, y: x + y * zeta(8) if x or y else Fraction(1),
    st.integers(-3, 3), st.integers(-3, 3),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(series(coeffs=st.one_of(small_coefficients, cyclotomic_coefficients)))
def test_inverse_of_cyclotomic_series(s):
    assert_inverse(s, 40)
