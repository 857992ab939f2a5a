"""Property tests of the series kernels: the packed product, the Newton
inverse, the read-back of every result, the ring axioms, the precision
rules, and equality and hashing.

Every product, of rational and cyclotomic coefficients alike, is one
Kronecker substitution in (q, zeta); it is checked against the
schoolbook product over the read-back coefficients, which no library
path uses.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab.cyclotomic import CyclotomicNumber, scalar_is_zero, zeta
from thetalab.identities import mu6_series, x6_series, y6_series
from thetalab.series import PuiseuxSeries

KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=150)

coefficients = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)).filter(bool),
    st.one_of(st.integers(1, 12), st.integers(1, 2**40)),
)
small_coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))


def cyclotomic(parts):
    """x + y * zeta_m^k for m = 4, 8 or 12 and x, y drawn from parts, so a
    series of them mixes orders and may hold rational values written in
    a cyclotomic order."""
    return st.builds(
        lambda m, k, x, y: x + y * zeta(m, k),
        st.sampled_from((4, 8, 12)), st.integers(0, 11), parts, parts,
    ).filter(lambda c: not c.is_zero())


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


def schoolbook_product(a: dict, b: dict, t: int) -> dict:
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


def reference_product(a, b):
    """The schoolbook product, at the truncation min(a.trunc + vb, b.trunc + va)."""
    a, b = PuiseuxSeries._common(a, b)
    va, vb = min(a.terms), min(b.terms)
    t = min(a.trunc + vb, b.trunc + va)
    return PuiseuxSeries(a.ram, schoolbook_product(a.terms, b.terms, t), t)


# a series may mix these with the wide rational coefficients, so wide
# slots also meet every z-power
field_coefficients = st.one_of(coefficients, cyclotomic(small_coefficients))


@KERNEL
@given(series(field_coefficients), series(field_coefficients))
def test_packed_product_matches_schoolbook(a, b):
    prod = a * b
    ref = reference_product(a, b)
    assert prod.ram == ref.ram and prod.trunc == ref.trunc
    assert prod.order == lcm(a.order, b.order)
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


def cut(s, depth):
    """s known only depth exponent steps past its valuation."""
    return PuiseuxSeries(s.ram, s.terms, min(s.trunc, min(s.terms) + depth))


def assert_inverse(s, depth):
    """Check the inverse of s, cut to depth exponent steps past its
    valuation; inverse coefficients grow with the depth, so it stays
    moderate."""
    s = cut(s, depth)
    inv = s.inverse()
    assert inv.trunc == s.trunc - 2 * min(s.terms)
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


# -- read-back of results and the precision rules ------------------------------
#
# A result's terms are read back from its integer store, and the named
# level-6 series are cached and shared between checks.  These tests
# rebuild every result through the public constructor, which encodes its
# terms afresh, and check that no operation changes its operands.

mixed_coefficients = st.one_of(small_coefficients, cyclotomic_coefficients)

# cached series, shared by every check that reads them
named_series = st.sampled_from((x6_series, y6_series, mu6_series)).map(lambda f: f(24))

operands = st.one_of(
    series(coeffs=small_coefficients), series(coeffs=mixed_coefficients), named_series,
)


def typed(terms):
    return {k: (type(k), type(c), c) for k, c in terms.items()}


def snapshot(s):
    return s.ram, s.trunc, typed(s.terms)


def assert_canonical(s):
    assert all(k < s.trunc for k in s.terms)
    assert typed(PuiseuxSeries(s.ram, s.terms, s.trunc).terms) == typed(s.terms)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(operands, operands, st.integers(-2, 3), st.integers(1, 4), st.integers(1, 3))
def test_kernel_results_are_canonical(a, b, n, num, den):
    before = snapshot(a), snapshot(b)
    r = a.ram * b.ram // gcd(a.ram, b.ram)
    fa, fb = r // a.ram, r // b.ram
    va, vb = min(a.terms) * fa, min(b.terms) * fb
    ta, tb = a.trunc * fa, b.trunc * fb

    prod = a * b
    assert (prod.ram, prod.trunc) == (r, min(ta + vb, tb + va))
    assert prod == reference_product(a, b)
    total = a + b
    assert (total.ram, total.trunc) == (r, min(ta, tb))
    diff = a - b
    assert diff == a + (-b)
    small = cut(a, 40)
    results = [
        prod, total, diff, -a, small.inverse(), small ** n, a.rescale(num, den),
        a * PuiseuxSeries(b.ram, {vb // fb: b.terms[vb // fb]}, b.trunc),
    ]
    for s in results:
        assert_canonical(s)
    assert (snapshot(a), snapshot(b)) == before


def test_cyclotomic_results_demote_to_fractions():
    z = zeta(8)
    a = PuiseuxSeries(8, {1: 1 + z, 3: z}, 40)
    b = PuiseuxSeries(8, {1: -z, 3: -z}, 40)
    total = a + b
    assert total.terms == {1: Fraction(1)} and type(total.terms[1]) is Fraction
    mono = PuiseuxSeries(8, {2: z ** 7}, 40)
    prod = PuiseuxSeries(8, {0: z, 5: 2 * z}, 40) * mono
    assert prod.terms == {2: Fraction(1), 7: Fraction(2)}
    assert all(type(c) is Fraction for c in prod.terms.values())


# -- ring axioms, precision rules, equality and hashing ------------------------

ring_coefficients = st.one_of(small_coefficients, cyclotomic(st.integers(-3, 3)))
ring_series = series(coeffs=ring_coefficients)
RING = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@RING
@given(ring_series, ring_series, ring_series)
def test_ring_axioms(a, b, c):
    # the product rule is associative and symmetric, so both sides carry the
    # same truncation; a sum may cancel leading terms and so raise the
    # truncation of a product with it
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * (b + c) - (a * b + a * c)).is_zero()
    assert (a - b - (a + (-1) * b)).is_zero()


@RING
@given(ring_series, st.integers(0, 4), st.integers(1, 4), st.integers(1, 3))
def test_precision_of_powers_and_rescale(s, n, num, den):
    s = cut(s, 40)
    v = min(s.terms)
    power = s ** n
    # one(trunc, ram) times n factors: each truncation is shifted by the
    # valuations of the other factors
    assert power.trunc == (s.trunc if n == 0 else s.trunc + (n - 1) * v + min(v, 0))
    ref = PuiseuxSeries.one(s.trunc, s.ram)
    for _ in range(n):
        ref = ref * s
    assert power == ref
    r = s.rescale(num, den)
    assert r.known_order() == s.known_order() * Fraction(num, den)
    assert r.valuation() == s.valuation() * Fraction(num, den)
    assert r.items() == [(e * Fraction(num, den), c) for e, c in s.items()]


def written_over(s, f, m):
    """s with its ram multiplied by f and every coefficient written as a
    CyclotomicNumber of order m, a multiple of every coefficient's order."""
    lift = {
        k * f: c.to_order(m) if isinstance(c, CyclotomicNumber) else CyclotomicNumber.from_rational(c, m)
        for k, c in s.terms.items()
    }
    return PuiseuxSeries(s.ram * f, lift, s.trunc * f)


@RING
@given(ring_series, st.integers(1, 3), st.sampled_from((24, 48)))
def test_equality_and_hash_across_ram_and_order(s, f, m):
    t = written_over(s, f, m)
    assert t.ram == s.ram * f and t.order == m
    assert t == s and s == t
    assert hash(t) == hash(s)
    assert t.terms == {k * f: c for k, c in s.terms.items()}
    k, c = min(s.terms.items())
    other = PuiseuxSeries(s.ram, {**s.terms, k: c + zeta(8)}, s.trunc)
    assert other != s and written_over(other, f, m) != t
