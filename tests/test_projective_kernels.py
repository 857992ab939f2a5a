"""Tests of the exact projective kernels: the packed matrix product and
the closed-form inverses.

A matrix is written over the field Q(zeta_m), m the lcm of its entries'
orders, and reads each entry back by one rule: a Fraction for a
rational value (zero included), a CyclotomicNumber of order m
otherwise.  So the packed product is checked against a copy of the
entry-by-entry scalar product, and the closed-form inverses against
Gauss-Jordan elimination, which only the tests keep, each over the
operands lifted into that
field and read back by the same rule: equal entries of one type, each
CyclotomicNumber of the field's order, and bit-identical complex values.
"""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab.cyclotomic import CyclotomicNumber, euler_phi, zeta
from thetalab.packing import pack, pack_width, slot_width, unpack
from thetalab.projective import (
    ProjectiveMatrix,
    build_canonical_matrices,
    build_rep_generators,
    build_rho_bar,
    restrict_to_fixed_space,
)

KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=120)


# ---------------------------------------------------------------------------
# test-only references


def is_zero(x):
    return x.is_zero() if isinstance(x, CyclotomicNumber) else x == 0


def reference_dot(row, col):
    """One entry of a product, scalar by scalar, skipping zero terms."""
    acc = None
    for x, y in zip(row, col):
        if is_zero(x) or is_zero(y):
            continue
        t = x * y
        acc = t if acc is None else acc + t
    if acc is None:
        return row[0] * 0
    return acc


def reference_product(a, b):
    cols = list(zip(*b))
    return [[reference_dot(row, col) for col in cols] for row in a]


def reference_inverse(rows):
    """Gauss-Jordan elimination over the scalars."""
    n = len(rows)
    a = [list(r) for r in rows]
    b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if not is_zero(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        p = a[col][col]
        pinv = p.inverse() if isinstance(p, CyclotomicNumber) else 1 / Fraction(p)
        a[col] = [pinv * x for x in a[col]]
        b[col] = [pinv * x for x in b[col]]
        for r in range(n):
            if r != col and not is_zero(a[r][col]):
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] = [x - f * y for x, y in zip(b[r], b[col])]
    return b


def field_order(*matrices):
    """The order m of the field Q(zeta_m) that a block of these entries,
    or their product, is written over."""
    return lcm(1, *(c.order for rows in matrices for r in rows for c in r
                    if isinstance(c, CyclotomicNumber)))


def lift(rows, m):
    """The rows with every entry written as a scalar of Q(zeta_m): a
    Fraction at m = 1, else a CyclotomicNumber of order m."""
    def one(x):
        if m == 1:
            return x.rational_value() if isinstance(x, CyclotomicNumber) else Fraction(x)
        if isinstance(x, CyclotomicNumber):
            return x.to_order(m)
        return CyclotomicNumber.from_rational(x, m)

    return [[one(x) for x in r] for r in rows]


def to_complex(rows):
    conv = [[c.complex_value() if isinstance(c, CyclotomicNumber) else complex(c) for c in r]
            for r in rows]
    return np.array(conv, dtype=complex)


def read_back(x):
    """A scalar of the field as a matrix reads it back: a Fraction for a
    rational value."""
    if isinstance(x, CyclotomicNumber) and x.is_rational():
        return x.rational_value()
    return x


def same_scalar(x, y):
    """Equal as elements, of one type, and of one order if cyclotomic."""
    if type(x) is not type(y):
        return False
    if isinstance(x, CyclotomicNumber):
        return (x.order, x.num, x.den) == (y.order, y.num, y.den)
    return x == y


def assert_same_product(got, want):
    """Equal entries of one type, each CyclotomicNumber of the order of
    the reference's, and bit-identical complex values; the reference is
    read back by the matrices' rule first."""
    want = [[read_back(y) for y in w] for w in want]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for x, y in zip(g, w):
            assert x == y
            assert same_scalar(x, y), (x, y)
    assert to_complex(got).tobytes() == to_complex(want).tobytes()


# ---------------------------------------------------------------------------
# strategies


# an order m together with 2m mixes embeddings with and without reduction
BASE_ORDERS = (1, 2, 3, 4, 5, 6, 8)

fractions = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40)),
    st.one_of(st.integers(1, 12), st.integers(1, 2**20)),
)


@st.composite
def scalars(draw, m):
    kind = draw(st.sampled_from(("zero", "fraction", "cyclotomic", "cyclotomic2")))
    if kind == "zero":
        return draw(st.sampled_from((Fraction(0), CyclotomicNumber(m, []))))
    if kind == "fraction":
        return draw(fractions)
    order = m if kind == "cyclotomic" else 2 * m
    coeffs = draw(st.lists(fractions, max_size=euler_phi(order)))
    return CyclotomicNumber(order, coeffs)


@st.composite
def matrices(draw, m, n):
    rows = [[draw(scalars(m)) for _ in range(n)] for _ in range(n)]
    # zero rows and columns, so that some entries get no term at all
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [Fraction(0)] * n
    if n > 1 and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for r in rows:
            r[j] = CyclotomicNumber(m, [])
    return rows


@st.composite
def products(draw):
    """Two n x n matrices, n = 1..5, over Q(zeta_m) and Q(zeta_2m)."""
    m = draw(st.sampled_from(BASE_ORDERS))
    n = draw(st.integers(1, 5))
    return draw(matrices(m, n)), draw(matrices(m, n))


# ---------------------------------------------------------------------------
# the packed product


@KERNEL
@given(products())
def test_packed_product_matches_reference(pair):
    a, b = pair
    m = field_order(a, b)
    got = ProjectiveMatrix(a) @ ProjectiveMatrix(b)
    assert_same_product(got.rows, reference_product(lift(a, m), lift(b, m)))


@KERNEL
@given(products())
def test_square_matrix_product_and_complex_array(pair):
    a, b = pair
    got = ProjectiveMatrix(a) @ ProjectiveMatrix(b)
    # a product of a product whose rows were never read
    again = got @ ProjectiveMatrix(b)
    m = field_order(a, b)
    want = reference_product(lift(a, m), lift(b, m))
    assert got.complex_array().tobytes() == to_complex(want).tobytes()
    assert_same_product(again.rows, reference_product(want, lift(b, m)))


@pytest.mark.parametrize("N", range(2, 17, 2))
def test_restrict_to_fixed_space(N):
    gens = build_rep_generators(N)
    h = N // 2
    compress = [[Fraction(int(j in (i, N - i))) for j in range(N)] for i in range(h + 1)]
    expand = [[Fraction(1 if i == j or N - i == j else 0) / (1 if j in (0, h) else 2)
               for j in range(h + 1)] for i in range(N)]
    for mat in (gens.A0, gens.B0, gens.A0 @ gens.B0):
        m = field_order(mat.rows)
        want = reference_product(
            lift(compress, m), reference_product(lift(mat.rows, m), lift(expand, m))
        )
        got = restrict_to_fixed_space(mat, N)
        assert_same_product(got.rows, want)
        # matrices are exact only: numeric entries are refused, and a
        # matrix multiplies only a matrix, not a coordinate sequence
        with pytest.raises(TypeError):
            ProjectiveMatrix(mat.complex_array())
        with pytest.raises(TypeError):
            mat @ ([1.0 + 0j] * N)
    with pytest.raises(ValueError):
        restrict_to_fixed_space(gens.A0, N + 2)


def ones(order, c):
    """c * (1 + z + ... + z^(phi-1)): every slot of it is c."""
    return CyclotomicNumber(order, [c] * euler_phi(order))


@pytest.mark.parametrize("order", (1, 4, 12))
@pytest.mark.parametrize("inner", (1, 3))
def test_slot_width_boundaries(order, inner):
    # all-equal slots make one product slot reach the bound
    # inner * phi * max|a| * max|b| exactly; sweep it across 2^(8w-1).
    # The first row of a and the first column of b are full, and every
    # other entry is zero.
    phi = euler_phi(order)
    zero = Fraction(0)
    b = [[ones(order, 1)] + [zero] * (inner - 1) for _ in range(inner)]
    for w in (1, 2, 4, 8):
        top = 2 ** (8 * w - 1)
        base = top // (inner * phi)
        for c in (base - 1, base, base + 1, -base, -base - 1):
            a = [[ones(order, c)] * inner] + [[zero] * inner for _ in range(inner - 1)]
            got = ProjectiveMatrix(a) @ ProjectiveMatrix(b)
            m = field_order(a, b)
            assert_same_product(got.rows, reference_product(lift(a, m), lift(b, m)))


def test_pack_roundtrip_at_byte_boundaries():
    # both products pack at 1, 2, 4 or 8 bytes, or at the exact wider width
    packed = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 9, 16: 16}
    for width in (1, 2, 3, 4, 5, 8, 9, 16):
        top = 2 ** (8 * width - 1)
        slots = [top - 1, -(top - 1), 0, 1, -1, top // 2]
        assert slot_width(top - 1) == width
        assert slot_width(top) == width + 1
        assert pack_width(top - 1) == packed[width]
        value = pack(slots, width)
        assert value == sum(c << (8 * width * i) for i, c in enumerate(slots))
        assert unpack(value, width, len(slots)) == slots
        # slots above the n read are cut, whatever their sign
        assert unpack(value - (5 << (8 * width * len(slots))), width, len(slots)) == slots


def test_power_without_identity():
    gens = build_rep_generators(6)
    a0 = gens.A0
    acc = a0
    for k in range(1, 9):
        assert_same_product(a0.power(k).rows, acc.rows)
        acc = acc @ a0
    assert a0.power(0).proj_eq(ProjectiveMatrix.identity(6))
    assert_same_product(a0.power(-3).rows, a0.inverse().power(3).rows)


# ---------------------------------------------------------------------------
# projective equality


def reference_proj_eq(u, v):
    """Projective equality of two scalar vectors by cross-multiplying
    every pair against the first nonzero place of u."""
    pivot = next((i for i, x in enumerate(u) if not is_zero(x)), None)
    if pivot is None or is_zero(v[pivot]):
        return False
    a, b = u[pivot], v[pivot]
    return all(is_zero(x * b - y * a) for x, y in zip(u, v))


# (order of the matrix's base field, order of the scale factor)
SCALE_ORDERS = ((4, 16), (1, 1), (1, 3), (3, 12), (5, 10), (6, 4))


@st.composite
def scaled_vectors(draw):
    """(u, c, c * u): u of length 1..25 over Q(zeta_m) and Q(zeta_2m), c a
    nonzero scalar of another order."""
    m, mc = draw(st.sampled_from(SCALE_ORDERS))
    u = draw(st.lists(scalars(m), min_size=1, max_size=25))
    coeffs = draw(st.lists(fractions, min_size=1, max_size=euler_phi(mc)))
    c = CyclotomicNumber(mc, coeffs) if mc > 1 else coeffs[0]
    if is_zero(c):
        c = c + 1
    return u, c, [c * x for x in u]


def as_square(u):
    """The vector as the rows of a square matrix, padded with zeros."""
    n = 1
    while n * n < len(u):
        n += 1
    flat = list(u) + [Fraction(0)] * (n * n - len(u))
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def matrices_proj_eq(u, v):
    return ProjectiveMatrix(as_square(u)).proj_eq(ProjectiveMatrix(as_square(v)))


def nonzero_places(u):
    return [i for i, x in enumerate(u) if not is_zero(x)]


@KERNEL
@given(scaled_vectors())
def test_proj_eq_accepts_scalar_multiples(case):
    u, c, v = case
    want = bool(nonzero_places(u))  # the zero matrix is no projective class
    assert reference_proj_eq(u, v) == want
    assert matrices_proj_eq(u, v) == want
    assert matrices_proj_eq(v, u) == want


@KERNEL
@given(scaled_vectors(), st.data())
def test_proj_eq_rejects_changed_entries(case, data):
    u, c, v = case
    places = nonzero_places(u)
    if len(places) < 2:
        return
    i = data.draw(st.sampled_from(places))
    # one entry changed: doubled, while every other entry keeps the factor c
    changed = v[:i] + [2 * v[i]] + v[i + 1:]
    # a different zero pattern: that entry dropped
    dropped = v[:i] + [Fraction(0)] + v[i + 1:]
    for w in (changed, dropped):
        assert not reference_proj_eq(u, w)
        assert not matrices_proj_eq(u, w)
        assert not matrices_proj_eq(w, u)


@KERNEL
@given(scaled_vectors())
def test_proj_eq_rejects_zero_scale(case):
    u, _, _ = case
    zero = [0 * x for x in u]
    assert not reference_proj_eq(u, zero)
    assert not matrices_proj_eq(u, zero)
    assert not matrices_proj_eq(zero, u)


@KERNEL
@given(products())
def test_proj_eq_matches_cross_multiplication(pair):
    a, b = pair
    want = reference_proj_eq([x for r in a for x in r], [x for r in b for x in r])
    assert ProjectiveMatrix(a).proj_eq(ProjectiveMatrix(b)) == want


# ---------------------------------------------------------------------------
# closed-form inverses


def assert_same_inverse(mat):
    m = field_order(mat.rows)
    assert_same_product(mat.inverse().rows, reference_inverse(lift(mat.rows, m)))


@pytest.mark.parametrize("N", range(2, 17))
def test_closed_form_inverses_match_gauss_jordan(N):
    can = build_canonical_matrices(N)
    for mat in (can.M_S, can.M_T, can.M_inv):
        assert_same_inverse(mat)
    if N % 2 == 0:
        gens = build_rep_generators(N)
        rb = build_rho_bar(N)
        for mat in (gens.A0, gens.B0, rb.Abar, rb.Abar_null, rb.Bbar, rb.Bbar_null):
            assert_same_inverse(mat)
            ident = ProjectiveMatrix.identity(mat.n).rows
            assert (mat @ mat.inverse()).rows == ident
            assert (mat.inverse() @ mat).rows == ident


def test_inverse_is_kept():
    gens = build_rep_generators(8)
    assert gens.A0.inverse() is gens.A0.inverse()
    assert build_rep_generators(8) is gens
    assert build_canonical_matrices(8) is build_canonical_matrices(8)


def test_general_inverse():
    # a matrix that is neither monomial (one nonzero entry in every row,
    # in distinct columns) nor built with its inverse has no closed-form
    # inverse: a dense matrix, one entry per row in a repeated column,
    # and an all-zero row beside single entries in distinct columns
    rb = build_rho_bar(8)
    one, zero = Fraction(1), Fraction(0)
    repeated = ProjectiveMatrix([[one, zero], [zeta(4), zero]])
    zero_row = ProjectiveMatrix([[zero, one, zero], [zero] * 3, [zeta(3), zero, zero]])
    for mat in (rb.Abar @ rb.Bbar, repeated, zero_row):
        with pytest.raises(ValueError, match="no closed-form inverse"):
            mat.inverse()
        with pytest.raises(ValueError, match="no closed-form inverse"):
            mat.power(-1)
