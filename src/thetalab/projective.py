"""Projective matrices, the finite matrix groups acting on the theta
coordinates, and the immersion checks they take part in.

Matrices are exact: the translation matrices and the generators of the
projective representation have cyclotomic entries, and group relations
are brittle under rounding.  A matrix is held as one _ExactBlock over
one field Q(zeta_m), m the lcm of its entries' orders, and its entries
read back by the one rule of `field_scalar`: a Fraction for a rational
value (zero included) at every m, a CyclotomicNumber of order m
otherwise.  A product is written in the lcm of its operands' orders.
The immersion checks read matrices as each row's nonzero complex
entries (`_complex_rows`), applied in plain Python to the coordinates
of a point or of an array of points; `complex_array`, the dense numpy
matrix, serves as a reference for tests.  A point of the immersion is
its sequence of complex coordinates, compared as a projective point by
theta.proj_residual; proj_eq compares matrices as classes in PGL.

Exact matrices are multiplied as integer vectors over their field,
packed one int per entry (Kronecker substitution, see packing.py): each
output row's nonzero entries are laid side by side in one int and
unpacked once, and the whole product is reduced modulo the cyclotomic
polynomial once.  Projective equality B ~ A compares the zero patterns,
then takes one packed cross product A * b_p - B * a_p over every entry,
p the first nonzero place, and reduces it once.  Every inverse comes in
closed form: a monomial matrix inverts its pattern and its entries, and
A0 (a DFT matrix) and the rho-bar matrices carry theirs from
construction; any other matrix has none.  The group checks test each
relation in the form that needs the fewest products: X^(-1) Y X ~ Z as
Y X ~ X Z, a word W1 W2 ~ I as W1 ~ W2^(-1), and an order n as M^n ~ I
with M^(n/p) not ~ I for each prime p | n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from typing import NamedTuple

from .congruence import sl2_inv, sl2_mul
from .cyclotomic import (
    embed_vector,
    encode_scalars,
    euler_phi,
    field_scalar,
    prime_factors,
    reduce_vectors,
    scalar_complex,
    scalar_inverse,
    scalar_is_zero,
    zeta,
)
from .lazy import np
from .packing import pack, pack_many, pack_width, unpack
from .theta import ThetaContext, largest, proj_residual, sample_stream, sample_units, theta_N_eval


# ---------------------------------------------------------------------------
# projective matrices


class ProjectiveMatrix:
    """A class in PGL_N: an exact N x N matrix modulo nonzero scalars.

    The matrix is held as one _ExactBlock; its `rows` of scalars are
    read back from the block, by the rule in the module docstring, when
    first asked for.  Each matrix computes its inverse at most once and
    keeps it.  An entry that is not an int, a Fraction or a
    CyclotomicNumber raises TypeError.
    """

    __slots__ = ("_block", "_rows", "_inv", "n")

    def __init__(self, rows):
        rows = [tuple(r) for r in rows]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        self._block, self._rows, self._inv = _ExactBlock.from_rows(rows), None, None
        self.n = len(rows)

    @staticmethod
    def _of_block(block: "_ExactBlock") -> "ProjectiveMatrix":
        m = object.__new__(ProjectiveMatrix)
        m._block, m._rows, m._inv = block, None, None
        m.n = block.ncols
        return m

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            self._rows = self._block.scalars()
        return self._rows

    @staticmethod
    def identity(n: int) -> "ProjectiveMatrix":
        one, zero = Fraction(1), Fraction(0)
        return ProjectiveMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "ProjectiveMatrix") -> "ProjectiveMatrix":
        if not isinstance(other, ProjectiveMatrix):
            raise TypeError(f"cannot multiply ProjectiveMatrix by {type(other).__name__}")
        if self.n != other.n:
            raise ValueError("size mismatch")
        return ProjectiveMatrix._of_block(self._block @ other._block)

    def power(self, k: int) -> "ProjectiveMatrix":
        if k < 0:
            return self.inverse().power(-k)
        if k == 0:
            return ProjectiveMatrix.identity(self.n)
        acc, base = None, self
        while True:
            if k & 1:
                acc = base if acc is None else acc @ base
            k >>= 1
            if not k:
                return acc
            base = base @ base

    def inverse(self) -> "ProjectiveMatrix":
        """The inverse in closed form: the one stored at construction (A0
        and the rho-bar matrices), or the monomial inverse.  Any other
        matrix raises ValueError."""
        if self._inv is None:
            perm = self._block.monomial_pattern()
            if perm is None:
                raise ValueError(f"no closed-form inverse for this {self.n} x {self.n} matrix")
            self._inv = _monomial_inverse(self.rows, perm)
        return self._inv

    def proj_eq(self, other: "ProjectiveMatrix") -> bool:
        """Equality as classes in PGL."""
        return self.n == other.n and self._block.proj_eq(other._block)

    def complex_array(self) -> np.ndarray:
        return np.array([[scalar_complex(c) for c in row] for row in self.rows], dtype=complex)

    def __repr__(self):
        return f"ProjectiveMatrix({self.n}x{self.n})"


def _monomial_inverse(rows, perm) -> ProjectiveMatrix:
    """The inverse of a matrix whose row r has its one nonzero entry in
    column perm[r]: transpose the pattern and invert the entries."""
    zero = Fraction(0)
    out = [None] * len(rows)
    for r, c in enumerate(perm):
        pinv = scalar_inverse(rows[r][c])
        out[c] = [pinv if j == r else zero for j in range(len(rows))]
    return ProjectiveMatrix(out)


# ---------------------------------------------------------------------------
# the exact kernel


class _ExactBlock:
    """An exact r x c matrix written over one field Q(zeta_order) with one
    common denominator.

    Row i lists its nonzero entries as (j, num): the entry is
    sum(num[d] * z^d) / den in the power basis modulo Phi_order.  Zero
    entries are left out.  `scalars` reads every entry back by the rule
    of `field_scalar`: a Fraction for a rational value, zero included,
    and a CyclotomicNumber of the block's order otherwise.  A block is
    never changed after it is built, so it keeps its largest coefficient
    and its packed rows once computed.
    """

    __slots__ = ("order", "den", "nz", "ncols", "_max", "_packed")

    def __init__(self, order: int, den: int, nz: tuple, ncols: int):
        self.order, self.den, self.nz, self.ncols = order, den, nz, ncols
        self._max, self._packed = None, {}

    @staticmethod
    def from_rows(rows) -> "_ExactBlock":
        """The block of rows of exact scalars, over the lcm of their orders."""
        order, den, nums = encode_scalars([c for r in rows for c in r])
        it = iter(nums)
        nz = tuple(tuple((j, num) for j, num in zip(range(len(r)), it) if any(num)) for r in rows)
        return _ExactBlock(order, den, nz, len(rows[0]) if rows else 0)

    def to_order(self, order: int) -> "_ExactBlock":
        """The same matrix written over Q(zeta_order), a multiple of self.order."""
        if order == self.order:
            return self
        nz = tuple(
            tuple((j, embed_vector(self.order, num, order)) for j, num in row) for row in self.nz
        )
        return _ExactBlock(order, self.den, nz, self.ncols)

    def packed(self, width: int) -> list:
        """Rows of (j, packed num) at the given slot width."""
        rows = self._packed.get(width)
        if rows is None:
            ints = iter(pack_many([num for row in self.nz for _, num in row], width))
            rows = self._packed[width] = [[(j, next(ints)) for j, _ in row] for row in self.nz]
        return rows

    def max_abs(self) -> int:
        if self._max is None:
            nums = [x for row in self.nz for _, num in row for x in num]
            self._max = max(max(nums), -min(nums)) if nums else 0
        return self._max

    def __matmul__(self, other: "_ExactBlock") -> "_ExactBlock":
        """The product over the lcm of the two orders: each entry a
        row-sparse sum of packed int products; each output row's nonzero
        entries are unpacked at once, and the product is reduced modulo
        Phi once."""
        order = lcm(self.order, other.order)
        a, b = self.to_order(order), other.to_order(order)
        phi = euler_phi(order)
        nslots = 2 * phi - 1
        inner = max((len(row) for row in a.nz), default=0)
        # an output slot sums at most inner * phi coefficient products
        bound = a.max_abs() * b.max_abs() * inner * phi
        if not bound:
            return _ExactBlock(order, 1, ((),) * len(a.nz), b.ncols)
        width = pack_width(bound)
        pb = b.packed(width)
        shift = 8 * width * nslots
        places, flat = [], []
        for row in a.packed(width):
            acc = [0] * b.ncols
            for k, x in row:
                for j, y in pb[k]:
                    acc[j] += x * y
            js = [j for j, s in enumerate(acc) if s]
            if js:
                # the row's nonzero entries side by side, nslots slots each
                packed_row = sum(acc[j] << (shift * i) for i, j in enumerate(js))
                flat += unpack(packed_row, width, nslots * len(js))
            places.append(js)
        nums = reduce_vectors(order, flat, nslots)
        nz = [tuple((j, num) for j, num in zip(js, nums) if any(num)) for js in places]
        den = a.den * b.den
        if den > 1:
            g = gcd(den, *(x for row in nz for _, num in row for x in num))
            if g > 1:
                den //= g
                nz = [tuple((j, tuple(x // g for x in num)) for j, num in row) for row in nz]
        return _ExactBlock(order, den, tuple(nz), b.ncols)

    def proj_eq(self, other: "_ExactBlock") -> bool:
        """Whether other = c * self for a nonzero scalar c.

        The zero patterns must agree.  Then, over the lcm of the two
        orders and with p the first nonzero place, every entry must have
        a_ij * b_p - b_ij * a_p = 0: the numerators of all entries are
        packed side by side, 2 phi - 1 slots apart, so that one packed
        product of each block with the other's pivot gives every cross
        product, and the difference is unpacked and reduced once.  The
        common denominators are scalars, so they drop out."""
        if self.ncols != other.ncols or len(self.nz) != len(other.nz):
            return False
        if any([j for j, _ in r] != [j for j, _ in s] for r, s in zip(self.nz, other.nz)):
            return False
        order = lcm(self.order, other.order)
        a, b = self.to_order(order), other.to_order(order)
        xs = [num for row in a.nz for _, num in row]
        ys = [num for row in b.nz for _, num in row]
        if not xs:
            return False
        phi = euler_phi(order)
        stride = 2 * phi - 1
        ap, bp = xs[0], ys[0]
        # a slot of a_ij * b_p sums at most phi coefficient products
        bound = phi * (a.max_abs() * max(map(abs, bp)) + b.max_abs() * max(map(abs, ap)))
        width = pack_width(bound)
        sa, sb = [0] * (stride * len(xs)), [0] * (stride * len(xs))
        for i, x, y in zip(range(0, len(sa), stride), xs, ys):
            sa[i:i + phi], sb[i:i + phi] = x, y
        diff = pack(sa, width) * pack(bp, width) - pack(sb, width) * pack(ap, width)
        if not diff:
            return True
        flat = unpack(diff, width, len(sa))
        return not any(any(num) for num in reduce_vectors(order, flat, stride))

    def scalars(self) -> tuple:
        """The entries as scalars of the block's field."""
        zero = Fraction(0)
        out = []
        for row in self.nz:
            vals = [zero] * self.ncols
            for j, num in row:
                vals[j] = field_scalar(self.order, num, self.den)
            out.append(tuple(vals))
        return tuple(out)

    def monomial_pattern(self) -> list | None:
        """perm with row r's one nonzero entry in column perm[r], if every
        row and every column has exactly one nonzero entry."""
        if any(len(row) != 1 for row in self.nz):
            return None
        perm = [row[0][0] for row in self.nz]
        return perm if len(set(perm)) == self.ncols == len(perm) else None


# ---------------------------------------------------------------------------
# SL_2(Z) words


SL2_A = (0, -1, 1, 0)
SL2_B = (1, 1, 0, 1)


class SL2Word(NamedTuple):
    """A word in the generators A = (0,-1;1,0) and B = (1,1;0,1)."""

    letters: tuple  # pairs (symbol, exponent), symbol in {"A", "B"}

    def evaluate_int(self):
        m = (1, 0, 0, 1)
        for sym, k in self.letters:
            g = SL2_A if sym == "A" else SL2_B
            if k < 0:
                g = sl2_inv(g)
                k = -k
            for _ in range(k):
                m = sl2_mul(m, g)
        return m

    def evaluate_proj(self, A0: ProjectiveMatrix, B0: ProjectiveMatrix) -> ProjectiveMatrix:
        acc = None
        for sym, k in self.letters:
            g = (A0 if sym == "A" else B0).power(k)
            acc = g if acc is None else acc @ g
        return ProjectiveMatrix.identity(A0.n) if acc is None else acc

    def inverse(self) -> "SL2Word":
        return SL2Word(tuple((sym, -k) for sym, k in reversed(self.letters)))

    def maps_to_scalar(self, A0: ProjectiveMatrix, B0: ProjectiveMatrix) -> bool:
        """Whether the word's image is ~ I, tested as W1 ~ W2^(-1) for the
        halves W = W1 W2 split at the middle letter: each half has about
        half the dense factors, and the two halves take fewer dense x
        dense products than the whole word."""
        half = len(self.letters) // 2
        w1 = SL2Word(self.letters[:half]).evaluate_proj(A0, B0)
        return w1.proj_eq(SL2Word(self.letters[half:]).inverse().evaluate_proj(A0, B0))


# ---------------------------------------------------------------------------
# canonical matrices and the projective representation


class CanonicalMatrices(NamedTuple):
    M_S: ProjectiveMatrix
    M_T: ProjectiveMatrix
    M_inv: ProjectiveMatrix


@lru_cache(maxsize=None)
def build_canonical_matrices(N: int) -> CanonicalMatrices:
    """The translation matrices M_S (cyclic shift), M_T = diag(zeta_N^i),
    and the inversion M_inv: X_k -> X_(-k); built once per N."""
    one, zero, z = Fraction(1), Fraction(0), zeta(N)
    ms = [[one if i == (j + 1) % N else zero for j in range(N)] for i in range(N)]
    mt = [[z**i if i == j else zero for j in range(N)] for i in range(N)]
    mi = [[one if i == (-j) % N else zero for j in range(N)] for i in range(N)]
    return CanonicalMatrices(ProjectiveMatrix(ms), ProjectiveMatrix(mt), ProjectiveMatrix(mi))


class RepGenerators(NamedTuple):
    A0: ProjectiveMatrix
    B0: ProjectiveMatrix


@lru_cache(maxsize=None)
def build_rep_generators(N: int) -> RepGenerators:
    """A0 = [zeta_N^(ij)] and B0 = Diag(zeta_2N^(i(N-i))), both written
    over Q(zeta_2N), zeta_N = zeta_2N^2; built once per N.

    A0 comes with its inverse N^(-1) [zeta_N^(-ij)] (a DFT matrix)."""
    if N % 2:
        raise ValueError("the projective representation generators need even N")
    powers = [zeta(2 * N, 2 * k) for k in range(N)]
    scaled = [x * Fraction(1, N) for x in powers]
    A0 = ProjectiveMatrix([[powers[i * j % N] for j in range(N)] for i in range(N)])
    A0._inv = ProjectiveMatrix([[scaled[-i * j % N] for j in range(N)] for i in range(N)])
    zero = Fraction(0)
    b0 = [[zeta(2 * N, i * (N - i)) if i == j else zero for j in range(N)] for i in range(N)]
    return RepGenerators(A0, ProjectiveMatrix(b0))


def kernel_word(N: int) -> SL2Word:
    """Word mapping to (1+N, 0; 0, 1+N) modulo 2N, hence into the kernel.

    Built from (1,N;0,1)(1,0;N-1,1)(1,N;0,1)(1,0;1,1) using
    (1,N;0,1) = B^N and (1,0;1,1) = A^(-1) B^(-1) A.
    """
    return SL2Word(
        (
            ("B", N),
            ("A", -1), ("B", -(N - 1)), ("A", 1),
            ("B", N),
            ("A", -1), ("B", -1), ("A", 1),
        )
    )


class PresentationReport(NamedTuple):
    N: int
    checks: dict


def verify_presentation(N: int) -> PresentationReport:
    """Exact check of the defining relations and the kernel word.

    Verifies, over Q(zeta_2N) and as projective classes:
    (A0 B0)^3 = A0^2, A0^4 = I, and that the word representing
    (1+N, 0; 0, 1+N) mod 2N maps to the identity.  The integer-matrix
    congruence behind the kernel word is asserted alongside.  The braid
    relation is tested in the equivalent form B0 A0 B0 = A0 B0^(-1)
    A0^(-1), which takes one product of two dense matrices, and the
    kernel word W1 W2 as W1 ~ W2^(-1), which takes two.
    """
    gens = build_rep_generators(N)
    A0, B0 = gens.A0, gens.B0
    ident = ProjectiveMatrix.identity(N)
    checks = {}
    checks["braid"] = (B0 @ A0 @ B0).proj_eq(A0 @ B0.inverse() @ A0.inverse())
    a2 = A0 @ A0
    checks["order4"] = (a2 @ a2).proj_eq(ident)
    word = kernel_word(N)
    m = word.evaluate_int()
    twoN = 2 * N
    target_ok = all(
        (x - y) % twoN == 0
        for x, y in zip(m, (1 + N, 0, 0, 1 + N))
    )
    checks["kernel_word_congruence"] = target_ok
    checks["kernel_word"] = word.maps_to_scalar(A0, B0)
    return PresentationReport(N=N, checks=checks)


def conjugation_table_check(N: int) -> dict:
    """Exact conjugation relations of the generators on M_S, M_T, M_inv.

    A0: S -> T^(-1), T -> S, inv -> inv.  B0 commutes with M_T and sends
    M_S to M_S M_T (its action is only pinned down modulo the
    translation subgroup; this is the variant consistent with the
    tau -> tau+1 coordinate change).  Each X^(-1) Y X ~ Z is tested as
    Y X ~ X Z, so no product has two dense factors.
    """
    can = build_canonical_matrices(N)
    gens = build_rep_generators(N)
    A0, B0 = gens.A0, gens.B0
    MS, MT, MI = can.M_S, can.M_T, can.M_inv
    return {
        "A0_S": (MS @ A0).proj_eq(A0 @ MT.inverse()),
        "A0_T": (MT @ A0).proj_eq(A0 @ MS),
        "A0_inv": (MI @ A0).proj_eq(A0 @ MI),
        "B0_T": (MT @ B0).proj_eq(B0 @ MT),
        "B0_S": (MS @ B0).proj_eq(B0 @ MS @ MT),
        "B0_order_2N": has_projective_order(B0, 2 * N),
    }


def has_projective_order(m: ProjectiveMatrix, n: int) -> bool:
    """Whether m has order exactly n in PGL: m^n ~ I, and m^(n/p) is not
    ~ I for any prime p dividing n."""
    ident = ProjectiveMatrix.identity(m.n)
    if not m.power(n).proj_eq(ident):
        return False
    return not any(m.power(n // p).proj_eq(ident) for p, _ in prime_factors(n))


# ---------------------------------------------------------------------------
# the induced representation on the fixed space of M_inv


class RhoBar(NamedTuple):
    """Restriction of the representation to the hyperplane-fixed space H.

    `Abar`, `Bbar` act on the coordinates Xbar_0 = X_0,
    Xbar_j = X_j + X_(N-j), Xbar_(N/2) = X_(N/2); `Abar_null`,
    `Bbar_null` are the same classes written in the null-value
    coordinates (a_0 : ... : a_(N/2)), i.e. conjugated by
    diag(1, 2, ..., 2, 1)."""

    Abar: ProjectiveMatrix
    Bbar: ProjectiveMatrix
    Abar_null: ProjectiveMatrix
    Bbar_null: ProjectiveMatrix


@lru_cache(maxsize=None)
def _compress_expand(N: int) -> tuple[tuple, tuple]:
    h = N // 2
    zero, one, half = Fraction(0), Fraction(1), Fraction(1, 2)
    compress = [[zero] * N for _ in range(h + 1)]
    compress[0][0] = one
    compress[h][h] = one
    for j in range(1, h):
        compress[j][j] = one
        compress[j][N - j] = one
    expand = [[zero] * (h + 1) for _ in range(N)]
    expand[0][0] = one
    expand[h][h] = one
    for j in range(1, h):
        expand[j][j] = half
        expand[N - j][j] = half
    return tuple(map(tuple, compress)), tuple(map(tuple, expand))


def restrict_to_fixed_space(mat: ProjectiveMatrix, N: int) -> ProjectiveMatrix:
    """Compress an H-stable N x N class to its (N/2+1) x (N/2+1) action."""
    if mat.n != N:
        raise ValueError(f"expected a {N} x {N} matrix, got {mat.n} x {mat.n}")
    compress, expand = _compress_expand(N)
    me = mat._block @ _ExactBlock.from_rows(expand)
    return ProjectiveMatrix._of_block(_ExactBlock.from_rows(compress) @ me)


def build_rho_bar(N: int) -> RhoBar:
    """The restricted generators, each with its inverse in closed form.
    Restriction is multiplicative on matrices that commute with M_inv, as
    A0 and B0 do, so Abar^(-1) is the restriction of A0^(-1); Bbar is
    diagonal, and the null-coordinate classes are conjugates."""
    if N % 2:
        raise ValueError("the fixed-space representation needs even N")
    gens = build_rep_generators(N)
    h = N // 2
    abar = restrict_to_fixed_space(gens.A0, N)
    abar._inv = restrict_to_fixed_space(gens.A0.inverse(), N)
    bbar = restrict_to_fixed_space(gens.B0, N)
    d = [Fraction(1)] + [Fraction(2)] * (h - 1) + [Fraction(1)]

    def conj(m: ProjectiveMatrix) -> ProjectiveMatrix:
        return ProjectiveMatrix(
            [[m.rows[i][j] * d[j] / d[i] for j in range(h + 1)] for i in range(h + 1)]
        )

    abar_null = conj(abar)
    abar_null._inv = conj(abar._inv)
    return RhoBar(Abar=abar, Bbar=bbar, Abar_null=abar_null, Bbar_null=conj(bbar))


# ---------------------------------------------------------------------------
# the theta immersion


def immersion_point(z: complex, ctx: ThetaContext) -> tuple:
    """(theta_0(z) : ... : theta_(N-1)(z)) as a tuple of complex values,
    divided by the first coordinate of largest modulus.  Compare two such
    points with theta.proj_residual."""
    coords = theta_N_eval(range(ctx.N), z, ctx)
    mags = [abs(c) for c in coords]
    if max(mags) < ctx.tol:
        raise ValueError("numerically degenerate context: all coordinates below tol")
    pivot = coords[mags.index(max(mags))]
    return tuple(c / pivot for c in coords)


class TranslationReport(NamedTuple):
    N: int
    samples: int
    max_resid_S: float
    max_resid_T: float
    matched_T_power: int
    max_resid_inv: float
    origin_dev: float


def _complex_rows(mat: ProjectiveMatrix) -> list:
    """The nonzero entries of mat as complex values, row by row: a list
    of (column, value) pairs per row."""
    return [
        [(j, scalar_complex(c)) for j, c in enumerate(row) if not scalar_is_zero(c)]
        for row in mat.rows
    ]


def _apply(rows: list, v: list) -> list:
    """The matrix of _complex_rows times the vector v, in plain Python:
    v holds complex values at a point, or arrays over the points of a
    unit."""
    return [sum(c * v[j] for j, c in row) for row in rows]


def translation_check(ctx: ThetaContext, samples: int = 20, seed: int = 0) -> TranslationReport:
    """Equivariance of the immersion under the torsion translations and
    the inversion, at the seeded sample points.

    Translation by tau/N acts as M_S.  Translation by 1/N acts by a
    power of the diagonal M_T; which power is measured, not assumed (the
    matrix itself acts on coordinate functions, its inverse on points),
    and the matched exponent is reported.  The points are read as the
    units of theta.sample_units, each with its two translates.  z -> -z
    acts as M_inv, tested afterwards on the first min(samples, 10) points
    of the stream, one point at a time.  The origin is fixed by the
    inversion: origin_dev is the largest |a_k - (-1)^N a_(N-k)| relative
    to the largest null a_k.  Each residual is the largest over the
    points, and one that is not finite raises OverflowError
    (theta.largest).  The report states the residuals and no verdict:
    the caller compares them with its tolerance.  samples < 1 raises
    ValueError (theta.sample_stream).
    """
    N, tau = ctx.N, ctx.tau
    can = build_canonical_matrices(N)
    ms, mt, mt_inv, minv = map(_complex_rows, (can.M_S, can.M_T, can.M_T.inverse(), can.M_inv))
    ks = range(N)
    worst_s = worst_inv = 0.0
    worst_t = {1: 0.0, -1: 0.0}
    for unit in sample_units(tau, samples, seed):
        base = theta_N_eval(ks, unit, ctx)
        ts = theta_N_eval(ks, unit + tau / N, ctx)
        tt = theta_N_eval(ks, unit + 1.0 / N, ctx)
        worst_s = max(worst_s, largest(proj_residual(_apply(ms, base), ts), "projective"))
        for e, m in ((1, mt), (-1, mt_inv)):
            worst_t[e] = max(worst_t[e], largest(proj_residual(_apply(m, base), tt), "projective"))
    for z in islice(sample_stream(tau, samples, seed), 10):
        inv = proj_residual(_apply(minv, theta_N_eval(ks, z, ctx)), theta_N_eval(ks, -z, ctx))
        worst_inv = max(worst_inv, largest(inv, "projective"))
    power = min(worst_t, key=worst_t.get)
    a = theta_N_eval(ks, 0.0, ctx)
    sign = 1 if N % 2 == 0 else -1
    origin_dev = max(abs(a[k] - sign * a[(N - k) % N]) for k in range(N)) / max(map(abs, a))
    return TranslationReport(
        N=N,
        samples=samples,
        max_resid_S=worst_s,
        max_resid_T=worst_t[power],
        matched_T_power=power,
        max_resid_inv=worst_inv,
        origin_dev=origin_dev,
    )


def rho_theta_candidates(N: int, kind: str) -> dict:
    """The coset of candidates for a modular coordinate change, each as
    the factors of its matrix in the order they act on a vector.

    kind "A" is the tau -> -1/tau family built on A0 = [zeta^(ij)];
    kind "B" the tau -> tau+1 family built on the diagonal B0.  The
    candidates are only pinned down modulo the four half-period
    translations, and the observed matrix may be the inverse class
    (point action versus function action), so inverses are included.
    The candidate base * t, for t one of I, M_S^h (a permutation),
    M_T^h = diag((-1)^i) and M_S^h M_T^h, acts on a vector as t, then
    base; each factor is given by its nonzero complex entries
    (_complex_rows), so no complex matrices are multiplied.
    """
    can = build_canonical_matrices(N)
    gens = build_rep_generators(N)
    base = gens.A0 if kind == "A" else gens.B0
    pair = ((_complex_rows(base), ""), (_complex_rows(base.inverse()), "^-1"))
    h = N // 2
    msh = _complex_rows(can.M_S.power(h))
    mth = _complex_rows(can.M_T.power(h))
    out = {}
    for name, t in (("", ()), ("*MS^h", (msh,)), ("*MT^h", (mth,)), ("*MS^h*MT^h", (mth, msh))):
        for m, tag in pair:
            lbl = ("A0" if kind == "A" else "B0") + tag + name
            out[lbl] = t + (m,)
    return out


class RhoThetaReport(NamedTuple):
    N: int
    kind: str
    best: str  # the candidate of least residual
    residual: float


def rho_theta_match(ctx: ThetaContext, kind: str, samples: int = 5, seed: int = 0) -> RhoThetaReport:
    """Identify the numeric modular coordinate change within the coset.

    Takes the seeded sample points, evaluates the immersion at the
    transformed modulus, and reports the candidate class with the least
    residual over the samples, and that residual: no verdict, the caller
    compares it with its tolerance.  The few points are summed one at a
    time, without numpy, at every sample count."""
    N, tau = ctx.N, ctx.tau
    if kind == "A":
        ctx2 = ctx.with_tau(-1.0 / tau)
    elif kind == "B":
        ctx2 = ctx.with_tau(tau + 1.0)
    else:
        raise ValueError("kind must be 'A' or 'B'")
    zs = list(sample_stream(tau, samples, seed))
    ks = range(N)
    base = [theta_N_eval(ks, z, ctx) for z in zs]
    img = [theta_N_eval(ks, z / tau if kind == "A" else z, ctx2) for z in zs]
    best_name, best_resid = None, float("inf")
    for name, factors in rho_theta_candidates(N, kind).items():
        resid = 0.0
        for b, w in zip(base, img):
            for rows in factors:
                b = _apply(rows, b)
            resid = max(resid, largest(proj_residual(b, w), "projective"))
        if resid < best_resid:
            best_name, best_resid = name, resid
    return RhoThetaReport(N=N, kind=kind, best=best_name, residual=best_resid)
