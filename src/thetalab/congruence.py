"""Finite congruence-subgroup combinatorics and level structures.

Everything here is exact finite enumeration: SL_2 over Z/m, indices,
cusp counts and genera of the relevant congruence subgroups, and the
counting of refined level structures on the torus model, where torsion
points are rational pairs (u, v) modulo 1 standing for u + v*tau.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from typing import NamedTuple

from .cyclotomic import CyclotomicNumber, prime_factors, zeta
from .frozen import Frozen


# ---------------------------------------------------------------------------
# SL_2(Z/m)


MAX_LEVEL = 12  # the largest level enumerated; sl2_mod stops at m = 2 * MAX_LEVEL


@lru_cache(maxsize=None)
def sl2_mod(m: int) -> tuple:
    """All (a, b, c, d) mod m with ad - bc = 1, in lexicographic order.

    For each (a, b, c), a d = 1 + bc (mod m) is solved for d: with
    g = gcd(a, m), it has g solutions when g divides 1 + bc, namely
    d0 + k m/g for k < g, d0 = (1 + bc)/g * (a/g)^(-1) mod m/g, and none
    otherwise.  That is m^3 steps, not the m^4 of a scan over d."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m > 2 * MAX_LEVEL:
        raise ValueError("modulus too large for brute-force enumeration")
    out = []
    rng = range(m)
    for a in rng:
        g = gcd(a, m)
        step = m // g
        inv = pow(a // g, -1, step) if step > 1 else 0
        # the d with a d = r (mod m), for each residue r
        solutions = [range(r // g * inv % step, m, step) if r % g == 0 else () for r in rng]
        for b in rng:
            out += [(a, b, c, d) for c in rng for d in solutions[(1 + b * c) % m]]
    return tuple(out)


def sl2_order(m: int) -> int:
    """|SL_2(Z/m)| = m^3 prod_(p | m) (1 - p^(-2)), the length of sl2_mod(m)."""
    out = 1
    for p, e in prime_factors(m):
        out *= p ** (3 * e - 2) * (p * p - 1)
    return out


def _identity_lifts(N: int, m: int) -> list:
    """The elements of SL_2(Z/m) that reduce to the identity mod N, for N
    dividing m, in lexicographic order."""
    ones, zeros = range(1 % N, m, N), range(0, m, N)
    return [
        (a, b, c, d) for a, b, c, d in product(ones, zeros, zeros, ones)
        if (a * d - b * c) % m == 1 % m
    ]


def sl2_mul(m1, m2):
    """The product of two 2 x 2 integer matrices, each written (a, b, c, d)."""
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def sl2_inv(mat):
    """The inverse (d, -b, -c, a) of a matrix (a, b, c, d) of determinant 1,
    over Z or, once reduced, over Z/m."""
    a, b, c, d = mat
    return (d, -b, -c, a)


def _mat_mul(m1, m2, m):
    a, b, c, d = sl2_mul(m1, m2)
    return (a % m, b % m, c % m, d % m)


class SubgroupSpec(NamedTuple):
    """family "gamma" is the principal congruence subgroup of level N;
    family "gammaN2N" is {a = d = 1 mod N, b = c = 0 mod 2N}."""

    family: str
    N: int

    def modulus(self) -> int:
        return self.N if self.family == "gamma" else 2 * self.N

    def contains_residue(self, mat) -> bool:
        a, b, c, d = mat
        N = self.N
        if self.family == "gamma":
            return a % N == 1 and d % N == 1 and b % N == 0 and c % N == 0
        if self.family == "gammaN2N":
            return a % N == 1 and d % N == 1 and b % (2 * N) == 0 and c % (2 * N) == 0
        raise ValueError(f"unknown family {self.family!r}")


class SubgroupInvariants(NamedTuple):
    index_psl: int
    cusps: int
    genus: int
    index_sl: int
    contains_minus_one: bool


def _primitive_vectors(m: int) -> list:
    return [(x, y) for x in range(m) for y in range(m) if gcd(gcd(x, y), m) == 1]


def subgroup_invariants(spec: SubgroupSpec) -> SubgroupInvariants:
    """Index, cusp count, and genus by finite enumeration, with
    |SL_2(Z/m)| from its closed form (sl2_order).

    The genus uses g = 1 + mu/12 - cusps/2, valid because both families
    lie in Gamma(N), which has no elliptic elements for N >= 2: writing
    gamma = I + N M with M an integer matrix, det gamma = 1 gives
    tr M = -N det M, so tr gamma = 2 - N^2 det M = 2 (mod N^2), while an
    elliptic element of SL_2(Z) has trace 0 or +-1.  For N >= 4 the
    residue a + d = 2 (mod N) already rules those out; for N = 2 and 3
    the congruence mod 4 and mod 9 is what settles it.
    """
    if not 2 <= spec.N <= MAX_LEVEL:
        raise ValueError(f"N out of the supported enumeration range 2..{MAX_LEVEL}")
    m = spec.modulus()
    # both families reduce to the identity mod N, so their image in
    # SL_2(Z/m) lies among the lifts of the identity
    image = [g for g in _identity_lifts(spec.N, m) if spec.contains_residue(g)]
    index_sl = sl2_order(m) // len(image)
    minus = tuple(x % m for x in (-1, 0, 0, -1))
    has_minus = minus in set(image)
    index_psl = index_sl if has_minus else index_sl // 2
    # cusps: orbits of the +-image on primitive vectors of (Z/m)^2
    acting = set(image) | {_mat_mul(minus, g, m) for g in image}
    vecs = _primitive_vectors(m)
    seen: set = set()
    cusps = 0
    for v in vecs:
        if v in seen:
            continue
        cusps += 1
        stack = [v]
        seen.add(v)
        while stack:
            x, y = stack.pop()
            for a, b, c, d in acting:
                w = ((a * x + c * y) % m, (b * x + d * y) % m)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    mu = index_psl
    if (12 + mu - 6 * cusps) % 12:
        raise ArithmeticError("genus formula did not return an integer")
    genus = 1 + mu // 12 - cusps // 2
    return SubgroupInvariants(
        index_psl=index_psl,
        cusps=cusps,
        genus=genus,
        index_sl=index_sl,
        contains_minus_one=has_minus,
    )


def gamma_n2n_index_cusps(N: int) -> tuple[int, int]:
    """The index in PSL_2(Z) and the cusp count of Gamma^(N)(2N), even N,
    in closed form: mu = (2N)^3/4 prod_(p | 2N) (1 - p^(-2)) and
    c = mu/(2N).  At N = 2 the group holds -I and is +-Gamma(4), with
    mu = 24 and c = 6.  subgroup_invariants counts both by enumeration,
    so this serves as its oracle."""
    if N == 2:
        return 24, 6
    m = 2 * N
    mu = Fraction(m**3, 4)
    for p in range(2, m + 1):
        if m % p == 0 and all(p % q for q in range(2, p)):
            mu *= 1 - Fraction(1, p * p)
    return int(mu), int(mu) // m


class TowerReport(NamedTuple):
    N: int
    quotient_orders: tuple
    checks: dict


def group_tower_check(N: int) -> TowerReport:
    """The chain Gamma(N) > Gamma^(N)(2N) > Gamma(2N) for even N.

    Verifies, inside SL_2(Z/2N): normality of the upper inclusion, that
    the middle quotient is (Z/2)^2 generated by the images of (1,N;0,1)
    and (1,0;N,1), and that the bottom quotient has order 2 generated by
    (1+N,0;0,1+N).  The lower inclusion needs no check: Gamma(2N) is the
    kernel of reduction mod 2N, hence normal in SL_2(Z)."""
    if N % 2 or N > MAX_LEVEL:
        raise ValueError(f"even N <= {MAX_LEVEL} required")
    m = 2 * N
    g1 = _identity_lifts(N, m)
    spec = SubgroupSpec("gammaN2N", N)
    g2 = [g for g in g1 if spec.contains_residue(g)]
    g2set = set(g2)
    checks = {}
    checks["mid_order"] = len(g1) // len(g2) == 4
    checks["bottom_order"] = len(g2) == 2
    checks["bottom_generator"] = g2set == {(1, 0, 0, 1), ((1 + N) % m, 0, 0, (1 + N) % m)}
    checks["mid_normal"] = all(
        _mat_mul(_mat_mul(g, h, m), sl2_inv(g), m) in g2set for g in g1 for h in g2
    )
    u = ((1 % m), N % m, 0, 1)
    l = (1, 0, N % m, 1)
    cosets = {tuple(sorted(_mat_mul(x, h, m) for h in g2)) for x in (
        (1, 0, 0, 1), u, l, _mat_mul(u, l, m))}
    checks["mid_generators"] = len(cosets) == 4 and set().union(*[set(c) for c in cosets]) == set(g1)
    checks["mid_exponent_2"] = all(_mat_mul(g, g, m) in g2set for g in g1)
    orders = (len(g1) // len(g2), len(g2))
    return TowerReport(N=N, quotient_orders=orders, checks=checks)


# ---------------------------------------------------------------------------
# torsion points on the torus model and the Weil pairing


class TorsionPoint(Frozen):
    """(u + v*tau) + Lambda_tau with rational u, v taken modulo 1."""

    __slots__ = ("u", "v", "n")

    def __init__(self, u, v, n: int):
        u, v = Fraction(u) % 1, Fraction(v) % 1
        if (u * n) % 1 or (v * n) % 1:
            raise ValueError(f"point is not {n}-torsion")
        self._set(u=u, v=v, n=n)

    def __add__(self, other: "TorsionPoint") -> "TorsionPoint":
        n = self.n * other.n // gcd(self.n, other.n)
        return TorsionPoint(self.u + other.u, self.v + other.v, n)

    def scaled(self, c: int) -> "TorsionPoint":
        return TorsionPoint(self.u * c, self.v * c, self.n)


def weil_pairing(n: int, P: TorsionPoint, Q: TorsionPoint) -> CyclotomicNumber:
    """e_n on the torus: zeta_n^(ad - bc) from (tau/n, 1/n)-coordinates."""
    if (P.u * n) % 1 or (P.v * n) % 1 or (Q.u * n) % 1 or (Q.v * n) % 1:
        raise ValueError("points are not killed by n")
    a, b = int(P.v * n) % n, int(P.u * n) % n
    c, d = int(Q.v * n) % n, int(Q.u * n) % n
    return zeta(n, (a * d - b * c) % n)


def base_structure(N: int) -> tuple[TorsionPoint, TorsionPoint]:
    """S = tau/N, T = 1/N: the reference level-N structure."""
    return TorsionPoint(0, Fraction(1, N), N), TorsionPoint(Fraction(1, N), 0, N)


class StructuresResult(NamedTuple):
    N: int
    structures: tuple
    classes: tuple
    class_count: int


def enum_structures_above(
    N: int, base: tuple[TorsionPoint, TorsionPoint] | None = None
) -> StructuresResult:
    """Refined 2N-structures above the level-N structure (S, T).

    Enumerates the sixteen pairs with 2S' = S and 2T' = T, keeps those
    with e_2N(S', T') = zeta_2N, and groups the survivors by the
    similarity (S', T') ~ ((1+N) S', (1+N) T')."""
    if N % 2:
        raise ValueError("refined structures are defined for even N")
    if base is None:
        S, T = base_structure(N)
    else:
        S, T = base
    n2 = 2 * N
    St = TorsionPoint(S.u / 2, S.v / 2, n2)
    Tt = TorsionPoint(T.u / 2, T.v / 2, n2)
    halves = [
        TorsionPoint(Fraction(e1, 2), Fraction(e2, 2), 2)
        for e1 in (0, 1)
        for e2 in (0, 1)
    ]
    target = zeta(n2)
    survivors = []
    for hs in halves:
        for ht in halves:
            Sp = TorsionPoint(St.u + hs.u, St.v + hs.v, n2)
            Tp = TorsionPoint(Tt.u + ht.u, Tt.v + ht.v, n2)
            if weil_pairing(n2, Sp, Tp) == target:
                survivors.append((Sp, Tp))
    sim = 1 + N
    seen = set()
    classes = []
    for pair in survivors:
        key = (pair[0].u, pair[0].v, pair[1].u, pair[1].v)
        if key in seen:
            continue
        mate = (pair[0].scaled(sim), pair[1].scaled(sim))
        mkey = (mate[0].u, mate[0].v, mate[1].u, mate[1].v)
        seen.add(key)
        seen.add(mkey)
        classes.append((pair, mate) if mkey != key else (pair,))
    return StructuresResult(
        N=N,
        structures=tuple(survivors),
        classes=tuple(classes),
        class_count=len(classes),
    )
