from fractions import Fraction

import pytest

from thetalab.congruence import (
    MAX_LEVEL,
    SubgroupSpec,
    TorsionPoint,
    _identity_lifts,
    base_structure,
    enum_structures_above,
    gamma_n2n_index_cusps,
    group_tower_check,
    sl2_mod,
    sl2_order,
    subgroup_invariants,
    weil_pairing,
)
from thetalab.cyclotomic import zeta


def test_sl2_orders():
    assert len(sl2_mod(2)) == 6
    assert len(sl2_mod(4)) == 48
    assert len(sl2_mod(8)) == 384
    assert len(sl2_mod(16)) == 3072


def brute_force_sl2(m):
    """Every (a, b, c, d) mod m with ad - bc = 1, by scanning all four."""
    rng = range(m)
    return tuple(
        (a, b, c, d) for a in rng for b in rng for c in rng for d in rng
        if (a * d - b * c - 1) % m == 0
    )


@pytest.mark.parametrize("m", range(1, 25))
def test_sl2_order_formula(m):
    # |SL_2(Z/m)| = m^3 prod_(p | m) (1 - p^-2)
    want = Fraction(m**3)
    for p in range(2, m + 1):
        if m % p == 0 and all(p % q for q in range(2, p)):
            want *= 1 - Fraction(1, p * p)
    assert len(sl2_mod(m)) == sl2_order(m) == want


@pytest.mark.parametrize("m", range(1, 13))
def test_sl2_matches_brute_force(m):
    assert sl2_mod(m) == brute_force_sl2(m)


def test_identity_lifts_match_filtered_group():
    for N in range(2, MAX_LEVEL + 1):
        for m in (N, 2 * N):
            want = [g for g in sl2_mod(m) if all((x - y) % N == 0 for x, y in zip(g, (1, 0, 0, 1)))]
            assert _identity_lifts(N, m) == want


def test_torsion_point_validation():
    with pytest.raises(ValueError):
        TorsionPoint(Fraction(1, 3), 0, 2)
    p = TorsionPoint(Fraction(5, 4), 0, 4)
    assert p.u == Fraction(1, 4)


def test_weil_pairing_values():
    for n in (4, 5, 6, 8):
        S, T = base_structure(n)
        assert weil_pairing(n, S, T) == zeta(n)
        assert weil_pairing(n, T, T) == 1
        assert weil_pairing(n, S, S) == 1
        # antisymmetry
        assert weil_pairing(n, T, S) == zeta(n, n - 1)
    St = TorsionPoint(0, Fraction(1, 16), 16)
    Tt = TorsionPoint(Fraction(1, 16), 0, 16)
    assert weil_pairing(16, St, Tt) == zeta(16)
    with pytest.raises(ValueError):
        weil_pairing(4, TorsionPoint(Fraction(1, 8), 0, 8), base_structure(4)[1])


def test_weil_pairing_bilinear():
    n = 8
    S, T = base_structure(n)
    for a in range(3):
        for b in range(3):
            P = S.scaled(a) + T.scaled(b)
            P = TorsionPoint(P.u, P.v, n)
            got = weil_pairing(n, P, T)
            assert got == zeta(n, a)


def test_structures_count_and_classes():
    for N in (4, 6, 8):
        res = enum_structures_above(N)
        assert len(res.structures) == 8
        assert res.class_count == 4
        # classes partition the survivors in pairs
        assert sorted(len(c) for c in res.classes) == [2, 2, 2, 2]


def structure_apply(pair, mat):
    """(S, T) * (a, b; c, d) = (aS + cT, bS + dT)."""
    S, T = pair
    a, b, c, d = mat
    return (S.scaled(a) + T.scaled(c), S.scaled(b) + T.scaled(d))


def structure_class_index(result, pair) -> int:
    """Which similarity class a refined structure belongs to."""
    key = (pair[0].u, pair[0].v, pair[1].u, pair[1].v)
    for i, cls in enumerate(result.classes):
        for member in cls:
            if (member[0].u, member[0].v, member[1].u, member[1].v) == key:
                return i
    raise ValueError("structure not found among the enumerated ones")


def test_coset_representatives_distinct():
    for N in (4, 6, 8):
        res = enum_structures_above(N)
        pair = res.structures[0]
        reps = ((1, 0, 0, 1), (1, N, 0, 1), (1, 0, N, 1), (1, N, N, 1))
        classes = [structure_class_index(res, structure_apply(pair, m)) for m in reps]
        assert len(set(classes)) == 4


def test_structures_invariant_under_relabeling():
    N = 6
    base = enum_structures_above(N)
    keys = {
        (p[0].u, p[0].v, p[1].u, p[1].v) for p in base.structures
    }
    S, T = base_structure(N)
    for g in ((1, N, 0, 1), (1, 0, N, 1), (1 + N, N, N, 1 + N)):
        # relabeled starting structure: (S, T) * g fixes (S, T) mod N
        newbase = structure_apply((S, T), g)
        res = enum_structures_above(N, base=newbase)
        got = {(p[0].u, p[0].v, p[1].u, p[1].v) for p in res.structures}
        assert got == keys
        assert res.class_count == 4


def test_subgroup_invariants_reference_values():
    inv = subgroup_invariants(SubgroupSpec("gammaN2N", 4))
    assert (inv.index_psl, inv.genus) == (96, 3)
    inv = subgroup_invariants(SubgroupSpec("gammaN2N", 6))
    assert (inv.index_psl, inv.genus) == (288, 13)
    inv = subgroup_invariants(SubgroupSpec("gamma", 8))
    assert inv.genus == 5
    # classical values for the principal subgroups
    assert subgroup_invariants(SubgroupSpec("gamma", 4)).index_psl == 24
    assert subgroup_invariants(SubgroupSpec("gamma", 5)).genus == 0
    assert subgroup_invariants(SubgroupSpec("gamma", 7)).genus == 3


@pytest.mark.parametrize("N", range(2, MAX_LEVEL + 1, 2))
def test_refined_subgroup_counts_match_their_closed_forms(N):
    inv = subgroup_invariants(SubgroupSpec("gammaN2N", N))
    assert (inv.index_psl, inv.cusps) == gamma_n2n_index_cusps(N)
    assert inv.contains_minus_one == (N == 2)


def test_refined_subgroup_closed_forms():
    assert gamma_n2n_index_cusps(12) == (2304, 96)
    # at N = 2 the group is +-Gamma(4)
    gamma4 = subgroup_invariants(SubgroupSpec("gamma", 4))
    assert gamma_n2n_index_cusps(2) == (gamma4.index_psl, gamma4.cusps) == (24, 6)


def _prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def test_principal_subgroup_closed_forms():
    # Diamond & Shurman, A First Course in Modular Forms, section 3.9:
    # mu = N^3/2 prod_(p | N) (1 - p^-2) and cusps = mu/N for N >= 3,
    # (6, 3) for N = 2; genus 1 + mu (N - 6) / (12 N) for N >= 3
    for N in range(2, 13):
        inv = subgroup_invariants(SubgroupSpec("gamma", N))
        if N == 2:
            mu, cusps, genus = 6, 3, 0
        else:
            mu = Fraction(N**3, 2)
            for p in _prime_divisors(N):
                mu *= 1 - Fraction(1, p * p)
            cusps = mu / N
            genus = 1 + mu * (N - 6) / (12 * N)
        assert (inv.index_psl, inv.cusps, inv.genus) == (mu, cusps, genus), N
        assert inv.contains_minus_one == (N == 2)


def test_euler_characteristic_consistency():
    for spec in (
        SubgroupSpec("gamma", 4),
        SubgroupSpec("gamma", 6),
        SubgroupSpec("gamma", 8),
        SubgroupSpec("gammaN2N", 4),
        SubgroupSpec("gammaN2N", 6),
        SubgroupSpec("gammaN2N", 8),
    ):
        inv = subgroup_invariants(spec)
        assert 12 * (inv.genus - 1) + 6 * inv.cusps == inv.index_psl


def test_modulus_bound():
    with pytest.raises(ValueError):
        subgroup_invariants(SubgroupSpec("gamma", 13))


def test_group_tower():
    for N in (4, 6, 8):
        rep = group_tower_check(N)
        assert all(rep.checks.values()), rep.checks
        assert rep.quotient_orders == (4, 2)
    with pytest.raises(ValueError):
        group_tower_check(5)


def test_gammaN2N_membership_examples():
    spec = SubgroupSpec("gammaN2N", 4)
    assert spec.contains_residue((1, 8, 0, 1))
    assert not spec.contains_residue((1, 4, 0, 1))
    assert spec.contains_residue((5, 0, 0, 5))
