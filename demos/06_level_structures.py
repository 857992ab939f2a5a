"""Level structures on the torus and congruence-subgroup invariants.

On C/(Z + Z tau) the Weil pairing of torsion points written in the basis
(tau/n, 1/n) is a root of unity read off a 2x2 determinant, which makes
the counting of refined structures and all subgroup invariants a finite,
exact computation.
"""

from thetalab.congruence import (
    SubgroupSpec,
    base_structure,
    enum_structures_above,
    group_tower_check,
    subgroup_invariants,
    weil_pairing,
)
from thetalab.cyclotomic import zeta

S, T = base_structure(6)
print("e_6(S, T) = zeta_6:", weil_pairing(6, S, T) == zeta(6))
print("e_6(T, T) = 1:", weil_pairing(6, T, T) == 1)

for N in (4, 6, 8):
    res = enum_structures_above(N)
    print(f"N={N}: {len(res.structures)} refined structures, {res.class_count} classes")

print("\ntower quotients (middle, bottom):")
for N in (4, 6, 8):
    rep = group_tower_check(N)
    print(f"  N={N}: {rep.quotient_orders}, all checks {all(rep.checks.values())}")

print("\nsubgroup invariants (index in PSL2(Z), cusps, genus):")
for spec in (
    SubgroupSpec("gammaN2N", 4),
    SubgroupSpec("gammaN2N", 6),
    SubgroupSpec("gamma", 8),
):
    inv = subgroup_invariants(spec)
    print(f"  {spec.family:9s} N={spec.N}: index {inv.index_psl}, "
          f"cusps {inv.cusps}, genus {inv.genus}")
