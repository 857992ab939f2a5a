"""The degree-N immersion and the quadrics cutting out its image.

z -> (theta_0(z) : ... : theta_(N-1)(z)) immerses C/(Z + Z tau) into
P^(N-1); the image is the intersection of N(N-3)/2 quadrics whose
coefficients are theta-null values.  Torsion translations act by the
canonical monomial matrices.
"""

from thetalab.projective import immersion_point, translation_check
from thetalab.quadrics import (
    NullData,
    gen_even_basis,
    gen_even_s_basis,
    gen_odd_basis,
    rank_check,
    verify_on_curve,
)
from thetalab.theta import ThetaContext

for N in (5, 6):
    ctx = ThetaContext(N, 0.3 + 1.1j, 1e-12)
    gen = gen_odd_basis if N % 2 else (lambda nd: gen_even_basis(nd).full)
    forms = gen(NullData.numeric(ctx))
    print(f"N={N}: generated {len(forms)} quadrics (expected {N * (N - 3) // 2})")
    rep = verify_on_curve(forms, ctx, samples=20, seed=0)
    print(f"  max |Q(Theta(z))| normalized: {rep.max_residual:.2e}")
    # the same forms with the exact q-expansions of the nulls as coefficients:
    # the rank of their leading terms bounds the rank from below, so a full
    # bound is the exact rank over the field of q-series, for every tau
    exact = gen(NullData.exact(N, N))
    print(f"  exact rank of the coefficient matrix: {rank_check(exact, N)}")

# graded structure for even N: V_0 and V_1 plus their index shifts
ctx = ThetaContext(8, 1j, 1e-12)
nd = NullData.numeric(ctx)
eb = gen_even_basis(nd)
print(f"\nN=8 graded pieces: |V0|={len(eb.V0)}, |V1|={len(eb.V1)}, full={len(eb.full)}")
print("classes present:", sorted({f.graded_class() for f in eb.full}))

# the same graded pieces have a second natural basis built from
# half-period values s_k = theta_k(1/(2N))
sb = gen_even_s_basis(nd)
rep = verify_on_curve(sb.V0 + sb.V1, ctx, samples=20, seed=0)
print(f"half-period basis vanishes too: {rep.max_residual:.2e}")

# translations by tau/N and 1/N act projectively by the canonical matrices
ctx = ThetaContext(7, 0.5 + 1.5j, 1e-10)
tr = translation_check(ctx, samples=20, seed=0)
print(f"\nN=7 translation residuals: S {tr.max_resid_S:.2e}, T {tr.max_resid_T:.2e}")

p = immersion_point(0.0, ThetaContext(6, 1j, 1e-10))
print("origin lands in the inversion-fixed hyperplane section:",
      [f"{abs(c):.5f}" for c in p])
