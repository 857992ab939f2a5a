"""The degree-N theta family: evaluation, symmetries, and null values.

theta_k(z, tau) (k mod N) is built from the theta function with
characteristic (1/2 - k/N, N/2) at (Nz, Ntau).  Numeric sums carry an
explicit Gaussian tail bound; the null values theta_k(0, tau) also have
exact q-expansions, and the two views agree to working precision.
"""

from thetalab.theta import (
    ThetaContext,
    e,
    theta_N_eval,
    theta_null_series,
    theta_zero_points,
    transform_check,
)

N, tau = 6, 0.3 + 1.1j
ctx = ThetaContext(N, tau, 1e-10)
print(f"N={N}, tau={tau}, derived summation radius {ctx.n_radius}")

z = 0.23 + 0.17j
th = [theta_N_eval(k, z, ctx) for k in range(N)]
print("theta_k(z):", [f"{v:.4f}" for v in th])

# periodicity in the index and quasi-periodicity in z
print("k-periodicity:", abs(theta_N_eval(2, z, ctx) - theta_N_eval(2 + N, z, ctx)))
lhs = theta_N_eval(1, z + tau, ctx)
rhs = (-1) ** N * e(-N * tau / 2 - N * z) * theta_N_eval(1, z, ctx)
print("quasi-periodicity residual:", abs(lhs - rhs))

# each theta_k vanishes exactly on a shifted lattice
z0 = theta_zero_points(N, 2, tau)[0]
vals = [abs(theta_N_eval(j, z0, ctx)) for j in range(N)]
print("at a predicted zero of theta_2:", [f"{v:.2e}" for v in vals])

# exact null expansions (even N: integer coefficients)
for k in range(N // 2 + 1):
    print(f"a_{k} =", theta_null_series(N, k, 14).normalize())

# modular transformations: the tau -> -1/tau and tau -> tau+1 ratios are
# independent of the index k (the constants are not pinned down, so only
# constancy is tested)
rep = transform_check(0.1 + 0.2j, ThetaContext(4, 1j, 1e-10))
ok = rep.max_dev < 1e-8 and rep.max_dev_shift < 1e-8
print("\ntransform ratios constant in k:", ok,
      f"(deviations {rep.max_dev:.2e}, {rep.max_dev_shift:.2e})")
print("|tau+1 constant| =", abs(rep.ratios_shift[0]))
