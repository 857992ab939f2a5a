"""Shared independent oracles for the test suite.

These deliberately re-derive values by the most direct method available
(raw summation at a generous fixed radius, brute-force products) so the
library code paths are checked against something that does not share
their implementation."""

import cmath

import numpy as np

from thetalab.cyclotomic import scalar_is_zero
from thetalab.series import PuiseuxSeries


def direct_theta_pq(p, q, z, tau, radius=60):
    """Raw lattice sum for theta_(p,q)(z, tau), no tail analysis."""
    return sum(
        cmath.exp(2j * cmath.pi * (0.5 * (n + p) ** 2 * tau + (n + p) * (z + q)))
        for n in range(-radius, radius + 1)
    )


def direct_theta_N(N, k, z, tau, radius=60):
    """Raw sum for the degree-N family via its defining characteristic."""
    return direct_theta_pq(0.5 - k / N, N / 2.0, N * z, N * tau, radius)


def jacobi_transform_vars(w, x, y, z):
    """The linear substitution (w', x', y', z') used by the quartic
    theta identities: half-sums with alternating signs."""
    wp = 0.5 * (w + x + y + z)
    xp = 0.5 * (w + x - y - z)
    yp = 0.5 * (w - x + y - z)
    zp = 0.5 * (w - x - y + z)
    return wp, xp, yp, zp


def monomial_basis(N):
    """All unordered index pairs, the N(N+1)/2 degree-2 monomials."""
    return [(i, j) for i in range(N) for j in range(i, N)]


def is_zero(c):
    return c.is_zero() if isinstance(c, PuiseuxSeries) else scalar_is_zero(c)


def forms_proportional(f, g):
    """Exact equality as projective forms (same class up to a global scalar)."""
    if f.N != g.N or set(f.coeffs) != set(g.coeffs):
        return False
    if not f.coeffs:
        return True
    key0 = next(iter(f.coeffs))
    a, b = f.coeffs[key0], g.coeffs[key0]
    return all(is_zero(c * b - g.coeffs[key] * a) for key, c in f.coeffs.items())


SVD_RTOL = 1e-7  # singular values below this share of the largest count as zero


def svd_rank(forms, N):
    """Numeric rank of quadratic forms with numeric coefficients: the
    singular values of their coefficient matrix (rows are forms, columns
    the N(N+1)/2 monomials, each row scaled to unit max) above SVD_RTOL
    times the largest."""
    if not forms:
        return 0
    col = {m: c for c, m in enumerate(monomial_basis(N))}
    mat = np.zeros((len(forms), len(col)), dtype=complex)
    for row, f in zip(mat, forms):
        for m, c in f.coeffs.items():
            row[col[m]] = complex(c)
    norms = np.max(np.abs(mat), axis=1)
    norms[norms == 0] = 1.0
    sv = np.linalg.svd(mat / norms[:, None], compute_uv=False)
    if sv[0] == 0:
        return 0
    return int(np.sum(sv > SVD_RTOL * sv[0]))
