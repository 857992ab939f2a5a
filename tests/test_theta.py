import cmath
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from conftest import direct_theta_N, direct_theta_pq, jacobi_transform_vars
from thetalab.theta import (
    ThetaContext,
    e,
    jacobi_theta_eval,
    largest,
    proj_residual,
    sample_stream,
    theta_N_eval,
    theta_half_eval,
    theta_half_series,
    theta_null_series,
    theta_pq_eval,
    theta_zero_points,
    transform_check,
)

TAUS = (1j, 0.3 + 1.1j)


def ctx(N, tau=1j, tol=1e-10):
    return ThetaContext(N, tau, tol)


def test_sample_stream_refuses_zero_points_at_the_call():
    # raised by the call itself, before the stream is read
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            sample_stream(1j, samples, 0)
    assert len(list(sample_stream(1j, 3, 0))) == 3


def test_context_validation():
    with pytest.raises(ValueError):
        ThetaContext(4, 1.0 + 0j)
    with pytest.raises(ValueError):
        ThetaContext(4, 1j, -1.0)
    c = ctx(4)
    assert c.n_radius > 0


def test_theta_pq_against_direct_sum():
    c = ThetaContext(1, 1j, 1e-12)
    got = theta_pq_eval(0, 0, 0.0, c)
    want = direct_theta_pq(0.0, 0.0, 0.0, 1j, radius=50)
    assert abs(got - want) < 1e-12
    assert abs(got - 1.08643481121) < 1e-10
    rng = Random(2)
    for _ in range(10):
        tau = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.5, 1.5)
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-0.5, 0.5)
        p, q = Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 4)
        got = theta_pq_eval(p, q, z, ThetaContext(1, tau, 1e-11))
        want = direct_theta_pq(float(p), float(q), z, tau, radius=80)
        assert abs(got - want) < 1e-10


def test_theta1_odd_at_zero():
    got = theta_pq_eval(Fraction(1, 2), Fraction(1, 2), 0.0, ctx(1))
    assert abs(got) < 1e-10


def test_characteristic_shift_in_q():
    # shifting q by 1 multiplies by e(p)
    c = ctx(1, 0.2 + 0.9j)
    z = 0.31 + 0.17j
    p, q = Fraction(1, 3), Fraction(1, 5)
    a = theta_pq_eval(p, q + 1, z, c)
    b = theta_pq_eval(p, q, z, c)
    assert abs(a - e(p) * b) < 2e-10 * abs(b)


def test_degree_N_periodicity_and_parity():
    for tau in TAUS:
        for N in (4, 5, 6, 7, 8):
            c = ctx(N, tau)
            z = 0.23 + 0.11j
            a = theta_N_eval(2, z, c)
            assert abs(a - theta_N_eval(2 + N, z, c)) < 2 * c.tol * max(1, abs(a))
            for k in range(N):
                lhs = theta_N_eval(k, -z, c)
                rhs = (-1) ** N * theta_N_eval(-k, z, c)
                assert abs(lhs - rhs) < 2 * c.tol * max(1, abs(lhs))


def test_odd_null_index_zero_vanishes():
    c = ctx(5)
    assert abs(theta_N_eval(0, 0.0, c)) < c.tol


def test_quasi_periodicity():
    rng = Random(4)
    for N in (4, 5, 6, 7, 8):
        for tau in TAUS:
            c = ctx(N, tau)
            for _ in range(3):
                z = rng.uniform(0, 1) + rng.uniform(0, 1) * tau
                k = rng.randrange(N)
                th = theta_N_eval(k, z, c)
                scale = max(1.0, abs(th))
                assert abs(theta_N_eval(k, z + 1, c) - (-1) ** N * th) < 2 * c.tol * scale
                f = (-1) ** N * e(-N * tau / 2 - N * z)
                lhs = theta_N_eval(k, z + tau, c)
                assert abs(lhs - f * th) < 2 * c.tol * max(1.0, abs(lhs), abs(f) * scale)


def test_index_shifts():
    rng = Random(8)
    for N in (4, 5, 7, 8):
        for tau in TAUS:
            c = ctx(N, tau)
            z = rng.uniform(0, 0.9) + rng.uniform(0, 0.9) * tau
            for k in (0, 1, N - 1):
                th_k = theta_N_eval(k, z, c)
                th_km1 = theta_N_eval(k - 1, z, c)
                th_half = theta_N_eval(k - 0.5, z, c)
                scale = max(1.0, abs(th_k), abs(th_km1))
                got = theta_N_eval(k, z + 1.0 / N, c)
                assert abs(got + e(Fraction(-k, N)) * th_k) < 2 * c.tol * scale
                got = theta_N_eval(k, z + tau / N, c)
                assert abs(got + e(-tau / (2 * N) - z) * th_km1) < 4 * c.tol * scale
                got = theta_N_eval(k, z + tau / (2 * N), c)
                factor = e(-tau / (8 * N) - z / 2 - 0.25)
                assert abs(got - factor * th_half) < 4 * c.tol * max(scale, abs(th_half))


def test_zero_locations():
    for N in (4, 5, 6, 7, 8):
        c = ctx(N, 0.3 + 1.1j, 1e-10)
        for k in range(N):
            for z0 in theta_zero_points(N, k, c.tau, count=5):
                vals = [abs(theta_N_eval(j, z0, c)) for j in range(N)]
                assert vals[k] < 1e-8 * max(vals)
                z1 = z0 + 0.137 + 0.083 * c.tau
                vals1 = [abs(theta_N_eval(j, z1, c)) for j in range(N)]
                assert vals1[k] > 1e-4 * max(vals1)


def test_linear_independence():
    rng = Random(12)
    for N in (4, 5, 6, 7, 8):
        for tau in TAUS:
            c = ctx(N, tau)
            zs = [rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * tau for _ in range(N)]
            m = np.array([[theta_N_eval(j, z, c) for j in range(N)] for z in zs])
            # rows are projective points; normalize before conditioning
            m = m / np.max(np.abs(m), axis=1)[:, None]
            sv = np.linalg.svd(m, compute_uv=False)
            assert sv[-1] > 1e-7 * sv[0]


def test_null_series_even_structure():
    s = theta_null_series(4, 0, 12)
    assert s.items() == [
        (Fraction(1, 2), 2), (Fraction(9, 2), 2),
    ]
    s = theta_null_series(4, 2, 40)
    assert s.items()[:3] == [(Fraction(0), 1), (Fraction(2), 2), (Fraction(8), 2)]
    for N in (4, 6, 8):
        for k in range(1, N):
            assert (theta_null_series(N, k, 30) - theta_null_series(N, N - k, 30)).is_zero()


def test_null_series_odd_structure():
    for N in (5, 7):
        assert theta_null_series(N, 0, 30).is_zero()
        for k in range(1, N):
            d = theta_null_series(N, k, 30) + theta_null_series(N, N - k, 30)
            assert d.is_zero()


def test_null_series_matches_numeric():
    for N in (4, 5, 6, 7, 8):
        c = ctx(N, 1j, 1e-12)
        scalar = 1j ** N if N % 2 else 1.0
        for k in range(N):
            exact = scalar * theta_null_series(N, k, 60).eval_at_tau(1j)
            num = theta_N_eval(k, 0.0, c)
            assert abs(exact - num) < 1e-9


def test_half_period_values():
    for N in (4, 6, 8):
        c = ctx(N)
        for k in (0, 1, N // 2):
            s = theta_half_eval(N, k, c)
            assert abs(s - theta_N_eval(k, 1.0 / (2 * N), c)) < 2 * c.tol
            assert abs(theta_half_eval(N, k + N, c) - s) < 2 * c.tol
            # index shift at the half period
            lhs = theta_N_eval(k, 1.0 / (2 * N) + 1.0 / N, c)
            assert abs(lhs + e(Fraction(-k, N)) * s) < 2 * c.tol * max(1, abs(s))
    with pytest.raises(ValueError):
        theta_half_eval(5, 0, ctx(5))


def test_half_period_series_match_the_numeric_values():
    for N in range(4, 17, 2):
        c = ctx(N, 0.3 + 1.1j, 1e-14)
        num = theta_half_eval(N, range(N), c)
        for k in range(N):
            s = theta_half_series(N, k, N)
            assert s.known_order() == N
            assert abs(s.eval_at_tau(c.tau) - num[k]) < 1e-13, (N, k)
        assert theta_half_series(N, 0, N).is_zero()  # s_0 = 0
        assert theta_half_series(N, N // 2, N).coefficient(0) == 1
    with pytest.raises(ValueError):
        theta_half_series(5, 0, 10)


def test_jacobi_basics():
    c = ctx(1, 0.1 + 0.8j)
    z = 0.21 + 0.13j
    assert abs(jacobi_theta_eval(1, -z, c) + jacobi_theta_eval(1, z, c)) < 2 * c.tol
    assert abs(jacobi_theta_eval(2, z + 0.5, c) - jacobi_theta_eval(1, z, c)) < 2 * c.tol
    got = jacobi_theta_eval(3, 0.0, ThetaContext(1, 1j))
    assert abs(got - 1.08643481121) < 1e-9
    # the four indices agree with their defining characteristics
    chars = ((0, 0.5), (0.5, 0.5), (0.5, 0), (0, 0))
    for i, (p, q) in enumerate(chars):
        assert abs(jacobi_theta_eval(i, z, c) - direct_theta_pq(p, q, z, c.tau)) < 1e-9
    with pytest.raises(ValueError):
        jacobi_theta_eval(4, 0.0, c)


def test_jacobi_four_term_identity():
    rng = Random(21)
    for tau in TAUS:
        c = ThetaContext(1, tau, 1e-11)
        for _ in range(5):
            w, x, y, z = (rng.uniform(-0.4, 0.4) + rng.uniform(-0.2, 0.2) * 1j for _ in range(4))
            wp, xp, yp, zp = jacobi_transform_vars(w, x, y, z)

            def prod(i, args):
                v = 1.0
                for arg in args:
                    v *= jacobi_theta_eval(i, arg, c)
                return v

            lhs = prod(3, (w, x, y, z)) + prod(2, (w, x, y, z))
            rhs = prod(3, (wp, xp, yp, zp)) + prod(2, (wp, xp, yp, zp))
            assert abs(lhs - rhs) < 4 * c.tol * max(1.0, abs(lhs))


def test_jacobi_three_term_identity():
    rng = Random(22)
    for tau in TAUS:
        c = ThetaContext(1, tau, 1e-11)
        for _ in range(5):
            w, x, y, z = (rng.uniform(-0.4, 0.4) + rng.uniform(-0.2, 0.2) * 1j for _ in range(4))
            wp, xp, yp, zp = jacobi_transform_vars(w, x, y, z)
            wpp, xpp, ypp, zpp = jacobi_transform_vars(w, x, y, -z)

            def prod(i, args):
                v = 1.0
                for arg in args:
                    v *= jacobi_theta_eval(i, arg, c)
                return v

            total = (
                prod(1, (w, x, y, z))
                + prod(0, (wp, xp, yp, zp))
                - prod(0, (wpp, xpp, ypp, zpp))
            )
            assert abs(total) < 4 * c.tol * max(1.0, abs(prod(1, (w, x, y, z))))


def test_transform_check():
    for N in (4, 5, 6, 7, 8):
        for tau in TAUS:
            rep = transform_check(0.1 + 0.2j, ctx(N, tau))
            assert rep.max_dev < 1e-9 and rep.max_dev_shift < 1e-9, (N, tau, rep)
            # the tau -> tau+1 constant has unit modulus
            assert abs(abs(rep.ratios_shift[0]) - 1.0) < 1e-9
            # k and N-k give the same shifted ratio
            for k in range(1, N):
                assert abs(rep.ratios_shift[k] - rep.ratios_shift[N - k]) < 1e-9


def test_transform_against_direct_oracle():
    N, tau, z = 4, 1j, 0.1 + 0.2j
    rep = transform_check(z, ctx(N, tau))
    zeta = cmath.exp(2j * cmath.pi / N)
    lhs = direct_theta_N(N, 1, z / tau, -1 / tau, radius=60)
    rhs = (
        cmath.exp(1j * cmath.pi * z)
        * cmath.sqrt(tau / N)
        * sum(zeta ** (-j) * direct_theta_N(N, j, z, tau, radius=60) for j in range(N))
    )
    assert abs(rep.ratios[1] - lhs / rhs) < 1e-9


def test_radius_cap_guards_absurd_contexts():
    import pytest as _pytest

    with _pytest.raises(ValueError):
        ThetaContext(4, 1e-07j, 1e-10)


def test_largest_raises_on_a_non_finite_figure():
    # the largest figure / scale of a unit, a point's floats or arrays over
    # its points; a figure that is not finite, or a scale that is not
    # positive and finite, could only come from overflow, and raises
    assert largest(0.25, "quadric") == 0.25
    assert largest(1.0, "quadric", 4.0) == 0.25
    assert largest(np.array([0.1, 0.3]), "projective") == 0.3
    assert largest(np.array([1.0, 3.0]), "quadric", np.array([10.0, 10.0])) == 0.3
    # proj_residual per point: a zero vector u gives inf, which raises here too
    u = [np.array([1 + 0j, 0j]), np.array([2 + 0j, 0j])]
    v = [np.array([2 + 0j, 1 + 0j]), np.array([4 + 0j, 2 + 0j])]
    with np.errstate(all="ignore"):  # as sample_units hands out an array unit
        per_point = proj_residual(u, v)
    assert per_point.tolist() == [0.0, math.inf]
    assert proj_residual([0j, 0j], [1 + 0j, 2 + 0j]) == math.inf
    assert proj_residual([1 + 0j, 2 + 0j], [2 + 0j, 4 + 0j]) == 0.0
    overflow = proj_residual([1e-300 + 0j, 1e-301 + 0j], [1e300 + 0j, 1e300 + 0j])
    figures = [
        (overflow, 1.0), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, 0.0),
        (per_point, 1.0), (np.array([0.1, math.nan]), 1.0),
        (np.array([0.1, 0.2]), np.array([1.0, math.inf])),
    ]
    for figure, scale in figures:
        with pytest.raises(OverflowError, match="^non-finite quadric residual$"):
            largest(figure, "quadric", scale)
