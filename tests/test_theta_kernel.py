"""The theta kernel's two paths against a scalar reference and an oracle.

`_scalar_theta_sum` below is the one-point-at-a-time summation the
block kernel replaced, kept here as a test-only reference: the block
kernel (array arguments) and the one-point path (a scalar k and z,
summed in plain Python) must both reproduce it exactly (==), point by
point, including the window and radius rule.  `_guard_band_theta_sum` keeps the radius rule before
per-point radii (the Gaussian radius plus a guard band of 6, widened in
steps of 4), whose values the kernel still gives bit for bit at the
CLI's settings.  mpmath's jtheta gives an independent check of the
values themselves."""

import cmath
import math
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from thetalab.quadrics import NullData, gen_even_basis, verify_on_curve
from thetalab.theta import (
    MAX_RADIUS,
    TWO_PI_I,
    ThetaContext,
    jacobi_theta_eval,
    sample_points,
    sample_units,
    theta_N_eval,
    tail_radius,
    theta_pq_eval,
    transform_check,
    window_radii,
)


def _tail_bound(amp, y, radius):
    """The geometric majorant of the terms further than radius from the peak."""
    decay = math.exp(-math.pi * y * radius * radius)
    denom = 1.0 - math.exp(-2.0 * math.pi * y * radius)
    return 2.0 * amp * decay / denom


def _scalar_radius(b, y, tol):
    """The least radius R >= 1 whose tail bound is below min(tol, 2^-60 amp)."""
    amp = math.exp(math.pi * b * b / y)
    limit = min(tol, 2.0**-60 * amp)
    radius = 1
    while not _tail_bound(amp, y, radius) < limit:
        if radius >= MAX_RADIUS:
            raise ValueError("tail bound unreachable at this (tol, Im tau, Im z)")
        radius += 1
    return radius


def _guard_band_radius(b, y, tol):
    """The former rule: Gaussian radius plus 6, widened in steps of 4 below tol."""
    radius = math.ceil(math.sqrt(max(0.0, math.log(1.0 / tol)) / (math.pi * y))) + 6
    amp = math.exp(math.pi * b * b / y)
    while not _tail_bound(amp, y, radius) < tol:
        radius += 4
    return radius


def _window_sum(p, q, z, tau, radius):
    peak = -z.imag / tau.imag
    lo = math.floor(peak - p - radius)
    hi = math.ceil(peak - p + radius)
    acc = 0j
    for n in range(lo, hi + 1):
        m = n + p
        acc += cmath.exp(TWO_PI_I * (0.5 * m * m * tau + m * (z + q)))
    return acc


def _scalar_theta_sum(p, q, z, tau, tol):
    return _window_sum(p, q, z, tau, _scalar_radius(z.imag, tau.imag, tol))


def _guard_band_theta_sum(p, q, z, tau, tol):
    return _window_sum(p, q, z, tau, _guard_band_radius(z.imag, tau.imag, tol))


def _scalar_theta_N(k, z, ctx):
    N = ctx.N
    return _scalar_theta_sum(0.5 - float(k) / N, N / 2.0, N * z, N * ctx.tau, ctx.tol)


@pytest.mark.parametrize("N", [4, 11, 16])
@pytest.mark.parametrize("im_tau", [0.4, 0.5, 1.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-11])
def test_array_values_equal_scalar_sum(N, im_tau, tol):
    rng = Random(N * 1000 + int(im_tau * 10) + int(-math.log10(tol)))
    tau = complex(rng.uniform(-0.5, 0.5), im_tau)
    ctx = ThetaContext(N, tau, tol)
    zs = [0.05 + 0.9 * rng.random() + (0.05 + 0.9 * rng.random()) * tau for _ in range(24)]
    # large |Im z|: the window moves off zero and widens past tail_radius
    zs += [rng.uniform(-1, 1) + 1j * s * rng.uniform(1.5, 2.5) * im_tau for s in (1, -1) * 4]
    zs += [0.0, 0.3, -0.7j]
    ks = [0, 1, N - 1, N // 2, -1, -N - 3, 2 * N + 1, 0.5, -2.5, N - 0.5]
    got = theta_N_eval(ks, np.array(zs), ctx)
    assert got.shape == (len(ks), len(zs))
    for a, k in enumerate(ks):
        assert theta_N_eval(k, np.array(zs), ctx).tolist() == got[a].tolist(), k
        for c, z in enumerate(zs):
            want = _scalar_theta_N(k, z, ctx)
            assert got[a, c] == want, (k, z)
            assert theta_N_eval(k, z, ctx) == want, (k, z)


def test_block_boundaries_and_mixed_windows():
    # more points than one kernel block, with windows of different widths
    ctx = ThetaContext(5, 0.45 + 0.6j, 1e-11)
    rng = Random(3)
    zs = np.array([complex(rng.uniform(-2, 2), rng.uniform(-2.5, 2.5)) for _ in range(700)])
    got = theta_N_eval(2, zs, ctx)
    want = [_scalar_theta_N(2, z, ctx) for z in zs]
    assert [complex(g) for g in got] == want
    assert [theta_N_eval(2, z, ctx) for z in zs] == want


def test_widened_windows_equal_scalar_sum():
    # |Im z| large enough that the tail bound widens the radius past the
    # one at Im z = 0, while exp(pi Im(z)^2 / Im tau) is still finite
    ctx = ThetaContext(4, 0.1 + 0.4j, 1e-10)
    zs = [0.3 + 3.9j, 0.3 - 3.9j, -0.2 + 4.3j, 0.7 - 4.1j, 0.1 + 0.2j]
    assert all(window_radii(4 * np.array(zs[:4]).imag, 1.6, ctx.tol) > ctx.n_radius)
    got = theta_N_eval(range(4), np.array(zs), ctx)
    for k in range(4):
        want = [_scalar_theta_N(k, z, ctx) for z in zs]
        assert got[k].tolist() == want
        assert [theta_N_eval(k, z, ctx) for z in zs] == want
    jac = ThetaContext(1, 0.4j, 1e-11)
    zs = [0.1 + 5.5j, -0.4 - 6.0j, 0.25 + 0.1j]
    assert tail_radius(6.0, 0.4, jac.tol) > jac.n_radius
    for i, (jp, jq) in enumerate(((0, 0.5), (0.5, 0.5), (0.5, 0), (0, 0))):
        got = jacobi_theta_eval(i, np.array(zs), jac)
        want = [_scalar_theta_sum(jp, jq, z, 0.4j, jac.tol) for z in zs]
        assert got.tolist() == want
        assert [jacobi_theta_eval(i, z, jac) for z in zs] == want


def test_pq_and_jacobi_equal_scalar_sum():
    rng = Random(7)
    for _ in range(6):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.5))
        ctx = ThetaContext(1, tau, 1e-11)
        zs = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)])
        p, q = Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 4)
        got = theta_pq_eval(p, q, zs, ctx)
        want = [_scalar_theta_sum(float(p), float(q), z, tau, ctx.tol) for z in zs]
        assert got.tolist() == want
        assert [theta_pq_eval(p, q, z, ctx) for z in zs] == want
        for i, (jp, jq) in enumerate(((0, 0.5), (0.5, 0.5), (0.5, 0), (0, 0))):
            got = jacobi_theta_eval(i, zs, ctx)
            want = [_scalar_theta_sum(jp, jq, z, tau, ctx.tol) for z in zs]
            assert got.tolist() == want
            assert [jacobi_theta_eval(i, z, ctx) for z in zs] == want


def test_single_point_equals_scalar_sum():
    # demo 02's quasi-periodicity point: one point per call, so the term
    # table has a single column; summing it with a reduction over the
    # offset axis (pairwise in numpy) moves the last bits of the value
    N, tau = 6, 0.3 + 1.1j
    ctx = ThetaContext(N, tau, 1e-10)
    z = 0.23 + 0.17j + tau
    assert theta_N_eval(1, z, ctx) == _scalar_theta_N(1, z, ctx)
    assert theta_N_eval(1, np.array([z]), ctx).tolist() == [_scalar_theta_N(1, z, ctx)]


def test_terms_past_a_window_are_left_out():
    # at small Im tau and a loose tol the terms just past a window are not
    # negligible, so a point must not pick up the extra offsets that a wider
    # window elsewhere in its block adds to the term table; at 0.2 + 0.001j
    # the imaginary part nearly cancels, so even terms below rounding of
    # the peak term move its last bits, and 0.2 - 0.8j widens the block
    tau, tol = 0.2 + 0.02j, 1e-3
    ctx = ThetaContext(1, tau, tol)
    zs = [0.1, 0.3 + 0.01j, -0.2 + 0.03j, 0.45 - 0.04j, 0.05 + 0.3j, 0.2 + 0.001j, 0.2 - 0.8j]
    assert tail_radius(-0.8, tau.imag, tol) > tail_radius(0.001, tau.imag, tol)
    got = theta_pq_eval(0, 0, np.array(zs), ctx)
    want = [_scalar_theta_sum(0.0, 0.0, z, tau, tol) for z in zs]
    assert got.tolist() == want
    assert [theta_pq_eval(0, 0, z, ctx) for z in zs] == want


def test_radius_is_the_least_that_proves_the_bound():
    # each radius proves the tail bound below min(tol, 2^-60 amp) in scalar
    # arithmetic, and one less does not unless it is already 1
    rng = Random(5)
    for y in (0.02, 0.1, 0.4, 1.6, 4.4, 8.0, 40.0):
        for tol in (1e-3, 1e-10, 1e-12, 1e-15):
            bmax = math.sqrt(700 * y / math.pi)  # exp(pi b^2 / y) stays finite
            bs = [0.0] + [rng.uniform(-bmax, bmax) for _ in range(20)]
            bs += [rng.uniform(-1, 1) * y for _ in range(20)]
            radii = window_radii(np.array(bs), y, tol)
            assert radii.shape == (len(bs),)
            for b, r in zip(bs, radii.tolist()):
                amp = math.exp(math.pi * b * b / y)
                limit = min(tol, 2.0**-60 * amp)
                assert r == int(r) >= 1
                assert _tail_bound(amp, y, r) < limit, (y, tol, b, r)
                assert r == 1 or not _tail_bound(amp, y, r - 1) < limit, (y, tol, b, r)
                assert window_radii(np.array([b]), y, tol).tolist() == [r]
                assert tail_radius(b, y, tol) == r
            n_radius = ThetaContext(1, 1j * y, tol).n_radius
            assert window_radii(np.zeros(1), y, tol).tolist() == [n_radius]
    with pytest.raises(ValueError, match="unreachable"):
        window_radii(np.zeros(2), 1e-8, 1e-10)
    with pytest.raises(ValueError, match="unreachable"):
        tail_radius(0.0, 1e-8, 1e-10)
    with pytest.raises(ValueError, match="unreachable at this Im tau"):
        ThetaContext(4, 1e-8j)


@pytest.mark.parametrize("N", [4, 11, 16])
@pytest.mark.parametrize("im_tau", [0.4, 1.0, 2.5])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_values_equal_guard_band_rule_at_cli_settings(N, im_tau, tol):
    # at the CLI's tolerances and moduli the terms that per-point radii leave
    # out, and the guard band summed, are too small to move any bit
    rng = Random(N * 100 + int(im_tau * 10) + int(-math.log10(tol)))
    tau = complex(rng.uniform(-0.5, 0.5), im_tau)
    ctx = ThetaContext(N, tau, tol)
    z = np.asarray(sample_points(rng, tau, 12))
    pts = np.concatenate([z, z + tau / N, z + 1.0 / N, -z, [0.0]])
    got = theta_N_eval(range(N), pts, ctx)
    for k in range(N):
        want = [_guard_band_theta_sum(0.5 - k / N, N / 2.0, N * w, N * tau, tol) for w in pts]
        assert got[k].tolist() == want, k
        assert [theta_N_eval(k, w, ctx) for w in pts] == want, k


def test_shapes_and_types():
    ctx = ThetaContext(6, 1j)
    v = theta_N_eval(1, 0.2 + 0.1j, ctx)
    assert type(v) is complex
    assert v == _scalar_theta_N(1, 0.2 + 0.1j, ctx)
    # exact z and half-integral k keep working and stay scalar
    w = theta_N_eval(Fraction(1, 2), Fraction(1, 12), ctx)
    assert type(w) is complex
    assert w == _scalar_theta_sum(0.5 - 0.5 / 6, 3.0, Fraction(1, 2), 6j, ctx.tol)
    assert type(theta_N_eval(np.int64(2), np.float64(0.1), ctx)) is complex
    assert type(theta_pq_eval(0, 0, 0.0, ctx)) is complex
    assert type(jacobi_theta_eval(3, 0.1, ctx)) is complex
    # an iterable of k (here a numpy array) at a point gives a list of complex
    ks = np.arange(6)
    row = theta_N_eval(ks, 0.3 + 0.2j, ctx)
    assert type(row) is list and {type(v) for v in row} == {complex}
    assert row == [theta_N_eval(k, 0.3 + 0.2j, ctx) for k in range(6)]
    # a 1-D array of points gives an array over them, one row per k
    assert theta_N_eval(2, np.zeros(5), ctx).shape == (5,)
    rows = theta_N_eval(ks, np.zeros(3), ctx)
    assert rows.shape == (6, 3) and rows.dtype == complex
    assert theta_N_eval(ks, np.zeros(0), ctx).shape == (6, 0)
    for z in (np.zeros((3, 1)), np.zeros((0, 1)), np.zeros(())):
        with pytest.raises(ValueError, match="1-D array of points"):
            theta_N_eval(ks, z, ctx)
    with pytest.raises(ValueError, match="1-D array of points"):
        jacobi_theta_eval(3, np.zeros((2, 2)), ctx)


def test_overflowing_amplitude_is_a_value_error():
    ctx = ThetaContext(8, 1j)
    with pytest.raises(ValueError, match="overflow"):
        theta_N_eval(0, 200j, ctx)


def _error_text(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_both_paths_raise_the_same_errors():
    # one point and a block holding it raise the same ValueError text
    ctx = ThetaContext(8, 1j)
    text = _error_text(lambda: theta_N_eval(0, 200j, ctx))
    assert text.startswith("theta terms overflow double precision at Im z = 1.6e+03, Im tau = 8 ")
    assert _error_text(lambda: theta_N_eval(0, np.array([0.1, 200j]), ctx)) == text
    # at Im tau = 1e-5 a point with Im z = 0.045 needs a radius past MAX_RADIUS
    ctx = ThetaContext(1, 1e-5j, 1e-10)
    text = _error_text(lambda: theta_pq_eval(0, 0, 0.045j, ctx))
    assert text == "tail bound unreachable at this (tol, Im tau, Im z)"
    assert _error_text(lambda: theta_pq_eval(0, 0, np.array([0.0, 0.045j]), ctx)) == text


def test_on_curve_memory_stays_blocked():
    ctx = ThetaContext(16, 0.5j, 1e-11)
    forms = gen_even_basis(NullData.numeric(ctx)).full
    verify_on_curve(forms, ctx, samples=2)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        rep = verify_on_curve(forms, ctx, samples=3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.max_residual < 1e-8 and rep.samples == 3000
    assert peak < 1 << 20, f"verify_on_curve peaked at {peak / 2**20:.2f} MiB"


def test_one_unit_peaks_below_half_a_mebibyte():
    # one 512-point unit at N = 16: the kernel sums one row per k over the
    # unit, holding per-point arrays and one table of terms besides the
    # 128 KiB of values
    ctx = ThetaContext(16, 0.5j, 1e-11)
    units = sample_units(ctx.tau, 3000, 0)
    unit = next(units)
    units.close()
    assert unit.shape == (512,)
    theta_N_eval(range(16), unit, ctx)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        theta_N_eval(range(16), unit, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19, f"one unit peaked at {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# independent oracle: mpmath's jtheta at 30 digits

def _jtheta(mpmath, n, z, tau):
    """Jacobi theta_n in the thetalab convention, from mpmath.jtheta."""
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        return complex(mpmath.jtheta(n, mpmath.pi * mpmath.mpc(z), q))


def _largest_term(b, y):
    """max(1, exp(pi b^2 / y)): the size of the peak summand at Im z = b,
    Im tau = y.  Rounding makes the sum's absolute error proportional to
    it, so away from Im z = 0 the error can exceed the tail tolerance."""
    return max(1.0, math.exp(math.pi * b * b / y))


# thetalab's index i uses the characteristic (p, q) of _JACOBI_CHARS; the
# matching mpmath function and constant factor: theta_(1/2,1/2) = -theta_1.
_JACOBI_TO_MPMATH = {0: (4, 1), 1: (1, -1), 2: (2, 1), 3: (3, 1)}


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.9j, -0.4 + 0.45j, 0.1 + 0.4j, 0.05 + 0.15j])
def test_jacobi_against_mpmath(tau):
    mpmath = pytest.importorskip("mpmath")
    ctx = ThetaContext(1, tau, 1e-12)
    rng = Random(11)
    zs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1) * tau.imag) for _ in range(6)]
    # large |Im z|: values far from 1, where the window sits off the origin
    zs += [0.2 + 2.5j * tau.imag, -0.3 - 3.0j * tau.imag]
    for i, (n, sign) in _JACOBI_TO_MPMATH.items():
        got = jacobi_theta_eval(i, np.array(zs), ctx)
        for g, z in zip(got, zs):
            want = sign * _jtheta(mpmath, n, z, tau)
            assert abs(g - want) < 1e-10 * _largest_term(z.imag, tau.imag), (i, z, g, want)


def _mp_theta_N(mpmath, N, k, z, tau):
    """theta_k(z, tau) = e(p^2 T / 2 + p w) theta_3(pi (w + p T) | T) with
    T = N tau, w = N z + q, p = 1/2 - k/N and q = N/2: the characteristic
    shifts the argument of Jacobi's theta_3 and adds a phase.  An mpc at
    the caller's working precision."""
    p, q = mpmath.mpf(1) / 2 - mpmath.mpf(k) / N, mpmath.mpf(N) / 2
    T = N * mpmath.mpc(tau)
    w = N * mpmath.mpc(z) + q
    phase = mpmath.exp(2j * mpmath.pi * (p * p * T / 2 + p * w))
    nome = mpmath.exp(1j * mpmath.pi * T)
    return phase * mpmath.jtheta(3, mpmath.pi * (w + p * T), nome)


@pytest.mark.parametrize("N", [4, 5, 11, 16])
@pytest.mark.parametrize("im_tau", [0.1, 0.4, 1.0])
def test_theta_N_against_mpmath(N, im_tau):
    mpmath = pytest.importorskip("mpmath")
    tau = complex(0.2, im_tau)
    ctx = ThetaContext(N, tau, 1e-11)
    rng = Random(N)
    zs = [0.05 + 0.9 * rng.random() + (0.05 + 0.9 * rng.random()) * tau for _ in range(3)]
    zs.append(0.4 - 1.8j * im_tau)
    for k in (0, 1, N // 2, N - 1):
        got = theta_N_eval(k, np.array(zs), ctx)
        for g, z in zip(got, zs):
            with mpmath.workdps(30):
                want = complex(_mp_theta_N(mpmath, N, k, z, tau))
            assert abs(g - want) < 1e-10 * _largest_term(N * z.imag, N * im_tau), (N, k, z)


@pytest.mark.parametrize("N", [4, 5, 8])
def test_transform_ratios_against_mpmath(N):
    """transform_check's r_k and r'_k against the same ratios formed from
    mpmath values at 30 digits, which are themselves k-independent."""
    mpmath = pytest.importorskip("mpmath")
    tau = 0.15 + 0.95j
    ctx = ThetaContext(N, tau, 1e-12)
    for z in (0.1 + 0.05j, 0.37 - 0.21j, 0.62 + 0.5j):
        rep = transform_check(z, ctx)
        # error scale: the largest summand of the sums at (z, tau), (z/tau, -1/tau)
        scale = max(
            _largest_term(N * z.imag, N * tau.imag),
            _largest_term(N * (z / tau).imag, N * (-1 / tau).imag),
        )
        with mpmath.workdps(30):
            mz, mt = mpmath.mpc(z), mpmath.mpc(tau)
            th = [_mp_theta_N(mpmath, N, j, mz, mt) for j in range(N)]
            zeta = mpmath.exp(2j * mpmath.pi / N)
            pre = mpmath.exp(1j * mpmath.pi * mz) * mpmath.sqrt(mt / N)
            want = [
                _mp_theta_N(mpmath, N, k, mz / mt, -1 / mt)
                / (pre * mpmath.fsum(zeta ** (-j * k) * th[j] for j in range(N)))
                for k in range(N)
            ]
            want_shift = [
                _mp_theta_N(mpmath, N, k, mz, mt + 1)
                / (mpmath.exp(-1j * mpmath.pi * k * (N - k) / N) * th[k])
                for k in range(N)
            ]
            for ratios in (want, want_shift):
                assert max(abs(r - ratios[0]) for r in ratios) < 1e-20 * abs(ratios[0])
            want = [complex(r) for r in want]
            want_shift = [complex(r) for r in want_shift]
        for got, ref in ((rep.ratios, want), (rep.ratios_shift, want_shift)):
            for k in range(N):
                assert abs(got[k] - ref[k]) < 1e-9 * scale * abs(ref[k]), (N, z, k)
        assert rep.max_dev < 1e-8 and rep.max_dev_shift < 1e-8


def test_transform_deviation_is_projective_at_level_20():
    """From N = 20 some coordinates lie far below the largest one, so
    their ratios carry a large relative rounding error; the deviation is
    the projective residual, which stays at rounding, while the 40-digit
    ratios are k-independent."""
    mpmath = pytest.importorskip("mpmath")
    N, tau = 20, 1j
    ctx = ThetaContext(N, tau, 1e-10)
    rng = Random(0)  # the sample points of `verify --suite transform --N 20`
    zs = [0.05 + 0.6 * rng.random() + (0.02 + 0.25 * rng.random()) * tau for _ in range(8)]
    for z in zs:
        rep = transform_check(z, ctx)
        assert rep.max_dev < 1e-13 and rep.max_dev_shift < 1e-13, (z, rep.max_dev)
    z = zs[2]  # the point whose float ratios deviate most in relative terms
    with mpmath.workdps(40):
        mz, mt = mpmath.mpc(z), mpmath.mpc(tau)
        th = [_mp_theta_N(mpmath, N, j, mz, mt) for j in range(N)]
        zeta = mpmath.exp(2j * mpmath.pi / N)
        pre = mpmath.exp(1j * mpmath.pi * mz) * mpmath.sqrt(mt / N)
        ratios = [
            _mp_theta_N(mpmath, N, k, mz / mt, -1 / mt)
            / (pre * mpmath.fsum(zeta ** (-j * k) * th[j] for j in range(N)))
            for k in range(N)
        ]
        assert max(abs(r - ratios[0]) for r in ratios) < 1e-30 * abs(ratios[0])
