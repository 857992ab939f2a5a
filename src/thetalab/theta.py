"""Numerical theta evaluation and exact theta-null q-expansions.

The basic object is theta with characteristic (p, q):

    theta_(p,q)(z, tau) = sum_n e((1/2)(n+p)^2 tau + (n+p)(z+q)),

with e(x) = exp(2 pi i x), and the degree-N family

    theta_k(z, tau) = theta_(1/2 - k/N, N/2)(N z, N tau),

indexed by k mod N (integers or half-integers).  Numeric sums are
truncated point by point, where a Gaussian tail bound puts the rest
below the tolerance and below rounding of the peak term.  The
evaluators take one k or an iterable of k, at one point z or at a 1-D
numpy array of points.  A point is summed in plain Python with math
and cmath, so it never executes numpy; an array of points is summed
by a numpy block kernel, one row per k, that gives the same values bit
for bit.  The sampled checks read their points as a stream of
evaluation units (sample_units): single points, or numpy arrays of
points, by one rule on the sample count (pointwise), and form their
residuals by the same code on either kind.  The exact q-expansions of
the null values theta_k(0, tau) are produced as Puiseux series.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import islice
from math import isqrt
from numbers import Number
from random import Random
from typing import NamedTuple

from .cyclotomic import zeta
from .frozen import Frozen
from .lazy import np
from .series import PuiseuxSeries

TWO_PI_I = 2j * math.pi
TWO_PI = TWO_PI_I.imag

MAX_RADIUS = 4096
BLOCK = 512  # points summed together by one pass of _theta_sum


def e(x) -> complex:
    """The character e(x) = exp(2 pi i x)."""
    return cmath.exp(TWO_PI_I * x)


def _overflow(b: float, y: float) -> ValueError:
    return ValueError(
        f"theta terms overflow double precision at Im z = {b:.3g}, Im tau = {y:.3g}"
        " (N z and N tau for the degree-N family); lower Im tau"
    )


_UNREACHABLE = "tail bound unreachable at this (tol, Im tau, Im z)"


def tail_radius(b: float, y: float, tol: float) -> int:
    """Summation radius around the peak for the point with Im z = b.

    The summand at m = n + p has magnitude
    amp * exp(-pi y (m + b/y)^2) with amp = exp(pi b^2 / y) and
    y = Im tau, so the terms further than R from the peak add up to at
    most the geometric majorant

        2 amp exp(-pi y R^2) / (1 - exp(-2 pi y R)).

    The radius is the smallest integer R >= 1 at which this is below
    min(tol, 2^-60 amp): the tail left out is below tol and below double
    rounding of the peak term (the pointwise truncation of Deconinck et
    al., Computing Riemann theta functions, Math. Comp. 73, 2004).  It is
    found stepping up from a Gaussian lower bound: the majorant exceeds
    2 amp exp(-pi y R^2), so no radius below
    sqrt(log(2 amp / limit) / (pi y)) proves the bound; the margin keeps
    rounding from starting past the radius."""
    log_amp = math.pi * b * b / y
    try:
        amp = math.exp(log_amp)
    except OverflowError:
        amp = math.inf
    if not math.isfinite(amp):
        raise _overflow(b, y)
    limit = min(tol, 2.0**-60 * amp)
    log_ratio = max(log_amp - math.log(tol), 60 * math.log(2))
    radius = max(1, math.ceil(math.sqrt((log_ratio + math.log(2)) / (math.pi * y)) - 1e-9))
    while True:
        if radius > MAX_RADIUS:
            raise ValueError(_UNREACHABLE)
        decay = math.exp(-math.pi * y * radius * radius)
        denom = 1.0 - math.exp(-2.0 * math.pi * y * radius)
        if 2.0 * amp * decay / denom < limit:
            return radius
        radius += 1


def window_radii(b: np.ndarray, y: float, tol: float) -> np.ndarray:
    """tail_radius for a 1-D array of Im z at once, as floats: the same
    operations, stepping every point up together."""
    with np.errstate(over="ignore", invalid="ignore"):
        log_amp = math.pi * b * b / y
        amp = np.exp(log_amp)
        if not np.isfinite(amp).all():
            raise _overflow(b[np.argmin(np.isfinite(amp))], y)
        limit = np.minimum(tol, 2.0**-60 * amp)
        log_ratio = np.maximum(log_amp - math.log(tol), 60 * math.log(2))
        start = np.sqrt((log_ratio + math.log(2)) / (math.pi * y)) - 1e-9
        radius = np.maximum(1.0, np.ceil(start))
        todo = np.arange(b.size)
        while todo.size:
            r = radius[todo]
            if r.max() > MAX_RADIUS:
                raise ValueError(_UNREACHABLE)
            decay = np.exp(-math.pi * y * r * r)
            denom = 1.0 - np.exp(-2.0 * math.pi * y * r)
            todo = todo[~(2.0 * amp[todo] * decay / denom < limit[todo])]
            radius[todo] += 1
    return radius


def _theta_sum(p, q: float, z, tau: complex, tol: float):
    """Direct sum for theta_(p,q)(z, tau) with a proven < tol tail.

    Each point sums its own window [floor(peak - p - R), ceil(peak - p + R)]
    centred on its peak m = -Im z / Im tau, with R = tail_radius(Im z),
    adding the terms exp(2 pi i ((1/2) m^2 tau + m (z + q))) in increasing
    n.  p is a float or a list of floats (one value per p), and z a
    complex point or a 1-D array of points (values over the points, a
    row per p).  A point's windows share one radius and are summed in
    plain Python (_point_sum); an array goes to the block kernel
    (_block_sum).  Both form every term by the same floating-point
    operations and add them in the same order, so they give the same
    value bit for bit.

    Error model: tol bounds only the tail left out of the window.
    Rounding in the sum adds about 1e-16 * exp(pi Im(z)^2 / Im tau), the
    size of the peak term, so at large |Im z| the absolute error can
    exceed tol.
    """
    y = tau.imag
    if y <= 0:
        raise ValueError("Im tau must be positive")
    one = isinstance(p, float)
    ps = [p] if one else p
    if isinstance(z, complex):
        radius = tail_radius(z.imag, y, tol)
        values = [_point_sum(pk, q, z, tau, radius) for pk in ps]
    else:
        values = _block_sum(ps, q, z, tau, tol)
    return values[0] if one else values


def _point_sum(p: float, q: float, z: complex, tau: complex, radius: int) -> complex:
    """One window of _theta_sum, term by term with math and cmath."""
    b = z.imag
    x, y = tau.real, tau.imag
    peak = -b / y
    w_re = z.real + q
    acc = 0j
    for n in range(math.floor(peak - p - radius), math.ceil(peak - p + radius) + 1):
        m = n + p
        half_m2 = 0.5 * m * m
        re = (half_m2 * y + m * b) * -TWO_PI
        acc += cmath.exp(complex(re, (half_m2 * x + m * w_re) * TWO_PI))
    return acc


def _block_sum(p: list, q: float, z: np.ndarray, tau: complex, tol: float) -> np.ndarray:
    """The windows of _theta_sum for a list of p at a 1-D array of points
    z: one row of values per p.

    Each point's radius, peak and real shift are found once.  Each row
    is then summed BLOCK points at a time: a block's terms form one
    (window offset x point) table, built with one exp and with every
    term formed by the same floating-point operations as _point_sum.
    Terms past a point's own window are set to zero, and the table's
    rows are added in increasing n, so each value is the one _point_sum
    gives, bit for bit.  (A reduction over the offset axis would not be:
    numpy sums a contiguous axis pairwise.)"""
    y = tau.imag
    b = z.imag
    radius = window_radii(b, y, tol)
    peak = -b / y
    w_re = z.real + q
    out = np.zeros((len(p), z.size), dtype=complex)
    with np.errstate(over="raise", invalid="raise"):  # as cmath.exp raises, never inf
        for pk, values in zip(p, out):
            lo = np.floor(peak - pk - radius)
            hi = np.ceil(peak - pk + radius)
            for s in range(0, z.size, BLOCK):
                blk = slice(s, s + BLOCK)
                lob, hib, acc = lo[blk], hi[blk], values[blk]
                n = lob + np.arange(int(np.max(hib - lob)) + 1, dtype=float)[:, None]
                m = n + pk
                half_m2 = 0.5 * m * m
                # TWO_PI_I * (half_m2 * tau + m * (z + q)) in reals: numpy's complex
                # product may fuse multiply-adds, which would move the last bit
                terms = np.empty(m.shape, dtype=complex)
                terms.real = (half_m2 * y + m * b[blk]) * -TWO_PI
                terms.imag = (half_m2 * tau.real + m * w_re[blk]) * TWO_PI
                np.exp(terms, out=terms)
                np.copyto(terms, 0, where=n > hib)
                for row in terms:
                    acc += row
    return out


class ThetaContext(Frozen):
    """Evaluation context: level N, modulus tau, target absolute error.

    The derived n_radius is the kernel's summation radius at Im z = 0
    for the inner sum at N*tau (the tau actually used by the degree-N
    family); points with larger |Im z| get wider windows.
    """

    __slots__ = ("N", "tau", "tol", "n_radius")

    def __init__(self, N: int, tau: complex, tol: float = 1e-10):
        if N < 1:
            raise ValueError("N must be positive")
        if tau.imag <= 0:
            raise ValueError("Im tau must be positive")
        if tol <= 0:
            raise ValueError("tol must be positive")
        try:
            radius = tail_radius(0.0, N * tau.imag, tol)
        except ValueError:
            raise ValueError("tolerance unreachable at this Im tau; raise tol or Im tau") from None
        self._set(N=N, tau=tau, tol=tol, n_radius=radius)

    def with_tau(self, tau: complex) -> "ThetaContext":
        return ThetaContext(self.N, tau, self.tol)


def _scaled(z, scale: int = 1):
    """scale * z: a complex for a number z (an exact Fraction is scaled
    exactly), else a 1-D complex array of points."""
    if isinstance(z, Number):
        return complex(scale * z)
    z = scale * np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise ValueError(f"z must be a number or a 1-D array of points, not {z.ndim}-D")
    return z


def theta_pq_eval(p, q, z, ctx: ThetaContext):
    """theta with characteristic (p, q) at (z, ctx.tau); p and q are real
    numbers (an exact Fraction is rounded to a float once).

    The tail left out is below ctx.tol; rounding adds about
    1e-16 * exp(pi Im(z)^2 / Im tau), the size of the peak term (see
    _theta_sum).  z is a number, giving a Python complex, or a 1-D array
    of points, giving an array over them."""
    return _theta_sum(float(p), float(q), _scaled(z), ctx.tau, ctx.tol)


def theta_N_eval(k, z, ctx: ThetaContext):
    """theta_k of the degree-N family at (z, ctx.tau); k may be half-integral.

    k is a number or an iterable of numbers, and z a number or a 1-D
    array of points (a unit of sample_units).  At a number z, one k gives
    a Python complex and an iterable of k a list of complex, one per k;
    both are summed without numpy.  At an array of points, one k gives
    an array over the points and an iterable of k a 2-D array of one row
    per k (the coordinates of a unit).  The values agree bit for bit
    across the forms.  The tail left out is below ctx.tol; rounding adds
    about 1e-16 * exp(pi N Im(z)^2 / Im tau), the size of the peak term
    of the sum at (N z, N tau)."""
    N = ctx.N
    p = 0.5 - float(k) / N if isinstance(k, Number) else [0.5 - float(j) / N for j in k]
    return _theta_sum(p, N / 2.0, _scaled(z, N), N * ctx.tau, ctx.tol)


def theta_half_eval(N: int, k, ctx: ThetaContext):
    """Half-period value s_k = theta_k(1/(2N), tau); N must be even.  k is
    a number, giving a complex, or an iterable of numbers, giving a list,
    as in theta_N_eval."""
    if N % 2:
        raise ValueError("half-period values are defined for even N")
    if ctx.N != N:
        ctx = ThetaContext(N, ctx.tau, ctx.tol)
    return theta_N_eval(k, 1.0 / (2 * N), ctx)


_JACOBI_CHARS = (
    (Fraction(0), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(0), Fraction(0)),
)


def jacobi_theta_eval(i: int, z, ctx: ThetaContext):
    """Jacobi's basic theta functions, indices 0..3; z is a number or a
    1-D array of points, as in theta_pq_eval.

    Same error model as theta_pq_eval: tail below ctx.tol, plus rounding
    of about 1e-16 * exp(pi Im(z)^2 / Im tau)."""
    if not 0 <= i <= 3:
        raise ValueError("Jacobi theta index must be 0..3")
    p, q = _JACOBI_CHARS[i]
    return _theta_sum(float(p), float(q), _scaled(z), ctx.tau, ctx.tol)


def _theta_series(N: int, k: int, order: int, coeff) -> PuiseuxSeries:
    """sum over a = N - 2k (mod 2N) of coeff(n, a) q^(a^2/8N), a = 2Nn + N - 2k,
    known modulo q^order; terms of equal a^2 are added."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    ram = 8 * N
    trunc = ram * order
    terms: dict = {}
    bound = (isqrt(trunc) + abs(N - 2 * k)) // (2 * N) + 2
    for n in range(-bound, bound + 1):
        a = 2 * N * n + N - 2 * k
        num = a * a
        if num < trunc:
            terms[num] = terms.get(num, Fraction(0)) + coeff(n, a)
    return PuiseuxSeries(ram, terms, trunc)


def theta_null_series(N: int, k: int, order: int) -> PuiseuxSeries:
    """Exact q-expansion of the theta-null value a_k = theta_k(0, tau).

    Ramification 8N; exponent numerators are (2Nn + N - 2k)^2.  For even
    N the coefficients are the integers (-1)^(N/2 - k); for odd N the
    global scalar i^N is dropped so that coefficients stay rational, and
    the term signs are (-1)^(n+k).  The series is known modulo q^order.
    """
    if N % 2 == 0:
        sign = Fraction(-1 if (N // 2 - k) % 2 else 1)
        return _theta_series(N, k, order, lambda n, a: sign)
    return _theta_series(N, k, order, lambda n, a: Fraction(-1 if (n + k) % 2 else 1))


def theta_half_series(N: int, k: int, order: int) -> PuiseuxSeries:
    """Exact q-expansion of the half-period value s_k = theta_k(1/(2N), tau).

    The terms of theta_null_series with the phase e(a/4) of a/(2N) at
    z = 0 replaced by its value at z = 1/(2N), zeta_4N^(a(N+1)), for
    a = 2Nn + N - 2k.  N must be even; then a is even and the
    coefficients zeta_2N^(a(N+1)/2) lie in Q(zeta_2N).  Known modulo
    q^order.
    """
    if N % 2:
        raise ValueError("half-period values are defined for even N")
    return _theta_series(N, k, order, lambda n, a: zeta(2 * N, a // 2 * (N + 1)))


def theta_zero_points(N: int, k: int, tau: complex, count: int = 5) -> list[complex]:
    """Representative zeros of theta_k from its known zero lattice.

    Odd N: m/N + (k/N + n) tau; even N: 1/(2N) + m/N + (k/N + n) tau.
    Small (m, n) are chosen so the quasi-periodicity factors stay O(1).
    """
    shifts = [(0, 0), (1, 0), (2, 0), (0, -1), (1, 1), (3, 0), (2, -1)]
    base = 0.0 if N % 2 else 1.0 / (2 * N)
    out = []
    for m, n in shifts[:count]:
        out.append(base + m / N + (k / N + n) * tau)
    return out


SAMPLE_BLOCK = 64  # the most samples a check sums one point at a time


def pointwise(samples: int) -> bool:
    """Whether a sampled check of `samples` points reads them one at a time.

    The one rule for the numeric path (sample_units): a check that asks
    for at most SAMPLE_BLOCK samples evaluates each point as
    theta_N_eval(range(N), z) in plain Python and never executes numpy;
    a longer stream is read as numpy arrays of up to BLOCK points, summed
    by the block kernel.  Both give the same theta values bit for bit,
    and a check forms its residuals by the same code on either kind of
    unit (numpy may fuse a multiply-add, so a residual can move in its
    last digits).

    Executing numpy costs about 55 ms and 14 MB of resident memory per
    process, with OpenBLAS on one thread (thetalab.lazy).  One point at
    a time, the two costliest checks, verify_on_curve (63 forms) and
    translation_check, took 4 and 9 ms at N = 12 with 25 samples (the
    CLI default), and 27 and 33 ms at N = 24 with 64 samples (273
    forms), still below that start-up cost (Python 3.11.7 on a 2-core
    Intel Xeon VM)."""
    return samples <= SAMPLE_BLOCK


def sample_points(rng: Random, tau: complex, count: int) -> list[complex]:
    """The next `count` points z = u + v tau with u, v uniform on [0.05, 0.95].

    Two draws per point, u first, in the order a scalar loop makes them,
    so the i-th point drawn from a stream does not depend on how the
    draws are split into calls."""
    return [0.05 + 0.9 * rng.random() + (0.05 + 0.9 * rng.random()) * tau for _ in range(count)]


def sample_stream(tau: complex, samples: int, seed: int):
    """The seeded sample stream: an iterator over the first `samples`
    points of sample_points(Random(seed), tau, ...), one complex at a
    time.

    Every sampled check reads its points here, through sample_units or
    directly (the Hesse cubic, the level-4 Weierstrass form and the
    rho-theta match), and evaluates each point once; the translation
    check evaluates its first ten again for the inversion.  Points are
    drawn as they are read, so a check that stops early, as the
    Weierstrass check does once enough points are accepted, draws only
    the points a longer stream starts with.  No check passes over zero
    points: samples < 1 raises ValueError at the call, before any point
    is drawn."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = Random(seed)
    return (z for _ in range(samples) for z in sample_points(rng, tau, 1))


def sample_units(tau: complex, samples: int, seed: int):
    """sample_stream as evaluation units: each point itself (a complex)
    when pointwise(samples), else 1-D numpy arrays of up to BLOCK points.

    A check reads the coordinates of a unit as theta_N_eval(range(N),
    unit) and writes its residuals once, for either kind: the
    coordinates are a list of complex values at a point and a 2-D array
    of one row per coordinate over the unit's points otherwise, and
    largest_modulus and largest reduce them.  So the
    quadric and translation checks execute numpy only when asked for
    more than SAMPLE_BLOCK samples, and `verify` only then.  An array
    unit is handed out under np.errstate(all="ignore"): overflow in a
    residual reads as a non-finite figure, which `largest` raises on as
    it does at a point; a point unit never touches numpy."""
    points = sample_stream(tau, samples, seed)
    if pointwise(samples):
        yield from points
        return
    for _ in range(0, samples, BLOCK):
        unit = np.array(list(islice(points, BLOCK)))
        with np.errstate(all="ignore"):
            yield unit


def largest_modulus(x):
    """The largest modulus of the coordinates x at each point of a unit:
    a float at a point, an array over the points otherwise."""
    if isinstance(x[0], Number):
        return max(map(abs, x))
    return np.max(np.abs(x), axis=0)


def largest(figure, what: str, scale=1.0) -> float:
    """The largest of figure / scale over the points of a unit (floats at
    a point, arrays over the points otherwise).

    A ratio that is not finite (NaN included), or a scale that is not
    positive and finite, can only come from theta values that overflow
    in the products of a figure (or, for a zero vector in proj_residual,
    all underflow), and raises OverflowError(f"non-finite {what}
    residual")."""
    if isinstance(figure, float):
        worst = figure / scale if 0.0 < scale < math.inf else math.nan
    else:
        worst = float(np.max(np.where((0.0 < scale) & (scale < math.inf), figure / scale, math.nan)))
    if not worst < math.inf:
        raise OverflowError(f"non-finite {what} residual")
    return worst


def proj_residual(u, v):
    """Relative deviation of two numeric vectors as projective points.

    A pair of sequences of numbers is compared in plain Python and gives
    a float.  u and v may also be the coordinates of an array unit, one
    array over the points per coordinate; the result is then an array of
    each point's deviation.  A zero vector u gives inf."""
    if isinstance(u[0], Number):
        u, v = [complex(x) for x in u], [complex(x) for x in v]
        mags = [abs(x) for x in u]
        i = mags.index(max(mags))
        if u[i] == 0:
            return float("inf")
        c = v[i] / u[i]
        devs = [abs(y - c * x) for x, y in zip(u, v)]
        if math.isnan(sum(devs)):  # max() would skip a NaN that np.max keeps
            return math.nan
        return max(devs) / max(max(abs(y) for y in v), 1e-300)
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    points = np.arange(u.shape[1])
    i = np.argmax(np.abs(u), axis=0)
    top = u[i, points]
    c = v[i, points] / top
    dev = np.max(np.abs(v - c * u), axis=0) / np.maximum(np.max(np.abs(v), axis=0), 1e-300)
    return np.where(top == 0, math.inf, dev)


class TransformReport(NamedTuple):
    """k-independence test of the two modular coordinate changes."""

    N: int
    z: complex
    ratios: tuple          # r_k from tau -> -1/tau
    ratios_shift: tuple    # r'_k from tau -> tau + 1
    max_dev: float
    max_dev_shift: float


def transform_check(z: complex, ctx: ThetaContext) -> TransformReport:
    """Check that the tau -> -1/tau and tau -> tau+1 ratios are k-free.

    r_k  = theta_k(z/tau, -1/tau) / [e(z/2) sqrt(tau/N) sum_j zeta^(-jk) theta_j(z, tau)]
    r'_k = theta_k(z, tau+1) / [e(-k(N-k)/(2N)) theta_k(z, tau)]

    The two proportionality constants are only determined up to a
    k-independent factor, so the report tests constancy in k, not a
    specific value; sqrt is the principal branch.  The deviations are
    the projective residuals of the transformed vector against the
    right-hand vector: a coordinate far below the largest one counts by
    its error relative to the largest coordinate, not by the relative
    error of its own ratio, which rounding alone can push past a
    tolerance.  The report states the deviations and no verdict: the
    caller compares them with its tolerance.
    """
    N = ctx.N
    tau = ctx.tau
    ctx_inv = ctx.with_tau(-1.0 / tau)
    ctx_shift = ctx.with_tau(tau + 1.0)
    ks = range(N)
    th = theta_N_eval(ks, z, ctx)
    lhs = theta_N_eval(ks, z / tau, ctx_inv)
    lhs2 = theta_N_eval(ks, z, ctx_shift)
    zeta = e(Fraction(1, N))
    root = cmath.sqrt(tau / N)
    rhs = [
        e(z / 2.0) * root * sum(zeta ** ((-j * k) % N) * th[j] for j in range(N)) for k in range(N)
    ]
    rhs2 = [e(Fraction(-k * (N - k), 2 * N)) * th[k] for k in range(N)]
    try:
        ratios = [x / y for x, y in zip(lhs, rhs)]
        ratios_shift = [x / y for x, y in zip(lhs2, rhs2)]
    except ZeroDivisionError:
        raise ValueError(
            f"the degree-{N} theta values underflow to zero at Im tau = {tau.imag:.3g}"
            "; lower --tau-im"
        ) from None
    dev = proj_residual(lhs, rhs)
    dev2 = proj_residual(lhs2, rhs2)
    return TransformReport(
        N=N,
        z=z,
        ratios=tuple(ratios),
        ratios_shift=tuple(ratios_shift),
        max_dev=dev,
        max_dev_shift=dev2,
    )
