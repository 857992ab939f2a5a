"""Numerical theta evaluation and exact theta-null q-expansions.

The basic object is theta with characteristic (p, q):

    theta_(p,q)(z, tau) = sum_n e((1/2)(n+p)^2 tau + (n+p)(z+q)),

with e(x) = exp(2 pi i x), and the degree-N family

    theta_k(z, tau) = theta_(1/2 - k/N, N/2)(N z, N tau),

indexed by k mod N (integers or half-integers).  Numeric sums are
truncated point by point, where a Gaussian tail bound puts the rest
below the tolerance and below rounding of the peak term; the exact
q-expansions of the null values theta_k(0, tau) are produced as
Puiseux series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from random import Random

import numpy as np

from .series import PuiseuxSeries

TWO_PI_I = 2j * math.pi
TWO_PI = TWO_PI_I.imag

MAX_RADIUS = 4096
BLOCK = 512  # points summed together by one pass of _theta_sum


def e(x) -> complex:
    """The character e(x) = exp(2 pi i x)."""
    return cmath.exp(TWO_PI_I * x)


def window_radii(b: np.ndarray, y: float, tol: float) -> np.ndarray:
    """Summation radius around the peak for each point with Im z = b.

    The summand at m = n + p has magnitude
    amp * exp(-pi y (m + b/y)^2) with amp = exp(pi b^2 / y) and
    y = Im tau, so the terms further than R from the peak add up to at
    most the geometric majorant

        2 amp exp(-pi y R^2) / (1 - exp(-2 pi y R)).

    Each radius is the smallest integer R >= 1 at which this is below
    min(tol, 2^-60 amp): the tail left out is below tol and below double
    rounding of the peak term (the pointwise truncation of Deconinck et
    al., Computing Riemann theta functions, Math. Comp. 73, 2004).  The
    radii are found for the whole array at once, stepping up from a
    Gaussian lower bound.  Returned as floats with the shape of b.
    """
    shape = np.shape(b)
    b = np.asarray(b, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        log_amp = math.pi * b * b / y
        amp = np.exp(log_amp)
        if not np.isfinite(amp).all():
            bad = b[np.argmin(np.isfinite(amp))]
            raise ValueError(
                f"theta terms overflow double precision at Im z = {bad:.3g}, Im tau = {y:.3g}"
                " (N z and N tau for the degree-N family); lower Im tau"
            )
        limit = np.minimum(tol, 2.0**-60 * amp)
        # the majorant exceeds 2 amp exp(-pi y R^2), so no radius below
        # sqrt(log(2 amp / limit) / (pi y)) proves the bound; the margin
        # keeps rounding from starting a point past its radius
        log_ratio = np.maximum(log_amp - math.log(tol), 60 * math.log(2))
        start = np.sqrt((log_ratio + math.log(2)) / (math.pi * y)) - 1e-9
        radius = np.maximum(1.0, np.ceil(start))
        todo = np.arange(b.size)
        while todo.size:
            r = radius[todo]
            if r.max() > MAX_RADIUS:
                raise ValueError("tail bound unreachable at this (tol, Im tau, Im z)")
            decay = np.exp(-math.pi * y * r * r)
            denom = 1.0 - np.exp(-2.0 * math.pi * y * r)
            todo = todo[~(2.0 * amp[todo] * decay / denom < limit[todo])]
            radius[todo] += 1
    return radius.reshape(shape)


def _theta_sum(p, q: float, z, tau: complex, tol: float) -> np.ndarray:
    """Direct sum for theta_(p,q)(z, tau) with a proven < tol tail.

    p and z broadcast against each other; q and tau are shared.  Each
    point sums its own window [floor(peak - p - R), ceil(peak - p + R)]
    centred on its peak m = -Im z / Im tau, with R from window_radii.
    Points are summed BLOCK at a time: a block's terms form one
    (window offset x point) table, built with one exp and with every
    term formed by the same floating-point operations as the scalar
    expression exp(2 pi i ((1/2) m^2 tau + m (z + q))).  Terms past a
    point's own window are set to zero, and the rows are added in
    increasing n, so each value is the one a scalar loop over n would
    give, bit for bit.  (A reduction over the offset axis would not be:
    numpy sums a contiguous axis pairwise.)

    Error model: tol bounds only the tail left out of the window.
    Rounding in the sum adds about 1e-16 * exp(pi Im(z)^2 / Im tau), the
    size of the peak term, so at large |Im z| the absolute error can
    exceed tol.
    """
    y = tau.imag
    if y <= 0:
        raise ValueError("Im tau must be positive")
    p = np.asarray(p, dtype=float)
    z = np.asarray(z, dtype=complex)
    # radii depend on Im z alone, so find them before z is broadcast against p
    radius = window_radii(z.imag, y, tol)
    p, z, radius = np.broadcast_arrays(p, z, radius)
    shape = p.shape
    p, z, radius = p.ravel(), z.ravel(), radius.ravel()
    b = z.imag
    peak = -b / y
    lo = np.floor(peak - p - radius)
    hi = np.ceil(peak - p + radius)
    w_re = z.real + q
    out = np.zeros(p.size, dtype=complex)
    with np.errstate(over="raise", invalid="raise"):  # as cmath.exp raises, never inf
        for s in range(0, p.size, BLOCK):
            blk = slice(s, s + BLOCK)
            lob, hib, acc = lo[blk], hi[blk], out[blk]
            n = lob + np.arange(int(np.max(hib - lob)) + 1, dtype=float)[:, None]
            m = n + p[blk]
            half_m2 = 0.5 * m * m
            # TWO_PI_I * (half_m2 * tau + m * (z + q)) in reals: numpy's complex
            # product may fuse multiply-adds, which would move the last bit
            terms = np.empty(m.shape, dtype=complex)
            terms.real = (half_m2 * tau.imag + m * b[blk]) * -TWO_PI
            terms.imag = (half_m2 * tau.real + m * w_re[blk]) * TWO_PI
            np.exp(terms, out=terms)
            np.copyto(terms, 0, where=n > hib)
            for row in terms:
                acc += row
    return out.reshape(shape)


@dataclass(frozen=True)
class Characteristic:
    """The (p, q) pair of a theta characteristic."""

    p: Fraction
    q: Fraction

    def __init__(self, p, q):
        object.__setattr__(self, "p", Fraction(p))
        object.__setattr__(self, "q", Fraction(q))


@dataclass(frozen=True)
class ThetaContext:
    """Evaluation context: level N, modulus tau, target absolute error.

    The derived n_radius is the kernel's summation radius at Im z = 0
    for the inner sum at N*tau (the tau actually used by the degree-N
    family); points with larger |Im z| get wider windows (window_radii).
    """

    N: int
    tau: complex
    tol: float = 1e-10
    n_radius: int = field(init=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.tau.imag <= 0:
            raise ValueError("Im tau must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        try:
            radius = window_radii(0.0, self.N * self.tau.imag, self.tol)
        except ValueError:
            raise ValueError("tolerance unreachable at this Im tau; raise tol or Im tau") from None
        object.__setattr__(self, "n_radius", int(radius))

    def with_tau(self, tau: complex) -> "ThetaContext":
        return ThetaContext(self.N, tau, self.tol)


def _as_points(z, scale: int = 1) -> np.ndarray:
    """scale * z as a complex array; exact (Fraction) scalars are scaled exactly."""
    if np.ndim(z) == 0:
        return np.asarray(complex(scale * z))
    return scale * np.asarray(z, dtype=complex)


def _as_output(vals: np.ndarray):
    """A Python complex for a scalar evaluation, else the array."""
    return complex(vals) if vals.ndim == 0 else vals


def theta_pq_eval(ch: Characteristic, z, ctx: ThetaContext):
    """theta with characteristic (p, q) at (z, ctx.tau).

    The tail left out is below ctx.tol; rounding adds about
    1e-16 * exp(pi Im(z)^2 / Im tau), the size of the peak term (see
    _theta_sum).  z may be an array; a scalar z gives a Python complex."""
    return _as_output(_theta_sum(float(ch.p), float(ch.q), _as_points(z), ctx.tau, ctx.tol))


def theta_N_eval(k, z, ctx: ThetaContext):
    """theta_k of the degree-N family at (z, ctx.tau); k may be half-integral.

    k and z broadcast against each other (arrays of indices and of
    points); scalar k and z give a Python complex.  The tail left out is
    below ctx.tol; rounding adds about 1e-16 * exp(pi N Im(z)^2 / Im tau),
    the size of the peak term of the sum at (N z, N tau)."""
    N = ctx.N
    p = 0.5 - np.asarray(k, dtype=float) / N
    return _as_output(_theta_sum(p, N / 2.0, _as_points(z, N), N * ctx.tau, ctx.tol))


def theta_half_eval(N: int, k, ctx: ThetaContext):
    """Half-period value s_k = theta_k(1/(2N), tau); N must be even; k may be an array."""
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
    """Jacobi's basic theta functions, indices 0..3; z may be an array.

    Same error model as theta_pq_eval: tail below ctx.tol, plus rounding
    of about 1e-16 * exp(pi Im(z)^2 / Im tau)."""
    if not 0 <= i <= 3:
        raise ValueError("Jacobi theta index must be 0..3")
    p, q = _JACOBI_CHARS[i]
    return _as_output(_theta_sum(float(p), float(q), _as_points(z), ctx.tau, ctx.tol))


def theta_null_series(N: int, k: int, order: int) -> PuiseuxSeries:
    """Exact q-expansion of the theta-null value a_k = theta_k(0, tau).

    Ramification 8N; exponent numerators are (2Nn + N - 2k)^2.  For even
    N the coefficients are the integers (-1)^(N/2 - k); for odd N the
    global scalar i^N is dropped so that coefficients stay rational, and
    the term signs are (-1)^(n+k).  The series is known modulo q^order.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    ram = 8 * N
    trunc = ram * order
    terms: dict[int, Fraction] = {}
    bound = (isqrt(trunc) + abs(N - 2 * k)) // (2 * N) + 2
    for n in range(-bound, bound + 1):
        num = (2 * N * n + N - 2 * k) ** 2
        if num >= trunc:
            continue
        if N % 2 == 0:
            c = Fraction(-1 if (N // 2 - k) % 2 else 1)
        else:
            c = Fraction(-1 if (n + k) % 2 else 1)
        terms[num] = terms.get(num, Fraction(0)) + c
    return PuiseuxSeries(ram, terms, trunc)


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


SAMPLE_BLOCK = 64  # sample points whose theta values a numeric check holds at once


def sample_points(rng: Random, tau: complex, count: int) -> np.ndarray:
    """The next `count` points z = u + v tau with u, v uniform on [0.05, 0.95].

    Two draws per point, u first, in the order a scalar loop makes them."""
    return np.array(
        [0.05 + 0.9 * rng.random() + (0.05 + 0.9 * rng.random()) * tau for _ in range(count)],
        dtype=complex,
    )


def sample_blocks(tau: complex, samples: int, seed: int):
    """The seeded sample points of a numeric check, SAMPLE_BLOCK at a time."""
    rng = Random(seed)
    for start in range(0, samples, SAMPLE_BLOCK):
        yield sample_points(rng, tau, min(SAMPLE_BLOCK, samples - start))


@dataclass(frozen=True)
class TransformReport:
    """k-independence test of the two modular coordinate changes."""

    N: int
    z: complex
    ratios: tuple          # r_k from tau -> -1/tau
    ratios_shift: tuple    # r'_k from tau -> tau + 1
    max_dev: float
    max_dev_shift: float
    passed: bool


def transform_check(z: complex, ctx: ThetaContext, rtol: float = 1e-8) -> TransformReport:
    """Check that the tau -> -1/tau and tau -> tau+1 ratios are k-free.

    r_k  = theta_k(z/tau, -1/tau) / [e(z/2) sqrt(tau/N) sum_j zeta^(-jk) theta_j(z, tau)]
    r'_k = theta_k(z, tau+1) / [e(-k(N-k)/(2N)) theta_k(z, tau)]

    The two proportionality constants are only determined up to a
    k-independent factor, so the report tests constancy in k, not a
    specific value; sqrt is the principal branch.
    """
    N = ctx.N
    tau = ctx.tau
    ctx_inv = ctx.with_tau(-1.0 / tau)
    ctx_shift = ctx.with_tau(tau + 1.0)
    ks = np.arange(N)
    th = theta_N_eval(ks, z, ctx).tolist()
    lhs = theta_N_eval(ks, z / tau, ctx_inv).tolist()
    lhs2 = theta_N_eval(ks, z, ctx_shift).tolist()
    zeta = e(Fraction(1, N))
    root = cmath.sqrt(tau / N)
    ratios = []
    ratios_shift = []
    for k in range(N):
        rhs = e(z / 2.0) * root * sum(zeta ** ((-j * k) % N) * th[j] for j in range(N))
        ratios.append(lhs[k] / rhs)
        rhs2 = e(Fraction(-k * (N - k), 2 * N)) * th[k]
        ratios_shift.append(lhs2[k] / rhs2)
    dev = max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])
    dev2 = max(abs(r - ratios_shift[0]) for r in ratios_shift) / abs(ratios_shift[0])
    return TransformReport(
        N=N,
        z=z,
        ratios=tuple(ratios),
        ratios_shift=tuple(ratios_shift),
        max_dev=dev,
        max_dev_shift=dev2,
        passed=dev < rtol and dev2 < rtol,
    )
