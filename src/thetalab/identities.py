"""Named q-series identities and models for levels 4, 5, 6, 7, 8.

Every check here is either an exact statement about truncated Puiseux
series (status "pass" means the difference vanishes identically to the
carried truncation, with the reached depth recorded) or a numeric
statement with an explicit tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random

import numpy as np

from .cyclotomic import zeta
from .series import PuiseuxSeries, eta_series
from .theta import (
    SAMPLE_BLOCK,
    ThetaContext,
    sample_blocks,
    sample_points,
    theta_N_eval,
    theta_null_series,
)

MIN_DEPTH = 10  # a series identity must be verified at least this deep in q


@dataclass(frozen=True)
class IdentityRecord:
    """One verification row: what was checked, how, and the outcome."""

    name: str
    level: int
    kind: str  # series-vanishing | series-equality | numeric-vanishing | count
    status: str  # pass | fail
    order: int | None = None
    tolerance: float | None = None
    residual: float | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "level": self.level,
            "kind": self.kind,
            "status": self.status,
            "order": self.order,
            "tolerance": self.tolerance,
            "residual": self.residual,
            "detail": self.detail,
        }


def _series_record(
    name: str, level: int, diff: PuiseuxSeries, order: int, kind: str = "series-vanishing"
) -> IdentityRecord:
    depth = diff.known_order()
    if diff.is_zero() and depth >= MIN_DEPTH:
        return IdentityRecord(
            name=name, level=level, kind=kind, status="pass", order=order,
            detail=f"zero through q^({depth})",
        )
    if diff.is_zero():
        return IdentityRecord(
            name=name, level=level, kind=kind, status="fail", order=order,
            detail=f"vanishes but only known through q^({depth}); raise the order",
        )
    e, c = diff.items()[0]
    return IdentityRecord(
        name=name, level=level, kind=kind, status="fail", order=order,
        detail=f"first nonzero coefficient {c} at q^({e})",
    )


def _leading_record(
    name: str, level: int, series: PuiseuxSeries, expect, order: int
) -> IdentityRecord:
    """Digit-for-digit comparison of the leading displayed terms.

    `expect` is a list of (exponent, coefficient) pairs; every stored
    term of the series up to the last listed exponent must match the
    list exactly (including absent terms in gaps)."""
    last = Fraction(expect[-1][0])
    if series.known_order() <= last:
        return IdentityRecord(
            name=name, level=level, kind="series-equality", status="fail", order=order,
            detail="series not known deep enough for the displayed terms",
        )
    got = [(e, c) for e, c in series.items() if e <= last]
    want = [(Fraction(e), Fraction(c)) for e, c in expect]
    if got == want:
        return IdentityRecord(
            name=name, level=level, kind="series-equality", status="pass", order=order,
            detail=f"{len(expect)} leading terms match",
        )
    for (ge, gc), (we, wc) in zip(got, want):
        if (ge, gc) != (we, wc):
            return IdentityRecord(
                name=name, level=level, kind="series-equality", status="fail", order=order,
                detail=f"expected {wc} q^({we}), found {gc} q^({ge})",
            )
    return IdentityRecord(
        name=name, level=level, kind="series-equality", status="fail", order=order,
        detail=f"term count mismatch: {len(got)} stored vs {len(want)} displayed",
    )


# ---------------------------------------------------------------------------
# named series


@lru_cache(maxsize=None)
def nulls(N: int, order: int) -> tuple:
    return tuple(theta_null_series(N, k, order) for k in range(N))


@lru_cache(maxsize=None)
def eta_scaled(m: int, order: int) -> PuiseuxSeries:
    """eta(m * tau) as a series in q, known modulo q^(m*order)."""
    return eta_series(order).rescale(m, 1)


def lam_series(order: int) -> PuiseuxSeries:
    """Level-4 Hauptmodul lambda = a_0 a_2 / a_1^2."""
    a = nulls(4, order)
    return a[0] * a[2] / (a[1] * a[1])


@lru_cache(maxsize=None)
def x6_series(order: int) -> PuiseuxSeries:
    """Level-6 coordinate X = 2 a_1 a_2 / (a_0 a_3)."""
    a = nulls(6, order)
    return 2 * a[1] * a[2] / (a[0] * a[3])


@lru_cache(maxsize=None)
def y6_series(order: int) -> PuiseuxSeries:
    """Level-6 coordinate Y = (a_0^2 a_1^2 - a_2^2 a_3^2)/(a_0^2 a_2^2 - a_1^2 a_3^2)."""
    a0s, a1s, a2s, a3s = (c ** 2 for c in nulls(6, order)[:4])
    return (a0s * a1s - a2s * a3s) / (a0s * a2s - a1s * a3s)


@lru_cache(maxsize=None)
def mu6_series(order: int) -> PuiseuxSeries:
    """Three times the Hesse parameter: 3 mu = (Y^2 - 3)/X."""
    x = x6_series(order)
    y = y6_series(order)
    return (y * y - 3) / x


def b1_series(order: int) -> PuiseuxSeries:
    """Level-8 fixed-field generator b_1 = a_1 a_3 / a_2^2."""
    a = nulls(8, order)
    return a[1] * a[3] / (a[2] * a[2])


def b4_series(order: int) -> PuiseuxSeries:
    """Level-8 fixed-field generator b_4 = a_1 a_3 (a_0 - a_4) / (a_2 (a_1^2 - a_3^2))."""
    a = nulls(8, order)
    return a[1] * a[3] * (a[0] - a[4]) / (a[2] * (a[1] ** 2 - a[3] ** 2))


def phi5_series(order: int) -> PuiseuxSeries:
    """Level-5 modulus phi = -a_1/a_2 (normalized odd-N nulls)."""
    a = nulls(5, order)
    return -a[1] / a[2]


# ---------------------------------------------------------------------------
# theta-null curve models


# The quartic theta-null models, keyed by level: each entry names the
# relations among the nulls a = (a_0, ..., a_(N-1)) that vanish identically.
NULL_CURVE_RELATIONS = {
    4: lambda a: {"level4.null-curve": a[0] * a[2] * (a[0] ** 2 + a[2] ** 2) - 2 * a[1] ** 4},
    6: lambda a: {
        "level6.null-curve.1": a[1] ** 4 + a[2] ** 4 - a[0] ** 3 * a[2] - a[1] * a[3] ** 3,
        "level6.null-curve.2":
            a[0] * a[3] * (a[0] * a[1] + a[2] * a[3]) - 2 * a[1] ** 2 * a[2] ** 2,
    },
    7: lambda a: {"klein.quartic": a[1] ** 3 * a[2] - a[2] ** 3 * a[3] - a[1] * a[3] ** 3},
    8: lambda a: {
        f"level8.null-curve.{i}": rel for i, rel in enumerate((
            a[0] * a[4] * (a[0] ** 2 + a[4] ** 2) - 2 * a[2] ** 4,
            a[0] * a[4] * (a[1] ** 2 + a[3] ** 2) - 2 * a[1] * a[3] * a[2] ** 2,
            a[0] * a[2] * a[4] * (a[0] + a[4]) - 2 * a[1] ** 2 * a[3] ** 2,
            a[2] ** 3 * (a[0] + a[4]) - a[1] * a[3] * (a[1] ** 2 + a[3] ** 2),
            a[1] * a[3] * (a[0] ** 2 + a[4] ** 2) - a[2] ** 2 * (a[1] ** 2 + a[3] ** 2),
            a[2] * (a[0] ** 3 + a[4] ** 3) - (a[1] ** 4 + a[3] ** 4),
        ), 1)
    },
}


def theta_null_curve_check(N: int, order: int) -> list[IdentityRecord]:
    """The polynomial models cut out by the theta nulls at each level."""
    if N not in NULL_CURVE_RELATIONS:
        raise ValueError(f"supported levels are {', '.join(map(str, NULL_CURVE_RELATIONS))}")
    if order < 8 * N:
        raise ValueError("order must be at least 8N for a meaningful check")
    relations = NULL_CURVE_RELATIONS[N](nulls(N, order))
    return [_series_record(name, N, rel, order) for name, rel in relations.items()]


# ---------------------------------------------------------------------------
# eta quotients and displayed expansions


def _lambda_records(order: int) -> list[IdentityRecord]:
    e1, e2, e4 = (eta_scaled(m, order) for m in (1, 2, 4))
    lam = lam_series(order)
    lam_eta = 2 * (e1 * e4 ** 2 / e2 ** 3) ** 2
    return [
        _series_record("lambda.eta", 4, lam - lam_eta, order, "series-equality"),
        _leading_record(
            "lambda.leading", 4, lam,
            [(Fraction(1, 4), 2), (Fraction(5, 4), -4), (Fraction(9, 4), 10),
             (Fraction(13, 4), -20), (Fraction(17, 4), 36)],
            order,
        ),
    ]


def _xy_records(order: int) -> list[IdentityRecord]:
    e1, e2, e3, e6 = (eta_scaled(m, order) for m in (1, 2, 3, 6))
    out = []
    x = x6_series(order)
    x_eta = e2 * e3 ** 3 / (e1 * e6 ** 3)
    out.append(_series_record("X.eta", 6, x - x_eta, order, "series-equality"))
    out.append(
        _leading_record(
            "X.leading", 6, x,
            [(Fraction(-1, 3), 1), (Fraction(2, 3), 1), (Fraction(5, 3), 1),
             (Fraction(8, 3), -1), (Fraction(11, 3), -1), (Fraction(17, 3), 1),
             (Fraction(20, 3), 2)],
            order,
        )
    )

    y = y6_series(order)
    y_eta = e2 ** 4 * e3 ** 2 / (e1 ** 2 * e6 ** 4)
    out.append(_series_record("Y.eta", 6, y - y_eta, order, "series-equality"))
    a6 = nulls(6, order)
    y_ratio = (a6[0].rescale(1, 3) * a6[3].rescale(1, 3)) / (a6[0] * a6[3])
    out.append(_series_record("Y.null-rescale", 6, y - y_ratio, order, "series-equality"))
    out.append(
        _leading_record(
            "Y.leading", 6, y,
            [(Fraction(-1, 2), 1), (Fraction(1, 2), 2), (Fraction(3, 2), 1),
             (Fraction(7, 2), -2), (Fraction(9, 2), -2), (Fraction(11, 2), 2),
             (Fraction(13, 2), 4)],
            order,
        )
    )
    return out


def _b_records(order: int) -> list[IdentityRecord]:
    e1, e2, e4, e8 = (eta_scaled(m, order) for m in (1, 2, 4, 8))
    out = []
    b1 = b1_series(order)
    b1_eta = e2 ** 4 * e8 ** 2 / (e1 * e4 ** 5)
    out.append(_series_record("b1.eta", 8, b1 - b1_eta, order, "series-equality"))
    a8 = nulls(8, order)
    b1_ratio = (a8[2].rescale(1, 2) * a8[2].rescale(2, 1)) / (a8[2] * a8[2])
    out.append(_series_record("b1.null-rescale", 8, b1 - b1_ratio, order, "series-equality"))
    out.append(
        _leading_record(
            "b1.leading", 8, b1,
            [(Fraction(1, 8), 1), (Fraction(9, 8), 1), (Fraction(17, 8), -2),
             (Fraction(25, 8), -1), (Fraction(33, 8), 4), (Fraction(41, 8), 2),
             (Fraction(49, 8), -7)],
            order,
        )
    )

    b4 = b4_series(order)
    b4_ratio = a8[2].rescale(2, 1) / a8[2]
    out.append(_series_record("b4.null-rescale", 8, b4 - b4_ratio, order, "series-equality"))
    b4_eta = e2 * e8 ** 2 / e4 ** 3
    plus = (b4 - b4_eta).is_zero()
    minus = (b4 + b4_eta).is_zero()
    sign = "+1" if plus else ("-1" if minus else "none")
    out.append(
        IdentityRecord(
            name="b4.eta-sign", level=8, kind="series-equality",
            status="pass" if plus or minus else "fail", order=order,
            detail=f"b4 = ({sign}) * eta(2t)eta(8t)^2/eta(4t)^3, resolved exactly",
        )
    )
    out.append(
        _leading_record(
            "b4.leading", 8, b4,
            [(Fraction(1, 4), 1), (Fraction(9, 4), -1), (Fraction(17, 4), 2),
             (Fraction(25, 4), -3), (Fraction(33, 4), 4), (Fraction(41, 4), -6),
             (Fraction(49, 4), 9)],
            order,
        )
    )
    return out


def _phi_records(order: int) -> list[IdentityRecord]:
    return [
        _leading_record(
            "phi.leading", 5, phi5_series(order),
            [(Fraction(1, 5), 1), (Fraction(6, 5), -1), (Fraction(11, 5), 1),
             (Fraction(21, 5), -1), (Fraction(26, 5), 1), (Fraction(31, 5), -1)],
            order,
        )
    ]


# the displayed leading terms of 3 mu, read by mu.leading and level6.hesse
_MU_LEADING = (
    (Fraction(-2, 3), 1), (Fraction(4, 3), 5), (Fraction(10, 3), -7), (Fraction(16, 3), 3),
    (Fraction(22, 3), 15), (Fraction(28, 3), -32), (Fraction(34, 3), 9),
)


def _mu_records(order: int) -> list[IdentityRecord]:
    x = x6_series(order)
    mu = mu6_series(order)
    mu_alt = x * x - 2 / x
    return [
        _series_record("mu.two-expressions", 6, mu - mu_alt, order, "series-equality"),
        _leading_record("mu.leading", 6, mu, _MU_LEADING, order),
    ]


# (level, builder) in report order; level 6 has two groups
_ETA_QUOTIENT_GROUPS = (
    (4, _lambda_records),
    (6, _xy_records),
    (8, _b_records),
    (5, _phi_records),
    (6, _mu_records),
)


def eta_quotient_check(order: int = 80, level: int | None = None) -> list[IdentityRecord]:
    """Closed eta-product forms and displayed expansions of the named
    modular functions; the sign of the level-8 b_4 eta quotient is
    resolved by the exact series themselves, never assumed.

    With ``level`` given, only that level's records are built, together
    with the eta factors and named series they read; they equal the
    records of that level in the full list, in the same order; a level
    without records gives an empty list.  ``None`` builds all 16 records."""
    if order < 20:
        raise ValueError("order too small to reach the displayed terms")
    out = []
    for lvl, build in _ETA_QUOTIENT_GROUPS:
        if level is None or lvl == level:
            out += build(order)
    return out


# ---------------------------------------------------------------------------
# quotient models of the modular curves


def _x6_model(order: int) -> list[IdentityRecord]:
    """X(6): Y^2 = X^3 + 1 and the fixed-field generators b_1, b_2, b_3."""
    out = []
    # A value is shared only between identical expressions: reshaping a
    # product can change the depth it is known to (y has negative
    # valuation), so y ** 4 is never (y * y) * (y * y).
    x = x6_series(order)
    y = y6_series(order)
    xx = x * x
    yy = y * y
    out.append(
        _series_record("level6.weierstrass-model", 6, yy - x ** 3 - 1, order)
    )
    a = nulls(6, order)
    a0inv = a[0].inverse()
    alpha = [a[k] * a0inv for k in range(6)]
    a3inv = alpha[3].inverse()
    b1 = alpha[1] * alpha[3] + alpha[2] * a3inv * a3inv
    b2 = alpha[2] + alpha[1] * a3inv
    b3 = alpha[3] ** 2 + a3inv ** 2
    out.append(
        _series_record("level6.b1-from-XY", 6, 4 * y * b1 - xx * (yy - 3), order)
    )
    out.append(_series_record("level6.b2-from-XY", 6, 2 * b2 - xx, order))
    # the closed form of b3 is resolved exactly between the two
    # single-typo candidates: 4Y b3 = Y^4 - 6*{X^2 or Y^2} - 3
    yb3 = 4 * y * b3
    y4 = y ** 4
    cand_x = (yb3 - (y4 - 6 * x * x - 3)).is_zero()
    cand_y = (yb3 - (y4 - 6 * y * y - 3)).is_zero()
    which = "Y^2" if cand_y else ("X^2" if cand_x else "none")
    out.append(
        IdentityRecord(
            name="level6.b3-from-XY", level=6, kind="series-equality",
            status="pass" if cand_x != cand_y else "fail", order=order,
            detail=f"4Y b3 = Y^4 - 6*{which} - 3, resolved exactly",
        )
    )
    b1b1 = b1 * b1
    b2b2 = b2 * b2
    num = b2 * (2 * b1 - b2 * b3)
    den = b1b1 - b2b2
    s = b1b1 + b2b2 - b1 * b2 * b3
    t = b3 * b3 - 4
    out.append(
        _series_record(
            "level6.bsystem.1", 6, b3 * s * s + num * den * t - b1 * t * t, order,
        )
    )
    out.append(
        _series_record("level6.bsystem.2", 6, b2 * t * t - 2 * s * s, order)
    )
    out.append(
        _series_record("level6.X-from-b", 6, x * t + 2 * s, order)
    )
    # sign of the Y expression resolved exactly
    yden = y * den
    plus = (yden - num).is_zero()
    minus = (yden + num).is_zero()
    sign = "+1" if plus else ("-1" if minus else "none")
    out.append(
        IdentityRecord(
            name="level6.Y-from-b", level=6, kind="series-equality",
            status="pass" if plus != minus else "fail", order=order,
            detail=f"Y = ({sign}) * b2(2b1 - b2 b3)/(b1^2 - b2^2), resolved exactly",
        )
    )
    return out


def _x8_model(order: int) -> list[IdentityRecord]:
    """X(8): b_1^4 = 4 b_4^6 + b_4^2 and its two-to-one map to level 4."""
    a = nulls(8, order)
    a2inv = a[2].inverse()
    alpha = [a[k] * a2inv for k in range(8)]
    b0 = alpha[0] + alpha[4]
    b1 = alpha[1] * alpha[3]
    ratio = alpha[1] / alpha[3]
    b3 = ratio + ratio.inverse()
    b4 = b1 * (alpha[0] - alpha[4]) / ((alpha[1] + alpha[3]) * (alpha[1] - alpha[3]))
    # b0 in terms of b1 and b3: the exponent of b1 is resolved exactly
    # (the defining system forces b0 = b1^2 b3 via
    #  alpha_0 + alpha_4 = alpha_1 alpha_3 (alpha_1^2 + alpha_3^2))
    lin = (b0 - b1 * b3).is_zero()
    quad = (b0 - b1 * b1 * b3).is_zero()
    form = "b1^2*b3" if quad else ("b1*b3" if lin else "none")
    b1_4 = b1 ** 4
    a2s = 2 * b4 * b4
    return [
        IdentityRecord(
            name="level8.b0-from-b1-b3", level=8, kind="series-equality",
            status="pass" if lin != quad else "fail", order=order,
            detail=f"b0 = {form}, resolved exactly",
        ),
        _series_record("level8.b3-eq-inv-b4sq", 8, b3 * b4 * b4 - 1, order),
        _series_record("level8.x8-model", 8, b1_4 - 4 * b4 ** 6 - b4 * b4, order),
        _series_record("level8.two-to-one", 8, a2s * (1 + a2s * a2s) - 2 * b1_4, order),
    ]


# the quotient models, keyed by level
QUOTIENT_MODELS = {6: _x6_model, 8: _x8_model}


def quotient_model_check(N: int, order: int = 80) -> list[IdentityRecord]:
    """Models of X(6) and X(8) through the fixed-field generators."""
    if N not in QUOTIENT_MODELS:
        raise ValueError(f"quotient models are available for N in {sorted(QUOTIENT_MODELS)}")
    return QUOTIENT_MODELS[N](order)


# The level of the Hesse cubic, and the levels with a series identity,
# at which the identities suite runs.
HESSE_LEVEL = 6
SERIES_LEVELS = frozenset(
    [*NULL_CURVE_RELATIONS, *(lvl for lvl, _ in _ETA_QUOTIENT_GROUPS), *QUOTIENT_MODELS,
     HESSE_LEVEL]
)


# ---------------------------------------------------------------------------
# Hesse cubic, Weierstrass model, degenerate fibers


def hesse_check(
    order: int, ctx: ThetaContext | None = None, samples: int = 20, seed: int = 0,
    rtol: float = 1e-7,
) -> IdentityRecord:
    """The even-index degree-6 coordinates satisfy a Hesse cubic.

    Series part: the displayed 3mu expansion; numeric part: the cubic
    X_0^3 + X_2^3 + X_4^3 = 3mu X_0 X_2 X_4 at sampled curve points."""
    if ctx is None:
        ctx = ThetaContext(HESSE_LEVEL, 1j, 1e-10)
    lead = _leading_record("level6.hesse-mu", 6, mu6_series(order), _MU_LEADING, order)
    ks = np.arange(6)
    a = theta_N_eval(ks, 0.0, ctx).tolist()
    xm = 2 * a[1] * a[2] / (a[0] * a[3])
    ym = (a[0] ** 2 * a[1] ** 2 - a[2] ** 2 * a[3] ** 2) / (
        a[0] ** 2 * a[2] ** 2 - a[1] ** 2 * a[3] ** 2
    )
    mu3 = (ym * ym - 3) / xm
    worst = 0.0
    for z in sample_blocks(ctx.tau, samples, seed):
        for x in theta_N_eval(ks, z[:, None], ctx).tolist():
            scale = max(abs(c) for c in x) ** 3 * max(1.0, abs(mu3))
            resid = abs(x[0] ** 3 + x[2] ** 3 + x[4] ** 3 - mu3 * x[0] * x[2] * x[4]) / scale
            worst = max(worst, resid)
    ok = lead.passed and worst < rtol
    return IdentityRecord(
        name="level6.hesse", level=6, kind="numeric-vanishing",
        status="pass" if ok else "fail", order=order, tolerance=rtol, residual=worst,
        detail=f"cubic residual {worst:.3e} over {samples} samples; mu series: {lead.detail}",
    )


def weierstrass_check_level4(
    ctx: ThetaContext | None = None, samples: int = 25, seed: int = 0, rtol: float = 1e-7
) -> IdentityRecord:
    """Level-4 universal curve against its Weierstrass form.

    At sampled immersion points, push (X_0..X_3) through the rational
    coordinate change and test Y^2 = X (X - (a_0-a_2)^4)(X - (a_0+a_2)^4),
    alongside the defining quadric pair; samples too close to the
    coordinate-change base locus are redrawn.  The exact statement that
    the null point (a_0 : a_1 : a_2 : a_1) satisfies the quadric pair is
    checked as a series identity."""
    if ctx is None:
        ctx = ThetaContext(4, 1j, 1e-10)
    if ctx.N != 4:
        raise ValueError("level-4 check needs an N = 4 context")
    tau = ctx.tau
    ks = np.arange(4)
    a0, a1, a2, _ = theta_N_eval(ks, 0.0, ctx).tolist()
    rng = Random(seed)
    worst = 0.0
    drawn = 0
    accepted = 0
    while accepted < samples and drawn < 20 * samples:
        # a block never outruns the draw budget or the samples still wanted,
        # so the accepted samples are the ones a one-at-a-time loop accepts
        count = min(SAMPLE_BLOCK, samples - accepted, 20 * samples - drawn)
        drawn += count
        zs = sample_points(rng, tau, count)[:, None]
        for x0, x1, x2, x3 in theta_N_eval(ks, zs, ctx).tolist():
            scale = max(abs(c) for c in (x0, x1, x2, x3)) ** 2
            den1 = a1 ** 2 * x0 * x2 - a0 * a2 * x1 * x3
            den2 = (x1 - x3) * (x0 - x2)
            if abs(den1) < 1e-6 * scale or abs(den2) < 1e-6 * scale:
                continue
            accepted += 1
            q1 = abs(a0 * a2 * (x0 ** 2 + x2 ** 2) - 2 * a1 ** 2 * x1 * x3) / scale
            q2 = abs(2 * a1 ** 2 * x0 * x2 - a0 * a2 * (x1 ** 2 + x3 ** 2)) / scale
            xx = (a0 ** 2 - a2 ** 2) ** 2 * (a1 ** 2 * x0 * x2 + a0 * a2 * x1 * x3) / den1
            yy = (
                4 * a1 ** 2 * (a0 ** 2 - a2 ** 2) ** 2
                * (x1 + x3) * (x0 + x2) * (a0 * a2 * x0 * x2 - a1 ** 2 * x1 * x3)
                / (den2 * den1)
            )
            wscale = max(abs(xx), abs(yy), abs(a0 - a2) ** 4, abs(a0 + a2) ** 4) ** 3
            resid = abs(
                yy ** 2 - xx * (xx - (a0 - a2) ** 4) * (xx - (a0 + a2) ** 4)
            ) / wscale
            worst = max(worst, resid, q1, q2)
    # the half-period point z = 1/8 lies on the quadric pair
    x0, x1, x2, x3 = theta_N_eval(ks, Fraction(1, 8), ctx).tolist()
    scale = max(abs(c) for c in (x0, x1, x2, x3)) ** 2
    worst = max(
        worst,
        abs(a0 * a2 * (x0 ** 2 + x2 ** 2) - 2 * a1 ** 2 * x1 * x3) / scale,
        abs(2 * a1 ** 2 * x0 * x2 - a0 * a2 * (x1 ** 2 + x3 ** 2)) / scale,
    )
    s = nulls(4, 40)
    exact_ok = (s[0] * s[2] * (s[0] ** 2 + s[2] ** 2) - 2 * s[1] ** 4).is_zero()
    ok = worst < rtol and accepted == samples and exact_ok
    return IdentityRecord(
        name="level4.weierstrass", level=4, kind="numeric-vanishing",
        status="pass" if ok else "fail", tolerance=rtol, residual=worst,
        detail=(
            f"max residual {worst:.3e} over {accepted} samples incl. z=1/8; "
            f"null point on quadric pair exactly: {exact_ok}"
        ),
    )


def degenerate_fibers_level4() -> IdentityRecord:
    """The twelve boundary points with square Neron polygons, exactly.

    Over Q(zeta_8): each point satisfies the null-curve quartic and the
    Weierstrass cubic acquires a repeated root (discriminant zero).  The
    family written with unit third coordinate only lies on the curve for
    even powers of zeta_8; the correct closed family alternates the sign
    of the third coordinate, and that is what is checked here.  The
    control point (2 : 1 : 1) violates the quartic."""
    z8 = zeta(8)
    one = zeta(8, 0)
    zero = one * 0
    pts = [
        (zero, zero, one),
        (one, zero, zero),
        (z8 ** 2, zero, one),
        (-(z8 ** 2), zero, one),
    ]
    for k in range(8):
        pts.append((one, z8 ** k, -one if k % 2 else one))
    all_ok = True
    details = []
    for a0, a1, a2 in pts:
        on_curve = (a0 * a2 * (a0 ** 2 + a2 ** 2) - 2 * a1 ** 4).is_zero()
        r1 = (a0 - a2) ** 4
        r2 = (a0 + a2) ** 4
        disc = (r1 * r2) ** 2 * (r1 - r2) ** 2
        degenerate = disc.is_zero()
        if not (on_curve and degenerate):
            all_ok = False
            details.append(f"failure at ({a0}:{a1}:{a2})")
    control = (one * 2, one, one)
    c0, c1, c2 = control
    control_off = not (c0 * c2 * (c0 ** 2 + c2 ** 2) - 2 * c1 ** 4).is_zero()
    ok = all_ok and control_off and len(pts) == 12
    return IdentityRecord(
        name="level4.degenerate-fibers", level=4, kind="count",
        status="pass" if ok else "fail",
        detail=(
            "12 points on the curve with vanishing cubic discriminant "
            "(third coordinate alternates sign along the unit family); "
            f"control point (2:1:1) off curve: {control_off}. " + "; ".join(details)
        ),
    )


def has_null_invariance(N: int) -> bool:
    """Whether null_invariance_check applies: its statement is for even N."""
    return N % 2 == 0


def null_invariance_check(N: int, tau: complex = 1j, rtol: float = 1e-8) -> IdentityRecord:
    """Numeric invariance of the null vector under the two extra
    generators: tau -> tau + N twists by alternating signs, and
    tau -> tau/(N tau + 1) reverses the index order."""
    if not has_null_invariance(N):
        raise ValueError("the invariance statement is for even N")
    from .projective import proj_residual

    h = N // 2
    ctx = ThetaContext(N, tau, 1e-10)
    ks = np.arange(h + 1)
    base = theta_N_eval(ks, 0.0, ctx)
    shift = theta_N_eval(ks, 0.0, ctx.with_tau(tau + N))
    twist = np.array([(-1) ** k for k in range(h + 1)])
    r1 = proj_residual(twist * base, shift)
    tau2 = tau / (N * tau + 1)
    lower = theta_N_eval(ks, 0.0, ctx.with_tau(tau2))
    r2 = proj_residual(base[::-1], lower)
    worst = max(r1, r2)
    return IdentityRecord(
        name=f"level{N}.null-invariance", level=N, kind="numeric-vanishing",
        status="pass" if worst < rtol else "fail", tolerance=rtol, residual=worst,
        detail=f"sign-twist residual {r1:.3e}, reversal residual {r2:.3e}",
    )


def records_to_json(records: list[IdentityRecord]) -> str:
    return json.dumps(
        {"schema": 1, "records": [r.to_dict() for r in records]},
        sort_keys=True,
    )
