from fractions import Fraction
from random import Random

import numpy as np
import pytest

import thetalab.identities
from thetalab.identities import (
    b1_series,
    b4_series,
    degenerate_fibers_level4,
    eta_quotient_check,
    hesse_check,
    lam_series,
    mu6_series,
    null_invariance_check,
    phi5_series,
    quotient_model_check,
    theta_null_curve_check,
    weierstrass_check_level4,
    x6_series,
    y6_series,
)
from thetalab.projective import rho_theta_match, translation_check
from thetalab.quadrics import NullData, gen_even_basis, verify_on_curve
from thetalab.theta import ThetaContext, sample_points, theta_N_eval


def assert_all_pass(records):
    bad = [r for r in records if not r.passed]
    assert not bad, "\n".join(f"{r.name}: {r.detail}" for r in bad)


@pytest.mark.parametrize("order", (50, 100))
def test_null_curve_models_stable_under_doubling(order):
    for N in (4, 6, 7, 8):
        if order >= 8 * N:
            assert_all_pass(theta_null_curve_check(N, order))


def test_null_curve_rejects_bad_input():
    with pytest.raises(ValueError):
        theta_null_curve_check(5, 80)
    with pytest.raises(ValueError):
        theta_null_curve_check(8, 10)


@pytest.mark.parametrize("order", (50, 100))
def test_eta_quotients_stable_under_doubling(order):
    assert_all_pass(eta_quotient_check(order))


@pytest.mark.parametrize("order", (40, 120))
def test_eta_quotients_by_level_match_the_full_list(order):
    full = eta_quotient_check(order)
    assert len(full) == 16
    for level in (4, 5, 6, 7, 8):
        got = [r._asdict() for r in eta_quotient_check(order, level)]
        assert got == [r._asdict() for r in full if r.level == level]
    assert eta_quotient_check(order, 7) == []


@pytest.mark.parametrize("order", (50, 100))
def test_quotient_models_stable_under_doubling(order):
    assert_all_pass(quotient_model_check(6, order))
    assert_all_pass(quotient_model_check(8, order))


def test_leading_expansions_digit_for_digit():
    order = 60
    lam = lam_series(order)
    assert [(e, c) for e, c in lam.items()][:5] == [
        (Fraction(1, 4), 2), (Fraction(5, 4), -4), (Fraction(9, 4), 10),
        (Fraction(13, 4), -20), (Fraction(17, 4), 36),
    ]
    x = x6_series(order)
    assert x.items()[0] == (Fraction(-1, 3), 1)
    y = y6_series(order)
    assert y.items()[:3] == [
        (Fraction(-1, 2), 1), (Fraction(1, 2), 2), (Fraction(3, 2), 1),
    ]
    mu = mu6_series(order)
    assert mu.items()[:2] == [(Fraction(-2, 3), 1), (Fraction(4, 3), 5)]
    b1 = b1_series(order)
    assert b1.items()[0] == (Fraction(1, 8), 1)
    b4 = b4_series(order)
    assert b4.items()[:2] == [(Fraction(1, 4), 1), (Fraction(9, 4), -1)]
    phi = phi5_series(order)
    assert phi.items()[:4] == [
        (Fraction(1, 5), 1), (Fraction(6, 5), -1), (Fraction(11, 5), 1),
        (Fraction(21, 5), -1),
    ]


def test_b4_sign_resolution_recorded():
    recs = {r.name: r for r in eta_quotient_check(50)}
    r = recs["b4.eta-sign"]
    assert r.passed
    assert "(+1)" in r.detail


def test_b0_exponent_resolution_recorded():
    recs = {r.name: r for r in quotient_model_check(8, 70)}
    r = recs["level8.b0-from-b1-b3"]
    assert r.passed
    assert "b1^2*b3" in r.detail


def test_level6_resolution_details():
    recs = {r.name: r for r in quotient_model_check(6, 60)}
    assert "Y^2" in recs["level6.b3-from-XY"].detail
    assert "(-1)" in recs["level6.Y-from-b"].detail


def test_level6_b_records_restate_their_definitions():
    # level6.X-from-b and level6.Y-from-b cannot fail: with X, Y and
    # b_1, b_2, b_3 defined from a_0..a_3 as _x6_model defines them, both
    # residuals vanish as rational functions of free symbols, so the
    # records test the algebra of their definitions, not the theta nulls.
    # The b1- and b2-records do depend on the nulls.
    sympy = pytest.importorskip("sympy")
    a = sympy.symbols("a0:4")
    x, y = thetalab.identities._x6(a), thetalab.identities._y6(a)
    alpha = [c / a[0] for c in a]
    a3inv = 1 / alpha[3]
    b1 = alpha[1] * alpha[3] + alpha[2] * a3inv * a3inv
    b2 = alpha[2] + alpha[1] * a3inv
    b3 = alpha[3] ** 2 + a3inv ** 2
    num = b2 * (2 * b1 - b2 * b3)
    den = b1 * b1 - b2 * b2
    s = b1 * b1 + b2 * b2 - b1 * b2 * b3
    t = b3 * b3 - 4
    for always_zero in (x * t + 2 * s, y * den + num):
        assert sympy.cancel(always_zero) == 0
    for depends in (4 * y * b1 - x ** 2 * (y ** 2 - 3), 2 * b2 - x ** 2):
        assert sympy.cancel(depends) != 0


def test_hesse():
    for tau in (1j, 0.3 + 1.1j):
        rec = hesse_check(60, ThetaContext(6, tau, 1e-10), samples=10, seed=3)
        assert rec.passed, rec.detail
        assert rec.residual < 1e-7


def test_hesse_refuses_a_context_of_another_level():
    with pytest.raises(ValueError, match="N = 6 context"):
        hesse_check(80, ThetaContext(8, 1j, 1e-10), samples=5)


def on_curve_at_level_4(samples):
    ctx = ThetaContext(4, 1j, 1e-10)
    return verify_on_curve(gen_even_basis(NullData.numeric(ctx)).full, ctx, samples)


SAMPLED_CHECKS = {
    "on-curve": on_curve_at_level_4,
    "hesse": lambda n: hesse_check(60, ThetaContext(6, 1j, 1e-10), samples=n),
    "weierstrass": lambda n: weierstrass_check_level4(ThetaContext(4, 1j, 1e-10), samples=n),
    "rho-theta": lambda n: rho_theta_match(ThetaContext(4, 1j, 1e-10), "A", samples=n),
    "translation": lambda n: translation_check(ThetaContext(4, 1j, 1e-10), samples=n),
}


@pytest.mark.parametrize("check", SAMPLED_CHECKS.values(), ids=SAMPLED_CHECKS.keys())
def test_no_sampled_check_passes_over_zero_points(check):
    check(1)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            check(samples)


def test_weierstrass_level4():
    for tau in (1j, 0.3 + 1.1j):
        rec = weierstrass_check_level4(ThetaContext(4, tau, 1e-10), samples=15, seed=4)
        assert rec.passed, rec.detail
        assert rec.residual < 1e-7
    with pytest.raises(ValueError):
        weierstrass_check_level4(ThetaContext(6, 1j, 1e-10))


@pytest.mark.parametrize(
    "seed, skipped", [pytest.param(85, 37, id="85"), pytest.param(189, 58, id="189")]
)
def test_weierstrass_reads_the_stream_as_a_one_at_a_time_loop(monkeypatch, seed, skipped):
    # the stream with draw `skipped` moved to z = 0, where X_1 = X_3 puts
    # the point on the base locus: the check reads one point more than it
    # accepts, one point at a time, at 64 samples and at 65 alike
    ctx = ThetaContext(4, 2j, 1e-10)
    ks = range(4)
    a0, a1, a2, _ = theta_N_eval(ks, 0.0, ctx)
    qscale = max(abs(a0 * a2), 2 * abs(a1) ** 2)

    def quadric_pair(x0, x1, x2, x3):
        return (
            a0 * a2 * (x0 ** 2 + x2 ** 2) - 2 * a1 ** 2 * x1 * x3,
            2 * a1 ** 2 * x0 * x2 - a0 * a2 * (x1 ** 2 + x3 ** 2),
        )

    def scaled(x):
        big = max(abs(c) for c in x)
        return [c / big for c in x]

    stream = thetalab.identities.sample_stream
    handed = []

    def moved(tau, n, seed):
        for k, z in enumerate(stream(tau, n, seed)):
            handed.append(0j if k == skipped else z)
            yield handed[-1]

    evaluated = []
    inner = thetalab.identities.theta_N_eval

    def recording(k, z, ctx):
        evaluated.extend(np.ravel(z).tolist())
        return inner(k, z, ctx)

    monkeypatch.setattr(thetalab.identities, "sample_stream", moved)
    monkeypatch.setattr(thetalab.identities, "theta_N_eval", recording)
    for samples in (64, 65):
        rng = Random(seed)
        worst, drawn, accepted = 0.0, 0, 0
        zs = []
        while accepted < samples and drawn < 20 * samples:
            z = sample_points(rng, ctx.tau, 1)[0]
            z = 0j if drawn == skipped else z
            zs.append(z)
            drawn += 1
            x0, x1, x2, x3 = scaled(theta_N_eval(ks, z, ctx))
            t1, t2 = a1 ** 2 * x0 * x2, a0 * a2 * x1 * x3
            den1 = t1 - t2
            den2 = (x1 - x3) * (x0 - x2)
            if (abs(den1) < 1e-6 * (abs(t1) + abs(t2))
                    or abs(den2) < 1e-6 * (abs(x1) + abs(x3)) * (abs(x0) + abs(x2))):
                continue
            accepted += 1
            q1, q2 = quadric_pair(x0, x1, x2, x3)
            xx = (a0 ** 2 - a2 ** 2) ** 2 * (t1 + t2) / den1
            yy = (
                4 * a1 ** 2 * (a0 ** 2 - a2 ** 2) ** 2
                * (x1 + x3) * (x0 + x2) * (a0 * a2 * x0 * x2 - a1 ** 2 * x1 * x3)
                / (den2 * den1)
            )
            wscale = max(abs(xx), abs(yy), abs(a0 - a2) ** 4, abs(a0 + a2) ** 4) ** 3
            resid = abs(yy ** 2 - xx * (xx - (a0 - a2) ** 4) * (xx - (a0 + a2) ** 4)) / wscale
            worst = max(worst, resid, abs(q1) / qscale, abs(q2) / qscale)
        assert (drawn, accepted) == (samples + 1, samples)
        q1, q2 = quadric_pair(*scaled(theta_N_eval(ks, Fraction(1, 8), ctx)))
        worst = max(worst, abs(q1) / qscale, abs(q2) / qscale)

        evaluated.clear()
        handed.clear()
        rec = weierstrass_check_level4(ctx, samples=samples, seed=seed)
        assert rec.residual == worst  # bit for bit
        assert f"over {samples} samples" in rec.detail and rec.passed
        # the stream hands out only the points the loop needs; the check
        # evaluates the nulls, exactly those points in order, and z = 1/8
        assert handed == zs
        assert evaluated == [0, *zs, Fraction(1, 8)]


def test_degenerate_fibers():
    rec = degenerate_fibers_level4()
    assert rec.passed, rec.detail
    assert "12 points" in rec.detail


def test_null_invariance():
    for N in (4, 6, 8):
        rec = null_invariance_check(N)
        assert rec.passed, rec.detail
        assert rec.residual < 1e-8
    with pytest.raises(ValueError):
        null_invariance_check(5)


def test_records_json_schema():
    import json

    from thetalab.cli import RunConfig, render_report

    recs = theta_null_curve_check(4, 50)
    obj = json.loads(render_report(recs, RunConfig(N=4, order=50), "json"))
    assert obj["schema"] == 1
    assert obj["records"][0]["name"] == "level4.null-curve"
    assert obj["records"][0]["status"] == "pass"


def test_resolved_record_needs_exactly_one_vanishing_candidate():
    from thetalab.identities import _resolved_record

    lam = lam_series(40)
    zero = lam - lam
    cases = [
        ([("a", lam), ("b", zero)], "pass", "b"),
        ([("a", zero), ("b", zero)], "fail", "a"),  # both hold: nothing was resolved
        ([("a", lam), ("b", lam)], "fail", "none"),
    ]
    for candidates, status, label in cases:
        rec = _resolved_record("r", 4, 40, "x = {}", candidates)
        assert (rec.status, rec.detail) == (status, f"x = {label}, resolved exactly")
        assert rec.kind == "series-equality" and rec.order == 40


def test_numeric_records_pass_only_below_their_tolerance():
    from thetalab.identities import IdentityRecord

    ok = IdentityRecord.numeric("n", 4, 1e-9, 1e-8, "d")
    assert ok.passed and ok.kind == "numeric-vanishing"
    assert (ok.residual, ok.tolerance, ok.order, ok.detail) == (1e-9, 1e-8, None, "d")
    assert not IdentityRecord.numeric("n", 4, 1e-8, 1e-8, "d").passed  # at the tolerance
    assert not IdentityRecord.numeric("n", 4, float("nan"), 1e-8, "d").passed
    assert not IdentityRecord.numeric("n", 4, 1e-9, 1e-8, "d", ok=False).passed
    assert IdentityRecord.numeric("n", 6, 0.0, 1e-7, "d", order=80).order == 80


def test_count_and_series_records_keep_their_fields():
    from thetalab.identities import IdentityRecord

    rec = IdentityRecord.count("c", 4, True, "d", residual=2e-12)
    assert (rec.kind, rec.status, rec.residual, rec.tolerance, rec.order) == (
        "count", "pass", 2e-12, None, None
    )
    assert IdentityRecord.count("c", 4, False, "d").residual is None
    assert IdentityRecord.count("c", 4, False, "d").status == "fail"
    rec = IdentityRecord.series("s", 6, "series-equality", True, 120, "d")
    assert (rec.kind, rec.status, rec.order, rec.tolerance, rec.residual) == (
        "series-equality", "pass", 120, None, None
    )
    assert not IdentityRecord.series("s", 6, "series-vanishing", False, 120, "d").passed
