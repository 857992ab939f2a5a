from fractions import Fraction

import pytest

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
from thetalab.theta import ThetaContext


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
        got = [r.to_dict() for r in eta_quotient_check(order, level)]
        assert got == [r.to_dict() for r in full if r.level == level]
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


def test_hesse():
    for tau in (1j, 0.3 + 1.1j):
        rec = hesse_check(60, ThetaContext(6, tau, 1e-10), samples=10, seed=3)
        assert rec.passed, rec.detail
        assert rec.residual < 1e-7


def test_weierstrass_level4():
    for tau in (1j, 0.3 + 1.1j):
        rec = weierstrass_check_level4(ThetaContext(4, tau, 1e-10), samples=15, seed=4)
        assert rec.passed, rec.detail
        assert rec.residual < 1e-7
    with pytest.raises(ValueError):
        weierstrass_check_level4(ThetaContext(6, 1j, 1e-10))


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

    from thetalab.identities import records_to_json

    recs = theta_null_curve_check(4, 50)
    obj = json.loads(records_to_json(recs))
    assert obj["schema"] == 1
    assert obj["records"][0]["name"] == "level4.null-curve"
    assert obj["records"][0]["status"] == "pass"
