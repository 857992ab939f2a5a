import json

import numpy as np
import pytest

import thetalab.cli
import thetalab.quadrics
import thetalab.theta
from thetalab.cli import (
    RunConfig,
    _suite_quadrics,
    main,
    render_report,
    report_exit_code,
    run_suites,
)
from thetalab.identities import IdentityRecord
from thetalab.theta import theta_null_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_qexp_lambda(capsys):
    code, out, _ = run_cli(capsys, "qexp", "--object", "lambda", "--order", "40")
    assert code == 0
    assert out.startswith("2*q^(1/4) + -4*q^(5/4) + 10*q^(9/4)")


def test_qexp_phi5(capsys):
    code, out, _ = run_cli(capsys, "qexp", "--object", "phi5", "--order", "40")
    assert code == 0
    assert out.startswith("1*q^(1/5) + -1*q^(6/5) + 1*q^(11/5) + -1*q^(21/5)")


def test_qexp_theta_null_json(capsys):
    code, out, _ = run_cli(
        capsys, "qexp", "--object", "theta-null", "--N", "4", "--k", "2",
        "--order", "40", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ram"] == 32 and obj["field"] == "Q"
    assert obj["terms"][0] == [0, "1/1"]
    assert obj["terms"][1] == [64, "2/1"]  # 2 q^2 at ramification 32


def test_qexp_invalid_combination(capsys):
    code, _, err = run_cli(capsys, "qexp", "--object", "theta-null", "--N", "4")
    assert code == 2
    assert "k" in err
    code, _, err = run_cli(capsys, "qexp", "--object", "lambda", "--order", "10")
    assert code == 2


def test_qexp_eta_rejects_order_below_one(capsys):
    for order in ("0", "-5"):
        code, out, err = run_cli(capsys, "qexp", "--object", "eta", "--order", order)
        assert code == 2
        assert out == ""
        assert "order must be >= 1" in err
    code, out, _ = run_cli(capsys, "qexp", "--object", "eta", "--order", "1")
    assert code == 0
    assert out.startswith("1*q^(1/24) + O(q^(1))")


def test_invariants(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--family", "gammaN2N", "--N", "4")
    assert code == 0
    assert "index 96" in out and "genus 3" in out
    code, out, _ = run_cli(
        capsys, "invariants", "--family", "gamma", "--N", "8", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["genus"] == 5


def test_invariants_low_levels(capsys):
    # Gamma(2) and Gamma(3) are torsion-free, so the genus formula applies
    for N, want in (("2", (6, 3, 0)), ("3", (12, 4, 0))):
        code, out, err = run_cli(capsys, "invariants", "--family", "gamma", "--N", N)
        assert (code, err) == (0, "")
        assert out == "index %d, cusps %d, genus %d\n" % want
        code, out, _ = run_cli(
            capsys, "invariants", "--family", "gamma", "--N", N, "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert (data["index_psl"], data["cusps"], data["genus"]) == want


def test_invariants_modulus_too_large(capsys):
    code, _, err = run_cli(capsys, "invariants", "--family", "gammaN2N", "--N", "13")
    assert code == 2


def test_verify_rep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "rep", "--N", "6")
    assert code == 0
    assert "rep.braid" in out and "rep.kernel_word" in out and "rep.order4" in out


def test_verify_rejects_bad_combinations(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "rep", "--N", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--suite", "weierstrass", "--N", "6")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--suite", "structures", "--N", "14")
    assert code == 2 and "N <= 12" in err
    code, _, err = run_cli(capsys, "verify", "--suite", "identities", "--N", "4", "--tau-im", "0.1")
    assert code == 2


def test_verify_rejects_level_below_two(capsys):
    for suite in ("rep", "structures"):
        for n in ("0", "-2"):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--N", n)
            assert code == 2
            assert out == ""
            assert "even N >= 2" in err


def test_exit_code_mapping():
    ok = IdentityRecord(name="x", level=4, kind="count", status="pass")
    bad = IdentityRecord(name="y", level=4, kind="count", status="fail")
    assert report_exit_code([ok]) == 0
    assert report_exit_code([ok, bad]) == 1
    assert report_exit_code([]) == 0


def test_report_determinism():
    cfg = RunConfig(N=4, samples=6, seed=0)
    r1 = render_report(run_suites(cfg, "all"), cfg, "json")
    r2 = render_report(run_suites(cfg, "all"), cfg, "json")
    assert r1 == r2
    parsed = json.loads(r1)
    assert parsed["schema"] == 1
    names = [r["name"] for r in parsed["records"]]
    assert names == sorted(names)


def test_verify_identities_level8(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "identities", "--N", "8", "--order", "80",
        "--format", "json",
    )
    assert code == 0
    recs = json.loads(out)["records"]
    assert len(recs) >= 6
    assert all(r["status"] == "pass" for r in recs)
    names = {r["name"] for r in recs}
    assert {"level8.null-curve.1", "level8.x8-model", "level8.two-to-one"} <= names


def test_verify_identities_odd_levels(capsys):
    # only the level's own records are built: phi at N = 5, the Klein
    # quartic at N = 7, and nothing at N = 3
    for n, names in (("5", ["phi.leading"]), ("7", ["klein.quartic"])):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "identities", "--N", n, "--order", "80",
            "--format", "json",
        )
        assert code == 0
        recs = json.loads(out)["records"]
        assert [r["name"] for r in recs] == names
        assert all(r["status"] == "pass" for r in recs)
    code, out, err = run_cli(capsys, "verify", "--suite", "identities", "--N", "3")
    assert code == 2
    assert out == ""
    assert "no series identities catalogued" in err


def test_verify_all_level4_aggregate(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--N", "4", "--samples", "8")
    assert code == 0
    assert "checks passed" in out


def test_verify_exit_one_on_failing_check(capsys):
    # at Im tau = 10 the null values span too many orders of magnitude for
    # the numeric rank test, so a real check fails on valid input (a
    # tolerance below double precision is a configuration error instead)
    code, out, _ = run_cli(capsys, "verify", "--suite", "quadrics", "--N", "8", "--tau-im", "10")
    assert code == 1
    assert "FAIL" in out


def test_verify_rejects_bad_numeric_input(capsys):
    cases = [
        (("--suite", "quadrics", "--N", "8", "--tau-im", "1e6"), "Im tau"),
        (("--suite", "quadrics", "--N", "8", "--tau-im", "30"), "--tau-im"),
        (("--suite", "translation", "--N", "4", "--tol", "1e-20"), "--tol"),
        (("--suite", "translation", "--N", "4", "--tol", "1e-30"), "--tol"),
        (("--suite", "quadrics", "--N", "8", "--tol", "nan"), "--tol"),
        (("--suite", "quadrics", "--N", "8", "--tol", "inf"), "--tol"),
        (("--suite", "quadrics", "--N", "8", "--tau-im", "inf"), "--tau-im"),
        (("--suite", "quadrics", "--N", "8", "--tau-im", "nan"), "--tau-im"),
        (("--suite", "quadrics", "--N", "8", "--tau-re", "inf"), "--tau-re"),
    ]
    for argv, flag in cases:
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and flag in err, (argv, err)
    code, _, _ = run_cli(capsys, "verify", "--suite", "translation", "--N", "4", "--tol", "1e-15")
    assert code == 0


def test_verify_translation_and_transform_reject_level_one(capsys):
    for suite in ("translation", "transform"):
        for n in ("1", "0"):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--N", n)
            assert code == 2
            assert out == ""
            assert "N >= 2" in err


def test_verify_all_at_levels_below_four(capsys, monkeypatch):
    # `all` runs exactly the suites that apply at N: the quadric systems
    # need N >= 4, and the structures enumeration stops at N = 12
    ran = []

    def recording(name, fn):
        def suite(cfg):
            ran.append(name)
            return fn(cfg)
        return suite

    for name, fn in list(thetalab.cli._SUITES.items()):
        monkeypatch.setitem(thetalab.cli._SUITES, name, recording(name, fn))
    want = {
        2: {"rep", "structures", "translation", "transform"},
        3: {"translation", "transform"},
        4: {"identities", "quadrics", "rep", "translation", "transform", "weierstrass",
            "structures"},
        5: {"identities", "quadrics", "translation", "transform"},
        12: {"quadrics", "rep", "translation", "transform", "structures"},
        13: {"quadrics", "translation", "transform"},
        14: {"quadrics", "rep", "translation", "transform"},
    }
    for n, suites in want.items():
        ran.clear()
        code, out, err = run_cli(
            capsys, "verify", "--suite", "all", "--N", str(n), "--samples", "5",
            "--format", "json",
        )
        assert code == 0, err
        assert set(ran) == suites, n
        records = json.loads(out)["records"]
        if not suites & {"identities", "weierstrass"}:  # their records are named by level
            assert {r["name"].split(".")[0] for r in records} == suites
        assert all(r["status"] == "pass" and r["level"] == n for r in records)
    code, _, err = run_cli(capsys, "verify", "--suite", "quadrics", "--N", "3")
    assert code == 2 and "N >= 4" in err
    for n in ("0", "1"):  # no suite applies
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--N", n)
        assert (code, out) == (2, "")
        assert f"N = {n}" in err


def test_verify_all_checks_the_order_only_for_series(capsys):
    # no series identity is catalogued at N = 12, so its order bound is moot
    code, out, err = run_cli(
        capsys, "verify", "--suite", "all", "--N", "12", "--order", "60", "--samples", "5",
    )
    assert (code, err) == (0, "")
    assert "checks passed" in out
    code, _, err = run_cli(capsys, "verify", "--suite", "all", "--N", "8", "--order", "60")
    assert code == 2 and "order must be >= 64" in err


def test_qexp_theta_null_default_order_follows_n(capsys):
    code, out, err = run_cli(capsys, "qexp", "--object", "theta-null", "--N", "8", "--k", "1")
    assert (code, err) == (0, "")
    assert out == str(theta_null_series(8, 1, 64)) + "\n"


def test_commands_reject_flags_they_do_not_read(capsys):
    for argv in (
        ("invariants", "--family", "gamma", "--N", "4", "--seed", "1"),
        ("invariants", "--family", "gamma", "--N", "4", "--order", "40"),
        ("qexp", "--object", "lambda", "--tau-im", "2"),
        ("qexp", "--object", "lambda", "--samples", "5"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_quadrics_suite_samples_each_point_once(monkeypatch):
    # both form sets of the even-N suite share one pass over the samples
    seen = []
    inner = thetalab.theta.theta_N_eval

    def counting(k, z, ctx):
        seen.append(np.broadcast(np.asarray(k), np.asarray(z)).size)
        return inner(k, z, ctx)

    monkeypatch.setattr(thetalab.theta, "theta_N_eval", counting)
    monkeypatch.setattr(thetalab.quadrics, "theta_N_eval", counting)
    for N in (4, 8, 12):
        seen.clear()
        records = _suite_quadrics(RunConfig(N=N, samples=150, seed=2))
        assert {r.name for r in records} >= {"quadrics.on-curve", "quadrics.s-basis.on-curve"}
        # null values a_k and s_k, then every sample once
        assert sum(seen) == 2 * N + 150 * N
