import json
import math
import re
import warnings

import numpy as np
import pytest

import thetalab.cli
import thetalab.congruence
import thetalab.identities
import thetalab.projective
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
from thetalab.theta import sample_stream, theta_N_eval, theta_null_series


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


def test_qexp_of_a_zero_series(capsys):
    # a_0 vanishes at odd N; its bound q^(576/24) prints in lowest terms
    code, out, _ = run_cli(capsys, "qexp", "--object", "theta-null", "--N", "3", "--k", "0",
                           "--order", "24")
    assert (code, out) == (0, "O(q^(24))\n")


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
    ok = IdentityRecord.count("x", 4, True, "")
    bad = IdentityRecord.count("y", 4, False, "")
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
    # --tol 1e-15 is the least valid tolerance, and at N = 16 the on-curve
    # residual (about 3e-14) is rounding above 10 * tol, so a real check
    # fails on valid input (a tolerance below double precision is a
    # configuration error instead)
    code, out, _ = run_cli(capsys, "verify", "--suite", "quadrics", "--N", "16", "--tol", "1e-15")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "quadrics", "--N", "8", "--tau-im", "10"),
        ("--suite", "quadrics", "--N", "16", "--tau-im", "5"),
        ("--suite", "transform", "--N", "20"),
        ("--suite", "transform", "--N", "28"),
        ("--suite", "all", "--N", "20"),
    ],
    ids=" ".join,
)
def test_verify_passes_where_values_span_many_magnitudes(capsys, argv):
    # nulls from 1e-27 to 1 (quadrics at Im tau 10) and theta coordinates
    # far below the largest one (transform from N = 20) are valid input
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0, out
    assert "FAIL" not in out


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


def test_verify_reduces_a_large_real_part_of_tau(capsys):
    # theta_k(z, tau + 8N) = theta_k(z, tau); unreduced, Re tau = 1e9 rounds
    # the kernel's phases away, and -1/tau leaves no usable Im tau
    for suite, n in (("translation", 4), ("quadrics", 6), ("all", 8)):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--N", str(n), "--tau-re", "1e9", "--format", "json"
        )
        assert (code, err) == (0, ""), (suite, err)
        report = json.loads(out)
        assert report["config"]["tau"] == [math.fmod(1e9, 8 * n), 1.0]
        assert all(r["status"] == "pass" for r in report["records"])
    code, out, _ = run_cli(capsys, "verify", "--suite", "translation", "--tau-re=-5.5", "--format", "json")
    assert code == 0 and json.loads(out)["config"]["tau"] == [-5.5, 1.0]  # |Re tau| < 8N stays


def test_verify_translation_and_transform_reject_level_one(capsys):
    for suite in ("translation", "transform"):
        for n in ("1", "0"):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--N", n)
            assert code == 2
            assert out == ""
            assert "N >= 2" in err


def test_transform_reports_the_worst_unit_deviation(monkeypatch):
    # |r'| - 1 is the worst over the sampled points, not the last point's
    seen = []
    check = thetalab.cli.transform_check

    def recording(z, ctx):
        t = check(z, ctx)
        seen.append(abs(abs(t.ratios_shift[0]) - 1.0))
        return t

    monkeypatch.setattr(thetalab.cli, "transform_check", recording)
    (rec,) = thetalab.cli._suite_transform(RunConfig(N=11, seed=0))
    assert len(seen) == 8
    assert seen[-1] < max(seen)  # this seed tells the two apart
    assert rec.detail.endswith(f"|r'| - 1 = {max(seen):.3e}")


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


def test_commands_reject_flags_only_other_choices_read(capsys):
    for argv, flag in (
        (("qexp", "--object", "lambda", "--N", "9", "--k", "3", "--order", "32"), "--N"),
        (("qexp", "--object", "eta", "--k", "5"), "--k"),
        (("qexp", "--object", "b4", "--N", "4"), "--N"),
        (("verify", "--suite", "rep", "--N", "4", "--order", "1"), "--order"),
        (("verify", "--suite", "quadrics", "--N", "8", "--order", "80"), "--order"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert flag in err, (argv, err)
    # theta-null reads both, at N = 4 when --N is not given
    code, out, err = run_cli(capsys, "qexp", "--object", "theta-null", "--k", "1")
    assert (code, err) == (0, "")
    assert out == str(theta_null_series(4, 1, 50)) + "\n"
    # a series suite reads --order
    code, _, err = run_cli(capsys, "verify", "--suite", "identities", "--N", "4", "--order", "32")
    assert (code, err) == (0, "")


def test_quadrics_suite_samples_each_point_once(monkeypatch):
    # both form sets of the even-N suite share one pass over the samples,
    # read one point at a time (25) or as numpy units of up to 512 points
    # (150: one unit; 1100: three, the last one partial)
    seen = []
    inner = thetalab.theta.theta_N_eval

    def counting(k, z, ctx):
        values = inner(k, z, ctx)
        seen.append(np.size(values))
        return values

    monkeypatch.setattr(thetalab.theta, "theta_N_eval", counting)
    monkeypatch.setattr(thetalab.quadrics, "theta_N_eval", counting)
    for N in (4, 8, 12):
        for samples in (25, 150, 1100):
            seen.clear()
            records = _suite_quadrics(RunConfig(N=N, samples=samples, seed=2))
            assert {r.name for r in records} >= {"quadrics.on-curve", "quadrics.s-basis.on-curve"}
            # null values a_k and s_k, then every sample once
            assert sum(seen) == 2 * N + samples * N


def test_transform_fails_when_the_shift_constant_leaves_the_unit_circle(monkeypatch):
    # the tau -> tau + 1 constant r' is a root of unity, so |r'| - 1 is gated too
    check = thetalab.cli.transform_check

    def off_circle(z, ctx):
        t = check(z, ctx)
        return t._replace(ratios_shift=(1 + 1e-6,) + t.ratios_shift[1:])

    monkeypatch.setattr(thetalab.cli, "transform_check", off_circle)
    (rec,) = thetalab.cli._suite_transform(RunConfig(N=11, seed=0))
    assert rec.status == "fail"
    assert rec.residual < rec.tolerance  # the deviations alone pass
    assert rec.detail.endswith("|r'| - 1 = 1.000e-06")


def test_structures_invariants_fail_on_a_miscounted_cusp(monkeypatch):
    # two stray orbits (0, 0) and (N, 0) raise the enumerated cusp count by
    # two and lower the genus by one, so 12(g - 1) + 6c = mu still holds;
    # the closed forms for the index and the cusps do not
    vectors = thetalab.congruence._primitive_vectors
    monkeypatch.setattr(
        thetalab.congruence, "_primitive_vectors", lambda m: vectors(m) + [(0, 0), (m // 2, 0)]
    )
    records = {r.name: r for r in thetalab.cli._suite_structures(RunConfig(N=8))}
    rec = records["structures.invariants"]
    assert rec.detail == "index 768, cusps 50, genus 40"
    assert 12 * (40 - 1) + 6 * 50 == 768
    assert rec.status == "fail"
    assert records["structures.tower"].passed and records["structures.count"].passed


def test_quadric_ranks_do_not_depend_on_tau(capsys):
    details = set()
    for im in ("0.5", "1", "10"):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "quadrics", "--N", "8", "--tau-im", im, "--format", "json"
        )
        assert code == 0
        records = json.loads(out)["records"]
        details.add(tuple(
            (r["name"], r["status"], r["detail"]) for r in records
            if r["name"] in ("quadrics.rank", "quadrics.s-basis.span")
        ))
    assert details == {(
        ("quadrics.rank", "pass", "rank 20, expected 20"),
        ("quadrics.s-basis.span", "pass", "graded piece 0: ranks 3/3/stacked 3"),
    )}


@pytest.mark.parametrize("N", ["11", "12"])
def test_verify_all_needs_no_numpy_linalg(capsys, monkeypatch, N):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in dir(np.linalg):
        if not name.startswith("_") and callable(getattr(np.linalg, name)):
            monkeypatch.setattr(np.linalg, name, refuse)
    for samples in ("25", "65"):  # one point at a time, numpy units
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--N", N, "--samples", samples)
        assert code == 0, out


@pytest.mark.parametrize("N", (4, 5, 6, 7, 8, 9, 10, 11, 12, 16))
def test_point_and_block_paths_agree(monkeypatch, N):
    # the same samples, read one point at a time and as numpy units (25,
    # one unit; 1100, three units, the last one partial) by the one rule
    # of theta.py forced each way: the same records, verdicts and details
    # up to their figures; the residuals, themselves relative figures,
    # within 1e-12 of each other; and the theta values of every sample equal
    for samples in (25, 1100):
        cfg = RunConfig(N=N, seed=1, samples=samples)
        cfg.validate()
        reports = []
        for point in (True, False):
            monkeypatch.setattr(thetalab.theta, "pointwise", lambda samples, point=point: point)
            reports.append(run_suites(cfg, "all"))
        points, units = reports

        def shape(r):
            return r.name, r.status, re.sub(r"\d\.\d{3}e[+-]\d+", "#", r.detail)

        assert [shape(r) for r in points] == [shape(r) for r in units]
        for p, u in zip(points, units):
            assert (p.residual is None) == (u.residual is None)
            assert p.residual is None or abs(p.residual - u.residual) <= 1e-12, p.name
        ctx = cfg.context()
        zs = list(sample_stream(cfg.tau, cfg.samples, cfg.seed))
        rows = theta_N_eval(range(N), np.asarray(zs), ctx)
        assert [theta_N_eval(range(N), z, ctx) for z in zs] == rows.T.tolist()


def test_records_keep_the_shape_of_their_kind(capsys):
    # (kind, whether order, tolerance and residual are set), with the
    # records that carry a field their kind otherwise leaves out
    seen = set()
    for n in range(2, 17):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--N", str(n), "--format", "json"
        )
        assert code == 0
        for r in json.loads(out)["records"]:
            shape = tuple(r[field] is not None for field in ("order", "tolerance", "residual"))
            if r["kind"] == "count":
                assert shape == (False, False, r["name"].startswith("transform.rho-theta.")), r
            elif r["kind"] == "numeric-vanishing":
                assert shape == (r["name"] == "level6.hesse", True, True), r
            else:
                assert r["kind"] in ("series-vanishing", "series-equality"), r
                assert shape == (True, False, False), r
            seen.add((r["kind"], shape))
    assert seen == {
        ("count", (False, False, False)),
        ("count", (False, False, True)),
        ("numeric-vanishing", (False, True, True)),
        ("numeric-vanishing", (True, True, True)),
        ("series-vanishing", (True, False, False)),
        ("series-equality", (True, False, False)),
    }


@pytest.mark.parametrize(
    "exc, reason",
    [
        (MemoryError(), "allocation failed"),
        (MemoryError("Unable to allocate 8 TiB"), "Unable to allocate 8 TiB"),
    ],
)
def test_out_of_memory_is_a_usage_error(capsys, monkeypatch, exc, reason):
    def exhausted(order):
        raise exc

    monkeypatch.setattr(thetalab.cli, "lam_series", exhausted)
    code, out, err = run_cli(capsys, "qexp", "--object", "lambda", "--order", "1000000000000")
    assert code == 2
    assert out == ""
    assert err == f"error: out of memory ({reason}); lower --order, --N or --samples\n"
    assert "Traceback" not in err


def test_underflowing_level6_nulls_are_a_usage_error(capsys):
    # at Im tau = 300 the null a_0 is 0.0 in double precision, and the
    # level-6 coordinate X = 2 a_1 a_2 / (a_0 a_3) divides by it
    argv = ("verify", "--suite", "identities", "--N", "6", "--tau-im", "300")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: the level-6 theta nulls underflow to zero at Im tau = 300; lower --tau-im\n"
    )


@pytest.mark.parametrize("samples", ("25", "65"))  # one point at a time, numpy units
def test_overflow_in_a_numeric_suite_is_a_usage_error(capsys, monkeypatch, samples):
    # huge coordinates overflow the quadric residuals' products: numpy
    # raises there, and so does the plain-Python sum, instead of reading inf
    inner = thetalab.quadrics.theta_N_eval

    def huge(k, z, ctx):
        values = inner(k, z, ctx)
        return [v * 1e200 for v in values] if isinstance(values, list) else values * 1e200

    monkeypatch.setattr(thetalab.quadrics, "theta_N_eval", huge)
    code, out, err = run_cli(capsys, "verify", "--suite", "quadrics", "--N", "8", "--samples", samples)
    assert (code, out) == (2, "")
    assert err.startswith("error: numeric overflow (")
    assert err.endswith("); lower --tau-im\n")


@pytest.mark.parametrize("samples", ("25", "65"))
def test_quadric_residual_overflow_at_large_im_tau_is_a_usage_error(capsys, samples):
    # at Im tau = 20 the sampled coordinates reach about 1e197 at N = 8,
    # and their products overflow a double: one point at a time and on
    # numpy units alike, the residual reads as not finite
    argv = ("verify", "--suite", "quadrics", "--N", "8", "--tau-im", "20", "--samples", samples)
    errors = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning either
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: numeric overflow (non-finite quadric residual); lower --tau-im\n"
    assert np.geterr() == errors  # the units' error state ends with the stream


def test_hesse_cubic_scales_large_coordinates(capsys):
    # at Im tau = 20 a sampled coordinate is near exp(305), whose cube
    # overflows a double; each point is scaled before the cubic
    code, out, err = run_cli(capsys, "verify", "--suite", "identities", "--N", "6", "--tau-im", "20",
                             "--tau-re", "0.3", "--samples", "1", "--seed", "1", "--format", "json")
    assert (code, err) == (0, "")
    records = json.loads(out)["records"]
    assert records and all(r["status"] == "pass" for r in records)
    assert next(r for r in records if r["name"] == "level6.hesse")["residual"] < 1e-12


@pytest.mark.parametrize("argv, samples", [
    # squaring the raw coordinates overflowed here
    (("--tau-re=-36.371521452548095", "--tau-im=60.607920193892674", "--samples", "13"), 13),
    # a base-locus test against the coordinates' size accepted no point here
    (("--tau-im", "6", "--samples", "200"), 200),
], ids=("overflow", "no-point-accepted"))
def test_weierstrass_accepts_points_at_large_im_tau(capsys, argv, samples):
    code, out, err = run_cli(capsys, "verify", "--suite", "weierstrass", "--N", "4", *argv,
                             "--seed", "2", "--format", "json")
    assert (code, err) == (0, "")
    records = json.loads(out)["records"]
    assert records and all(r["status"] == "pass" for r in records)
    rec = next(r for r in records if r["name"] == "level4.weierstrass")
    assert f"over {samples} samples" in rec["detail"]


def test_underflowing_transform_values_are_a_usage_error(capsys):
    # at N = 16, Im tau = 66 a theta value the tau -> tau + 1 ratio divides by is 0.0
    argv = ("verify", "--suite", "transform", "--N", "16", "--tau-im", "66", "--samples", "8")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: the degree-16 theta values underflow to zero at Im tau = 66; lower --tau-im\n"
    )


def test_overflow_message_shows_the_error_text(capsys, monkeypatch):
    # a float power raises OverflowError((34, text)); the message shows the text
    def overflowing(*args):
        return 1e200 ** 2

    monkeypatch.setattr(thetalab.cli, "weierstrass_check_level4", overflowing)
    code, out, err = run_cli(capsys, "verify", "--suite", "weierstrass", "--N", "4")
    assert (code, out) == (2, "")
    assert err == "error: numeric overflow (Numerical result out of range); lower --tau-im\n"
