"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see
them) and fails the suite if it does not hold."""

import time
from fractions import Fraction
from random import Random

import numpy as np

from conftest import direct_theta_N, svd_rank
from thetalab.congruence import (
    SubgroupSpec,
    enum_structures_above,
    group_tower_check,
    subgroup_invariants,
)
from thetalab.identities import (
    degenerate_fibers_level4,
    eta_quotient_check,
    hesse_check,
    quotient_model_check,
    theta_null_curve_check,
    weierstrass_check_level4,
)
from thetalab.projective import (
    conjugation_table_check,
    translation_check,
    verify_presentation,
)
from thetalab.quadrics import NullData, gen_even_basis, gen_odd_basis, rank_check, verify_on_curve
from thetalab.series import PuiseuxSeries, eta_product_oracle, eta_series
from thetalab.theta import (
    ThetaContext,
    e,
    theta_N_eval,
    theta_null_series,
    theta_zero_points,
    transform_check,
)

ORDER = 80
TAUS = (1j, 0.3 + 1.1j)
TOL = 1e-9


def report(cid: str, label: str, ok: bool):
    print(f"ACCEPTANCE {cid} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {cid}: {label}"


# -- criterion 1: exact series identities ---------------------------------


def test_criterion_1_null_curve_models():
    t0 = time.time()
    for N, count in ((4, 1), (6, 2), (8, 6), (7, 1)):
        recs = theta_null_curve_check(N, ORDER)
        ok = len(recs) == count and all(r.passed for r in recs)
        report("1", f"level-{N} theta-null model ({count} relation(s)) exactly zero", ok)
    report("1", "null-curve runtime under budget", time.time() - t0 < 30)


def test_criterion_1_eta_quotients_and_expansions():
    t0 = time.time()
    recs = {r.name: r for r in eta_quotient_check(ORDER)}
    for name in (
        "lambda.eta", "X.eta", "Y.eta", "Y.null-rescale", "b1.eta",
        "b1.null-rescale", "b4.null-rescale", "b4.eta-sign", "mu.two-expressions",
    ):
        report("1", f"exact equality {name}", recs[name].passed)
    for name in (
        "lambda.leading", "X.leading", "Y.leading", "b1.leading", "b4.leading",
        "phi.leading", "mu.leading",
    ):
        report("1", f"displayed expansion {name} digit-for-digit", recs[name].passed)
    report("1", "eta-quotient runtime under budget", time.time() - t0 < 30)


def test_criterion_1_quotient_models():
    t0 = time.time()
    recs6 = {r.name: r for r in quotient_model_check(6, ORDER)}
    recs8 = {r.name: r for r in quotient_model_check(8, ORDER)}
    report("1", "Y^2 = X^3 + 1 exactly", recs6["level6.weierstrass-model"].passed)
    report("1", "b1^4 = 4 b4^6 + b4^2 exactly", recs8["level8.x8-model"].passed)
    rec = recs8["level8.b0-from-b1-b3"]
    report(
        "1",
        "b0 from b1, b3 exactly (exponent resolved by the series: b1^2*b3)",
        rec.passed and "b1^2*b3" in rec.detail,
    )
    report("1", "b3 = 1/b4^2 exactly", recs8["level8.b3-eq-inv-b4sq"].passed)
    report("1", "two-to-one substitution exactly", recs8["level8.two-to-one"].passed)
    report("1", "quotient-model runtime under budget", time.time() - t0 < 30)


# -- criterion 2: exact group theory ---------------------------------------


def test_criterion_2_projective_representation():
    for N in (4, 6, 8):
        t0 = time.time()
        rep = verify_presentation(N)
        conj = conjugation_table_check(N)
        ok = (
            rep.checks["braid"]
            and rep.checks["order4"]
            and rep.checks["kernel_word"]
            and rep.checks["kernel_word_congruence"]
            and all(conj.values())
        )
        report(
            "2",
            f"N={N}: (A0B0)^3 = A0^2, A0^4 = I, kernel word = I, conjugation tables, exact",
            ok,
        )
        assert time.time() - t0 < 30


# -- criterion 3: finite enumeration ---------------------------------------


def test_criterion_3_structures_and_invariants():
    for N in (4, 6, 8):
        t0 = time.time()
        res = enum_structures_above(N)
        report(
            "3",
            f"N={N}: eight refined structures in four classes",
            (len(res.structures), res.class_count) == (8, 4),
        )
        tower = group_tower_check(N)
        report(
            "3",
            f"N={N}: tower quotient orders (4, 2)",
            all(tower.checks.values()) and tower.quotient_orders == (4, 2),
        )
        assert time.time() - t0 < 10
    t0 = time.time()
    inv4 = subgroup_invariants(SubgroupSpec("gammaN2N", 4))
    report("3", "refined level-8 subgroup: index 96, genus 3", (inv4.index_psl, inv4.genus) == (96, 3))
    inv6 = subgroup_invariants(SubgroupSpec("gammaN2N", 6))
    report("3", "refined level-12 subgroup: index 288, genus 13", (inv6.index_psl, inv6.genus) == (288, 13))
    inv8 = subgroup_invariants(SubgroupSpec("gamma", 8))
    report("3", "principal level-8 subgroup: genus 5", inv8.genus == 5)
    assert time.time() - t0 < 10


# -- criterion 4: numeric property suites ----------------------------------


def test_criterion_4_translation():
    for tau in TAUS:
        for N in (4, 5, 6, 7, 8):
            t0 = time.time()
            ctx = ThetaContext(N, tau, TOL)
            rep = translation_check(ctx, samples=25, seed=0)
            report(
                "4",
                f"translation equivariance N={N}, tau={tau}: residual "
                f"{max(rep.max_resid_S, rep.max_resid_T):.2e} < 1e-8",
                max(rep.max_resid_S, rep.max_resid_T, rep.max_resid_inv, rep.origin_dev) < 1e-8,
            )
            assert time.time() - t0 < 10


def test_criterion_4_quadrics():
    for tau in TAUS:
        for N in (4, 5, 6, 7, 8):
            t0 = time.time()
            ctx = ThetaContext(N, tau, TOL)
            nd = NullData.numeric(ctx)
            gen = gen_odd_basis if N % 2 else lambda d: gen_even_basis(d).full
            forms = gen(nd)
            rep = verify_on_curve(forms, ctx, samples=25, seed=0)
            rank = svd_rank(forms, N)
            exact = rank_check(gen(NullData.exact(N, N)), N)
            want = N * (N - 3) // 2
            report(
                "4",
                f"quadrics N={N}, tau={tau}: {len(forms)} forms vanish "
                f"({rep.max_residual:.2e} < 1e-8), rank {rank} = exact rank {exact} = {want}",
                rep.max_residual < 1e-8 and rank == exact == want,
            )
            assert time.time() - t0 < 10


def test_criterion_4_transform():
    rng = Random(0)
    for tau in TAUS:
        for N in (4, 5, 6, 7, 8):
            t0 = time.time()
            ctx = ThetaContext(N, tau, 1e-10)
            worst = 0.0
            for _ in range(5):
                z = 0.05 + 0.5 * rng.random() + (0.05 + 0.3 * rng.random()) * tau
                t = transform_check(z, ctx)
                worst = max(worst, t.max_dev, t.max_dev_shift)
            report(
                "4",
                f"transform k-independence N={N}, tau={tau}: dev {worst:.2e} < 1e-8",
                worst < 1e-8,
            )
            assert time.time() - t0 < 10


def test_criterion_4_weierstrass_and_fibers():
    t0 = time.time()
    for tau in TAUS:
        rec = weierstrass_check_level4(ThetaContext(4, tau, 1e-10), samples=25, seed=0, rtol=1e-7)
        report(
            "4",
            f"level-4 Weierstrass model at tau={tau}: residual {rec.residual:.2e} < 1e-7",
            rec.passed,
        )
    fib = degenerate_fibers_level4()
    report("4", "level-4 degenerate fibers exact over Q(zeta_8)", fib.passed)
    assert time.time() - t0 < 10


def test_criterion_4_hesse():
    t0 = time.time()
    for tau in TAUS:
        rec = hesse_check(ORDER, ThetaContext(6, tau, 1e-10), samples=25, seed=0, rtol=1e-7)
        report(
            "4",
            f"Hesse cubic at tau={tau}: residual {rec.residual:.2e} < 1e-7, expansion exact",
            rec.passed,
        )
    assert time.time() - t0 < 30


def test_criterion_4_theta_kernel_properties():
    rng = Random(1)
    ok_quasi = ok_shift = ok_zero = ok_indep = True
    for tau in TAUS:
        for N in (4, 5, 6, 7, 8):
            ctx = ThetaContext(N, tau, 1e-10)
            tol2 = 2 * ctx.tol
            z = 0.1 + 0.7 * rng.random() + (0.1 + 0.7 * rng.random()) * tau
            k = rng.randrange(N)
            th = theta_N_eval(k, z, ctx)
            scale = max(1.0, abs(th))
            if abs(theta_N_eval(k, z + 1, ctx) - (-1) ** N * th) > tol2 * scale:
                ok_quasi = False
            f = (-1) ** N * e(-N * tau / 2 - N * z)
            v = theta_N_eval(k, z + tau, ctx)
            if abs(v - f * th) > tol2 * max(1.0, abs(v)):
                ok_quasi = False
            if abs(theta_N_eval(k, z + 1.0 / N, ctx) + e(Fraction(-k, N)) * th) > tol2 * scale:
                ok_shift = False
            w = theta_N_eval(k, z + tau / N, ctx)
            if abs(w + e(-tau / (2 * N) - z) * theta_N_eval(k - 1, z, ctx)) > 2 * tol2 * scale:
                ok_shift = False
            for z0 in theta_zero_points(N, k, tau, count=5):
                vals = [abs(theta_N_eval(j, z0, ctx)) for j in range(N)]
                if vals[k] > 1e-8 * max(vals):
                    ok_zero = False
            zs = [rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * tau for _ in range(N)]
            m = np.array([[theta_N_eval(j, zz, ctx) for j in range(N)] for zz in zs])
            m = m / np.max(np.abs(m), axis=1)[:, None]
            sv = np.linalg.svd(m, compute_uv=False)
            if sv[-1] < 1e-7 * sv[0]:
                ok_indep = False
    report("4", "quasi-periodicity laws at 2*tol", ok_quasi)
    report("4", "index-shift laws at 2*tol", ok_shift)
    report("4", "zero locations at the stated lattice points", ok_zero)
    report("4", "linear independence of the N coordinates", ok_indep)


# -- criterion 5: oracle equivalence ----------------------------------------


def test_criterion_5_null_series_vs_numeric():
    ok = True
    worst = 0.0
    for N in (4, 5, 6, 7, 8):
        ctx = ThetaContext(N, 1j, 1e-12)
        scalar = 1j ** N if N % 2 else 1.0  # exact series drop i^N for odd N
        for k in range(N):
            exact = scalar * theta_null_series(N, k, 60).eval_at_tau(1j)
            num = theta_N_eval(k, 0.0, ctx)
            worst = max(worst, abs(exact - num))
            if abs(exact - num) > 1e-9:
                ok = False
    report("5", f"theta-null series match numeric values at tau=i ({worst:.2e} < 1e-9)", ok)


def test_criterion_5_null_series_vs_direct_sum_oracle():
    ok = True
    for N in (4, 5, 6, 7, 8):
        scalar = 1j ** N if N % 2 else 1.0
        for k in range(N):
            exact = scalar * theta_null_series(N, k, 60).eval_at_tau(1j)
            oracle = direct_theta_N(N, k, 0.0, 1j, radius=80)
            if abs(exact - oracle) > 1e-9:
                ok = False
    report("5", "theta-null series match the independent direct-sum oracle", ok)


def test_criterion_5_eta_oracle_to_order_200():
    t0 = time.time()
    order = 200
    eta = eta_series(order)
    shifted = eta * PuiseuxSeries(24, {-1: 1}, 24 * order + 1)
    oracle = eta_product_oracle(order)
    diff = shifted - oracle
    ok = diff.is_zero() and diff.known_order() >= order - 1
    report("5", f"eta matches the product oracle through q^{order} ({time.time() - t0:.1f}s)", ok)
