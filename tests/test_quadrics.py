from fractions import Fraction

import pytest

import thetalab.cli
from conftest import forms_proportional, monomial_basis, svd_rank
from thetalab.cli import RunConfig, _suite_quadrics
from thetalab.quadrics import (
    EvenBasis,
    NullData,
    QuadraticForm,
    gen_even_basis,
    gen_even_s_basis,
    gen_odd_basis,
    half_period_bound,
    rank_check,
    verify_on_curve,
)
from thetalab.series import PuiseuxSeries
from thetalab.theta import ThetaContext, theta_half_series

TAUS = (1j, 0.3 + 1.1j)


def numeric_nulls(N, tau=0.3 + 1.1j):
    return NullData.numeric(ThetaContext(N, tau, 1e-12))


def test_form_normalization_and_class():
    f = QuadraticForm(5, {(7, 3): Fraction(1), (0, 0): Fraction(2)})
    assert (2, 3) in f.coeffs
    assert f.graded_class() == 0
    g = f.shift(1)
    assert g.graded_class() == 2
    mixed = QuadraticForm(5, {(0, 0): 1, (0, 1): 1})
    assert mixed.graded_class() is None
    assert len(monomial_basis(4)) == 10  # the columns of the SVD rank oracle on P^3


def test_shift_moves_class_by_two():
    nd = numeric_nulls(8)
    eb = gen_even_basis(nd)
    for f in eb.V0:
        assert f.graded_class() == 0
        assert f.shift(1).graded_class() == 2
    for f in eb.V1:
        assert f.graded_class() == 1
        assert f.shift(1).graded_class() == 3


def test_full_system_class_counts():
    # per-class counts: (N-2)/2 on even classes, (N-4)/2 on odd ones
    for N in (4, 6, 8):
        nd = numeric_nulls(N)
        full = gen_even_basis(nd).full
        by_class = {}
        for f in full:
            by_class.setdefault(f.graded_class(), []).append(f)
        for k, fs in by_class.items():
            want = (N - 2) // 2 if k % 2 == 0 else (N - 4) // 2
            assert len(fs) == want, (N, k, len(fs))


def test_bianchi_form_for_level_5():
    nd = NullData.exact(5, 50)
    forms = gen_odd_basis(nd)
    assert len(forms) == 5
    a = nd.a
    bianchi = QuadraticForm(
        5,
        {
            (0, 0): a[1] * a[2],
            (2, 3): -(a[1] * a[1]),
            (1, 4): a[2] * a[2],
        },
    )
    assert forms_proportional(forms[0], bianchi)
    # every member of the system is an index shift of the same class of form
    for s, f in enumerate(forms):
        assert forms_proportional(f, bianchi.shift(s))


def test_level_7_base_forms():
    nd = NullData.exact(7, 60)
    forms = gen_odd_basis(nd)
    assert len(forms) == 14
    a = nd.a
    f1 = QuadraticForm(
        7, {(0, 0): a[1] * a[2], (3, 4): -(a[2] * a[2]), (2, 5): a[3] * a[3]}
    )
    f2 = QuadraticForm(
        7, {(0, 0): a[2] * a[3], (3, 4): -(a[1] * a[1]), (1, 6): a[3] * a[3]}
    )
    assert forms_proportional(forms[0], f1)
    assert forms_proportional(forms[1], f2)


def test_even_sizes():
    for N, v0, v1, full in ((4, 1, 0, 2), (6, 2, 1, 9), (8, 3, 2, 20)):
        nd = numeric_nulls(N)
        eb = gen_even_basis(nd)
        assert (len(eb.V0), len(eb.V1), len(eb.full)) == (v0, v1, full)
        sb = gen_even_s_basis(nd)
        assert (len(sb.V0), len(sb.V1)) == (v0, v1)


def test_level_8_contains_displayed_form():
    nd = NullData.exact(8, 70)
    eb = gen_even_basis(nd)
    a = nd.a
    # a_2^2 X_0^2 + a_2^2 X_4^2 = (a_0^2 + a_4^2) X_2 X_6
    want = QuadraticForm(
        8,
        {
            (0, 0): a[2] * a[2],
            (4, 4): a[2] * a[2],
            (2, 6): -(a[0] * a[0] + a[4] * a[4]),
        },
    )
    assert any(forms_proportional(f, want) for f in eb.V0)


def test_parity_errors():
    with pytest.raises(ValueError):
        gen_odd_basis(numeric_nulls(6))
    with pytest.raises(ValueError):
        gen_even_basis(numeric_nulls(5, 1j))
    nd = NullData.exact(6, 50)
    with pytest.raises(ValueError):
        gen_even_s_basis(NullData(6, nd.a, None))  # no half-period values


def test_vanishing_on_curve_all_levels():
    for N in (4, 5, 6, 7, 8):
        for tau in TAUS + (0.5 + 1.5j,):
            ctx = ThetaContext(N, tau, 1e-12)
            nd = NullData.numeric(ctx)
            forms = gen_odd_basis(nd) if N % 2 else gen_even_basis(nd).full
            rep = verify_on_curve(forms, ctx, samples=12, seed=1)
            assert rep.max_residual < 1e-9, (N, tau, rep.max_residual)
            assert svd_rank(forms, N) == N * (N - 3) // 2


def test_vanishing_level5_at_tau_2i():
    ctx = ThetaContext(5, 2j, 1e-12)
    nd = NullData.numeric(ctx)
    forms = gen_odd_basis(nd)
    rep = verify_on_curve(forms, ctx, samples=25, seed=0)
    assert rep.max_residual < 1e-9 and len(forms) == 5


def test_s_basis_vanishes_and_spans():
    for N in (4, 6, 8):
        ctx = ThetaContext(N, 1j, 1e-12)
        nd = NullData.numeric(ctx)
        sb = gen_even_s_basis(nd)
        rep = verify_on_curve(sb.V0 + sb.V1, ctx, samples=10, seed=2)
        assert rep.max_residual < 1e-9
        eb = gen_even_basis(nd)
        r_a = svd_rank(eb.V0, N)
        r_s = svd_rank(sb.V0, N)
        r_stacked = svd_rank(eb.V0 + sb.V0, N)
        assert r_a == r_s == r_stacked == N // 2 - 1
        r1_stacked = svd_rank(eb.V1 + sb.V1, N)
        assert r1_stacked == len(eb.V1)


def test_rank_ignores_duplicates():
    forms = gen_even_basis(numeric_nulls(6)).full
    assert svd_rank(forms + [forms[0]], 6) == svd_rank(forms, 6)
    forms = gen_even_basis(NullData.exact(6, 6)).full
    assert rank_check(forms + [forms[0]], 6) == rank_check(forms, 6) == len(forms)
    assert rank_check([], 6) == 0


def test_origin_substitution_vanishes_exactly():
    for N in (4, 6, 8):
        nd = NullData.exact(N, 50)
        for f in gen_even_basis(nd).full:
            assert f.evaluate(nd.a).is_zero()
    for N in (5, 7):
        nd = NullData.exact(N, 50)
        for f in gen_odd_basis(nd):
            assert f.evaluate(nd.a).is_zero()


def _quadratic_dedupe(forms):
    """Test-only dedupe: the forms no earlier kept form is proportional
    to, in input order, comparing every pair."""
    kept = []
    for f in forms:
        if not any(forms_proportional(f, g) for g in kept):
            kept.append(f)
    return kept


def test_full_system_is_the_deduplicated_shift_orbit():
    # the orbit construction keeps exactly what a search over all N shifts
    # of the base forms keeps, form for form and in the same order
    for N in range(4, 17):
        nd = NullData.exact(N, N + 2)
        if N % 2:
            if N < 5:
                continue
            full = gen_odd_basis(nd)
            base = full[: (N - 3) // 2]
        else:
            eb = gen_even_basis(nd)
            full, base = eb.full, eb.V0 + eb.V1
        want = _quadratic_dedupe([f.shift(s) for s in range(N) for f in base])
        assert [f.coeffs for f in full] == [f.coeffs for f in want], N
        assert len(full) == N * (N - 3) // 2
    # proportional forms with one support, and forms with different supports
    f = QuadraticForm(6, {(0, 0): Fraction(1), (1, 5): Fraction(2)})
    g = QuadraticForm(6, {(0, 0): Fraction(3), (1, 5): Fraction(6)})
    h = QuadraticForm(6, {(0, 0): Fraction(1), (2, 4): Fraction(2)})
    empty = QuadraticForm(6, {})
    assert forms_proportional(f, g) and not forms_proportional(f, h)
    assert forms_proportional(h, h.shift(6)) and forms_proportional(empty, QuadraticForm(6, {}))
    forms = [f, h, g, empty, QuadraticForm(6, {}), h.shift(6)]
    assert _quadratic_dedupe(forms) == [f, h, empty]


@pytest.mark.parametrize("N", [8, 12, 16])
@pytest.mark.parametrize("im_tau", [2, 5, 10])
def test_full_rank_when_nulls_span_many_magnitudes(N, im_tau):
    # at Im tau = 10 and N = 8 the nulls run from 1e-27 to 1, so the
    # coefficients of distinct forms differ by up to 40 orders of magnitude
    nd = NullData.numeric(ThetaContext(N, complex(0, im_tau), 1e-10))
    forms = gen_even_basis(nd).full
    assert len(forms) == N * (N - 3) // 2
    assert svd_rank(forms, N) == N * (N - 3) // 2


@pytest.mark.parametrize("N, tau, tol", [(8, 0.3 + 1.1j, 1e-10), (12, 1j, 1e-10), (16, 0.5j, 1e-11)])
def test_one_pass_residuals_equal_separate_calls(N, tau, tol):
    ctx = ThetaContext(N, tau, tol)
    nd = NullData.numeric(ctx)
    forms = gen_even_basis(nd).full
    sb = gen_even_s_basis(nd)
    s_forms = sb.V0 + sb.V1
    everything = forms + s_forms
    for n in (25, 130):  # one point at a time, numpy blocks
        both = verify_on_curve(everything, ctx, samples=n, seed=4)
        for part, alone in (
            (both.part(0, len(forms)), verify_on_curve(forms, ctx, n, 4)),
            (both.part(len(forms), len(everything)), verify_on_curve(s_forms, ctx, n, 4)),
        ):
            assert part == alone
            assert part.max_residual > 0
        assert both.max_residual == max(both.form_residuals)
        # a form's residual does not depend on the forms beside it
        for i in (0, len(forms) - 1, len(forms) + 1):
            alone = verify_on_curve([everything[i]], ctx, n, 4)
            assert alone.max_residual == both.form_residuals[i]


def test_constant_zero_form_passes_trivially():
    ctx = ThetaContext(4, 1j, 1e-10)
    zero_form = QuadraticForm(4, {})
    rep = verify_on_curve([zero_form], ctx, samples=3, seed=0)
    assert rep.max_residual == 0.0 and rep.form_residuals == (0.0,)


# -- the exact rank and span certificates ------------------------------------


def test_exact_null_data_carries_the_half_period_series_at_even_n():
    assert NullData.exact(5, 5).s is None
    assert NullData.exact(6, 6).s == tuple(theta_half_series(6, k, 6) for k in range(6))


@pytest.mark.parametrize("N", range(4, 17))
def test_exact_ranks_equal_the_svd_oracle(N):
    numeric, exact = numeric_nulls(N, 1j), NullData.exact(N, N)
    if N % 2:
        pairs = [(gen_odd_basis(numeric), gen_odd_basis(exact))]
    else:
        eb, sb = gen_even_basis(numeric), gen_even_s_basis(numeric)
        ebx, sbx = gen_even_basis(exact), gen_even_s_basis(exact)
        pairs = [(eb.full, ebx.full), (eb.V0, ebx.V0), (sb.V0, sbx.V0),
                 (eb.V0 + sb.V0, ebx.V0 + sbx.V0)]
        # the two half-period points bound the stacked rank from above
        assert half_period_bound(ebx.V0 + sbx.V0, exact.s, N) == (N // 2 - 1, None)
    for numeric_forms, exact_forms in pairs:
        assert rank_check(exact_forms, N) == svd_rank(numeric_forms, N)
    assert rank_check(pairs[0][1], N) == N * (N - 3) // 2


def test_rank_check_reads_only_known_leading_terms():
    with pytest.raises(TypeError):
        rank_check(gen_even_basis(numeric_nulls(6)).full, 6)
    q = PuiseuxSeries(1, {1: 1}, 5)  # q + O(q^5)
    # a coefficient known only modulo q^1 could hide a term at the leading q^1
    with pytest.raises(ValueError):
        rank_check([QuadraticForm(4, {(0, 0): q, (1, 1): PuiseuxSeries.zero(1)})], 4)
    with pytest.raises(ValueError):
        rank_check([QuadraticForm(4, {(0, 0): PuiseuxSeries.zero(3)})], 4)
    # known past q^1, the O(q^2) coefficient is zero in the leading row
    assert rank_check([QuadraticForm(4, {(0, 0): q, (1, 1): PuiseuxSeries.zero(2)})], 4) == 1
    # a lower bound: independent forms with proportional leading rows
    one = PuiseuxSeries.one(5)
    forms = [QuadraticForm(4, {(0, 0): one, (1, 1): q}), QuadraticForm(4, {(0, 0): one})]
    assert rank_check(forms, 4) == 1
    with pytest.raises(ValueError):
        rank_check(forms, 5)


@pytest.mark.parametrize("N", [8, 9])
@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_rank_record_fails_on_a_dropped_or_repeated_form(monkeypatch, N, change):
    def mutated(forms):
        return forms[1:] if change == "drop" else forms + forms[:1]

    if N % 2:
        gen = thetalab.cli.gen_odd_basis
        monkeypatch.setattr(thetalab.cli, "gen_odd_basis", lambda nd: mutated(gen(nd)))
    else:
        gen = thetalab.cli.gen_even_basis

        def even(nd):
            eb = gen(nd)
            return EvenBasis(eb.V0, eb.V1, mutated(eb.full))

        monkeypatch.setattr(thetalab.cli, "gen_even_basis", even)
    records = {r.name: r for r in _suite_quadrics(RunConfig(N=N))}
    assert records["quadrics.rank"].status == "fail"


@pytest.mark.parametrize("N", [4, 8, 12])
def test_doubled_coefficient_breaks_the_vanishing_certificate(N):
    exact = NullData.exact(N, N)
    v0, s_v0 = gen_even_basis(exact).V0, gen_even_s_basis(exact).V0
    for which in (0, len(v0)):  # eb.V0[0] and sb.V0[0] in the stacked list
        f = (v0 + s_v0)[which]
        for m, c in f.coeffs.items():
            stacked = v0 + s_v0
            stacked[which] = QuadraticForm(N, {**f.coeffs, m: 2 * c})
            bound, witness = half_period_bound(stacked, exact.s, N)
            assert bound == N // 2 + 1  # the number of class-0 monomials
            assert witness.startswith(f"form {which} at p"), witness
            assert "coefficient" in witness


def test_half_period_bound_counts_independent_point_values():
    # X_0^2 - X_2^2 vanishes at p = (1, 0, 1, 0) and at p' = p, whose
    # monomial values are dependent: the bound is 2 - 1, not 2 - 2
    one, zero = PuiseuxSeries.one(4), PuiseuxSeries.zero(4)
    f = QuadraticForm(4, {(0, 0): one, (2, 2): -one})
    assert half_period_bound([f], (one, zero, one, zero), 4) == (1, None)


def test_span_record_names_the_witness(monkeypatch):
    gen = thetalab.cli.gen_even_s_basis

    def doubled(nd):
        sb = gen(nd)
        f = sb.V0[0]
        m = max(f.coeffs)
        return sb._replace(V0=[QuadraticForm(f.N, {**f.coeffs, m: 2 * f.coeffs[m]})] + sb.V0[1:])

    monkeypatch.setattr(thetalab.cli, "gen_even_s_basis", doubled)
    records = {r.name: r for r in _suite_quadrics(RunConfig(N=8))}
    span = records["quadrics.s-basis.span"]
    assert span.status == "fail"
    assert span.detail.startswith("graded piece 0: ranks 3/3/stacked ")
    assert "; stacked form 3 at p" in span.detail


def _terms(N, *terms):
    """(monomial, coefficient) pairs with each monomial written i <= j mod N,
    in first-appearance order; terms of one monomial are added (at N = 4,
    X_j X_(N-j) and X_(h+j) X_(h-j) are one monomial)."""
    out: dict = {}
    for (i, j), c in terms:
        key = tuple(sorted((i % N, j % N)))
        out[key] = out[key] + c if key in out else c
    return list(out.items())


@pytest.mark.parametrize("N", range(4, 21, 2))
def test_even_forms_follow_their_displayed_formulas(N):
    # the docstring formulas of gen_even_basis and gen_even_s_basis, term by
    # term in their monomial order, with exact nulls and half-period values
    nd = NullData.exact(N, N)
    a, s, h = nd.a, nd.s, N // 2
    v0 = [_terms(N, ((0, 0), a[j] * a[j]), ((h, h), a[h + j] * a[h + j]),
                 ((j, N - j), -(a[0] * a[0])), ((h + j, h - j), -(a[h] * a[h])))
          for j in range(1, h)]
    v1 = [_terms(N, ((0, 1), a[j] * a[j + 1]), ((h, h + 1), a[h + j] * a[h + j + 1]),
                 ((j + 1, N - j), -(a[0] * a[1])), ((h + j + 1, h - j), -(a[h] * a[h + 1])))
          for j in range(1, h - 1)]
    full = [_terms(N, *(((i + t, k + t), c) for (i, k), c in form))
            for t in range(h) for form in v0 + v1]
    s0 = [_terms(N, ((0, 0), s[j] * s[N - j]), ((h, h), s[h - j] * s[h + j]),
                 ((h - j, h + j), -(s[h] * s[h])))
          for j in range(1, h)]
    s1 = [_terms(N, ((0, 1), s[j + 1] * s[N - j]), ((h, h + 1), s[h - j] * s[h + j + 1]),
                 ((h - j, h + j + 1), -(s[h] * s[h + 1])))
          for j in range(1, h - 1)]
    eb, sb = gen_even_basis(nd), gen_even_s_basis(nd)
    for got, want in ((eb.V0, v0), (eb.V1, v1), (eb.full, full), (sb.V0, s0), (sb.V1, s1)):
        assert [list(f.coeffs.items()) for f in got] == want
