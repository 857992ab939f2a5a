import math
from fractions import Fraction
from numbers import Number
from random import Random

import numpy as np
import pytest

import thetalab.projective
from thetalab.cli import RunConfig, run_suites
from thetalab.cyclotomic import zeta
from thetalab.projective import (
    ProjectiveMatrix,
    SL2Word,
    build_canonical_matrices,
    build_rep_generators,
    build_rho_bar,
    conjugation_table_check,
    has_projective_order,
    immersion_point,
    kernel_word,
    _apply,
    proj_residual,
    rho_theta_candidates,
    rho_theta_match,
    sl2_inv,
    translation_check,
    verify_presentation,
)
from thetalab.theta import ThetaContext, sample_points, theta_N_eval


def test_numeric_projective_scale_invariance():
    rng = Random(5)
    for _ in range(30):
        v = np.array([rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(5)])
        c = 10.0 ** rng.uniform(-6, 6) * np.exp(1j * rng.uniform(0, 6.28))
        assert proj_residual(v, c * v) < 1e-12


def test_proj_residual_one_pair_agrees_with_rows():
    # a pair of 1-D sequences is compared in plain Python, coordinates
    # given as arrays over points (here one point) with numpy; the two
    # agree to rounding
    rng = Random(8)
    for n in (1, 2, 5, 12):
        for _ in range(40):
            u = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
            c = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            noise = 10.0 ** rng.uniform(-16, 0)
            v = [c * x + noise * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for x in u]
            one = proj_residual(u, v)
            assert isinstance(one, float)
            (rows,) = proj_residual(np.array(u)[:, None], np.array(v)[:, None])
            assert abs(one - rows) < 1e-15, (u, v)
            assert proj_residual(tuple(u), np.array(v)) == one
    zero = [0j, 0j, 0j]
    assert proj_residual(zero, [1, 2j, 3]) == float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = proj_residual(np.array(zero)[:, None], np.array([1, 2j, 3])[:, None])
    assert rows.tolist() == [float("inf")]
    assert math.isnan(proj_residual([1, 2, math.nan], [1, 2, 3]))


def test_canonical_matrix_relations():
    for N in (4, 5, 6, 7, 8):
        can = build_canonical_matrices(N)
        ident = ProjectiveMatrix.identity(N)
        assert can.M_S.power(N).proj_eq(ident)
        assert can.M_T.power(N).proj_eq(ident)
        assert (can.M_inv @ can.M_inv).proj_eq(ident)
        # Heisenberg commutator: M_T M_S = zeta M_S M_T exactly
        zn = zeta(N)
        lhs = can.M_T @ can.M_S
        rhs_rows = [[zn * c for c in row] for row in (can.M_S @ can.M_T).rows]
        assert lhs.rows == ProjectiveMatrix(rhs_rows).rows
        assert lhs.proj_eq(can.M_S @ can.M_T)


def test_rep_generator_shapes():
    gens = build_rep_generators(4)
    assert gens.A0.rows[1][1] == zeta(4)
    assert gens.B0.rows[1][1] == zeta(8, 3)
    assert gens.B0.rows[2][2] == zeta(8, 4)
    with pytest.raises(ValueError):
        build_rep_generators(5)


def test_presentation_relations():
    for N in (4, 6, 8):
        rep = verify_presentation(N)
        assert all(rep.checks.values()), rep.checks
        assert rep.checks["braid"] and rep.checks["order4"] and rep.checks["kernel_word"]


def test_kernel_word_congruence():
    for N in (4, 6, 8, 10):
        m = kernel_word(N).evaluate_int()
        assert all((x - y) % (2 * N) == 0 for x, y in zip(m, (1 + N, 0, 0, 1 + N)))


def test_misprinted_word_is_not_identity():
    # with the B-exponents swapped the word leaves the kernel: exact check
    for N in (4, 6):
        gens = build_rep_generators(N)
        w = SL2Word((("B", N), ("A", -1), ("B", -1), ("A", 1), ("B", N), ("A", N - 1), ("B", 1), ("A", 1)))
        assert not w.evaluate_proj(gens.A0, gens.B0).proj_eq(ProjectiveMatrix.identity(N))


def test_conjugation_tables():
    for N in (4, 6, 8):
        table = conjugation_table_check(N)
        assert all(table.values()), table


def test_projective_order_helper():
    for N in (2, 4, 6, 8, 12):
        B0 = build_rep_generators(N).B0
        assert has_projective_order(B0, 2 * N)
        assert not has_projective_order(B0 @ B0, 2 * N)
        assert not has_projective_order(B0, N)
    assert has_projective_order(build_canonical_matrices(6).M_S, 6)
    assert not has_projective_order(build_canonical_matrices(6).M_S, 12)


def test_rho_bar_displays():
    rb = build_rho_bar(4)
    # fixed-space coordinates: first row ones, first column (1, 2, 1)
    assert [[c for c in row] for row in rb.Abar.rows] == [
        [1, 1, 1], [2, 0, -2], [1, -1, 1],
    ]
    # null-value coordinates
    assert [[c for c in row] for row in rb.Abar_null.rows] == [
        [1, 2, 1], [1, 0, -1], [1, -2, 1],
    ]
    assert rb.Bbar.rows[1][1] == zeta(8, 3)
    assert rb.Bbar.rows[2][2] == -1
    rb6 = build_rho_bar(6)
    assert [[c for c in row] for row in rb6.Abar_null.rows] == [
        [1, 2, 2, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -2, 2, -1],
    ]
    assert [rb6.Bbar.rows[i][i] for i in range(4)] == [1, zeta(12, 5), zeta(12, 8), zeta(12, 9)]


def test_rho_bar_particular_elements():
    for N in (4, 6, 8):
        rb = build_rho_bar(N)
        h = N // 2
        # B^N restricts to the alternating sign diagonal
        bn = rb.Bbar.power(N)
        want = ProjectiveMatrix(
            [
                [Fraction(-1 if i % 2 else 1) if i == j else Fraction(0) for j in range(h + 1)]
                for i in range(h + 1)
            ]
        )
        assert bn.proj_eq(want)
        # A^(-1) B^(-N) A restricts to the index reversal
        low = rb.Abar.inverse() @ rb.Bbar.power(-N) @ rb.Abar
        anti = ProjectiveMatrix(
            [
                [Fraction(1) if j == h - i else Fraction(0) for j in range(h + 1)]
                for i in range(h + 1)
            ]
        )
        assert low.proj_eq(anti)


def test_rho_bar_is_restriction():
    # the compressed classes reproduce the full-space products:
    # check (Abar Bbar)^3 = Abar^2 inherited from the braid relation
    for N in (4, 6, 8):
        rb = build_rho_bar(N)
        ab = rb.Abar @ rb.Bbar
        assert (ab @ ab @ ab).proj_eq(rb.Abar @ rb.Abar)
        assert rb.Abar.power(4).proj_eq(ProjectiveMatrix.identity(N // 2 + 1))


def test_immersion_point_basics():
    ctx = ThetaContext(4, 1j, 1e-10)
    p = immersion_point(0.27 + 0.31j, ctx)
    assert len(p) == 4
    # the coordinates divided by the first one of largest modulus
    x = theta_N_eval(range(4), 0.27 + 0.31j, ctx)
    i = max(range(4), key=lambda k: abs(x[k]))
    assert p == tuple(c / x[i] for c in x)
    # theta at z + 1 gives the same projective point
    q = immersion_point(1.27 + 0.31j, ctx)
    assert proj_residual(p, q) < 1e-8
    # the origin lands in the fixed space of the inversion
    o = immersion_point(0.0, ctx)
    can = build_canonical_matrices(4)
    assert proj_residual(can.M_inv.complex_array() @ np.array(o), o) < 1e-8
    assert proj_residual(o, [o[k] for k in (0, 3, 2, 1)]) < 1e-8


def test_translation_equivariance():
    for N in (4, 7):
        for tau in (1j, 0.3 + 1.1j, 0.5 + 1.5j):
            ctx = ThetaContext(N, tau, 1e-10)
            rep = translation_check(ctx, samples=8, seed=0)
            assert max(rep.max_resid_inv, rep.origin_dev) < 1e-8, rep
            assert rep.max_resid_S < 1e-8 and rep.max_resid_T < 1e-8


@pytest.mark.parametrize("N", (2, 3, 5, 8))
@pytest.mark.parametrize("samples", (5, 25, 65, 1100))
def test_translation_inversion_and_origin_figures(monkeypatch, N, samples):
    # the points are read one at a time up to 64 samples, else as numpy
    # units of up to 512 points (1100: three units, the last one partial);
    # the inversion is then tested on the first min(samples, 10) points of
    # the stream, one at a time at every sample count, and the origin on
    # the null vector
    ctx = ThetaContext(N, 0.3 + 1.1j, 1e-10)
    seen = []

    def counting(k, z, ctx):
        values = theta_N_eval(k, z, ctx)
        seen.append(np.size(values))
        return values

    monkeypatch.setattr(thetalab.projective, "theta_N_eval", counting)
    rep = translation_check(ctx, samples=samples, seed=3)
    # each point and its two translates, the first points at z and -z, the origin
    assert sum(seen) == N * (3 * samples + 2 * min(samples, 10) + 1)
    ks = range(N)
    zs = sample_points(Random(3), ctx.tau, min(samples, 10))
    minv = build_canonical_matrices(N).M_inv.complex_array()
    worst = max(
        proj_residual(minv @ theta_N_eval(ks, z, ctx), theta_N_eval(ks, -z, ctx)) for z in zs
    )
    a = theta_N_eval(ks, 0.0, ctx)
    sign = (-1) ** N
    dev = max(abs(a[k] - sign * a[(N - k) % N]) for k in range(N)) / max(abs(c) for c in a)
    assert (rep.max_resid_inv, rep.origin_dev) == (worst, dev)
    assert max(rep.max_resid_S, rep.max_resid_T, worst, dev) < 1e-8


def doubled_at_origin(k, z, ctx):
    """theta_N_eval with a_1 doubled at the origin only (no sample is 0)."""
    values = theta_N_eval(k, z, ctx)
    if isinstance(z, Number) and z == 0:
        values = [v * w for v, w in zip(values, (1, 2, 1, 1))]
    return values


@pytest.mark.parametrize("fault", ("inversion", "origin"))
def test_translation_report_fails_on_either_new_figure(monkeypatch, fault):
    # the verdicts are the records the translation suite builds from the
    # report's figures, at tolerance 10 * tol
    can = build_canonical_matrices(4)
    record = {"inversion": "translation.inversion", "origin": "translation.origin-in-H"}[fault]
    for samples in (5, 65):  # one point at a time, and numpy units
        cfg = RunConfig(N=4, tau=1j, tol=1e-9, samples=samples)
        good = {r.name: r for r in run_suites(cfg, "translation")}
        with monkeypatch.context() as patch:
            if fault == "inversion":  # M_T in place of M_inv
                patch.setattr(
                    thetalab.projective, "build_canonical_matrices",
                    lambda N: can._replace(M_inv=can.M_T),
                )
            else:
                patch.setattr(thetalab.projective, "theta_N_eval", doubled_at_origin)
            bad = {r.name: r for r in run_suites(cfg, "translation")}
        assert bad["translation.equivariance"] == good["translation.equivariance"]
        assert bad[record].residual > 0.1
        assert all(r.passed for r in good.values())
        assert [name for name, r in bad.items() if not r.passed] == [record]


def test_translation_at_origin():
    # special case z = 0 of the translation law
    N = 4
    ctx = ThetaContext(N, 1j, 1e-10)
    can = build_canonical_matrices(N)
    base = np.array([theta_N_eval(k, 0.0, ctx) for k in range(N)])
    shifted = np.array([theta_N_eval(k, 1.0 / N, ctx) for k in range(N)])
    mt_inv = can.M_T.inverse().complex_array()
    assert proj_residual(mt_inv @ base, shifted) < 1e-9


def test_rho_theta_matching():
    for N in (4, 6):
        ctx = ThetaContext(N, 1j, 1e-10)
        ra = rho_theta_match(ctx, "A", samples=4)
        rb = rho_theta_match(ctx, "B", samples=4)
        assert ra.residual < 1e-8 and rb.residual < 1e-8
        # the matched classes sit in the documented cosets
        assert ra.best.startswith("A0")
        assert rb.best.startswith("B0")


@pytest.mark.parametrize("N", (2, 4, 6))
@pytest.mark.parametrize("kind", ("A", "B"))
def test_rho_theta_candidates_act_as_their_exact_products(N, kind):
    # each candidate's factors, applied to a vector in turn, give the
    # complex values of the exact matrix product named by its label
    can = build_canonical_matrices(N)
    gens = build_rep_generators(N)
    base = gens.A0 if kind == "A" else gens.B0
    msh, mth = can.M_S.power(N // 2), can.M_T.power(N // 2)
    ts = {"": ProjectiveMatrix.identity(N), "*MS^h": msh, "*MT^h": mth, "*MS^h*MT^h": msh @ mth}
    v = [complex(1 + j, 0.5 - j * j) for j in range(N)]
    candidates = rho_theta_candidates(N, kind)
    assert len(candidates) == 8
    for label, factors in candidates.items():
        inverse, name = label[2:].startswith("^-1"), label[2:].removeprefix("^-1")
        want = ((base.inverse() if inverse else base) @ ts[name]).complex_array() @ np.array(v)
        got = v
        for rows in factors:
            got = _apply(rows, got)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12 * max(abs(want)), label


def test_translation_matched_power_is_reported():
    ctx = ThetaContext(4, 1j, 1e-10)
    rep = translation_check(ctx, samples=5, seed=0)
    assert rep.matched_T_power == -1  # point action inverts the diagonal


def rho_bar_image(N: int, word, null_coords: bool = False) -> ProjectiveMatrix:
    """The fixed-space image of an SL_2(Z) word."""
    rb = build_rho_bar(N)
    a = rb.Abar_null if null_coords else rb.Abar
    b = rb.Bbar_null if null_coords else rb.Bbar
    return word.evaluate_proj(a, b)


def test_rho_bar_commutes_with_restriction():
    # the compressed image of a word equals the word in the compressed
    # generators, for several words mixing both generators
    from thetalab.projective import SL2Word, build_rep_generators, restrict_to_fixed_space

    for N in (4, 6):
        gens = build_rep_generators(N)
        for letters in (
            (("A", 1), ("B", 2)),
            (("B", 1), ("A", 1), ("B", -1)),
            (("A", -1), ("B", N), ("A", 1)),
        ):
            w = SL2Word(letters)
            full = w.evaluate_proj(gens.A0, gens.B0)
            assert restrict_to_fixed_space(full, N).proj_eq(rho_bar_image(N, w))


def test_rho_bar_image_of_lower_triangular():
    # the word for (1, 0; N, 1) restricts to the antidiagonal flip
    from thetalab.projective import SL2Word

    for N in (4, 6, 8):
        h = N // 2
        w = SL2Word((("A", -1), ("B", -N), ("A", 1)))
        assert w.evaluate_int() == (1, 0, N, 1)
        anti = ProjectiveMatrix(
            [
                [Fraction(1) if j == h - i else Fraction(0) for j in range(h + 1)]
                for i in range(h + 1)
            ]
        )
        assert rho_bar_image(N, w, null_coords=True).proj_eq(anti)


@pytest.mark.parametrize("N", range(2, 17, 2))
def test_kernel_word_halves_agree_with_the_whole_word(N):
    A0, B0 = build_rep_generators(N)
    ident = ProjectiveMatrix.identity(N)
    word = kernel_word(N)
    assert word.evaluate_proj(A0, B0).proj_eq(ident)
    assert word.maps_to_scalar(A0, B0)
    half = len(word.letters) // 2
    w1 = SL2Word(word.letters[:half]).evaluate_proj(A0, B0)
    w2 = SL2Word(word.letters[half:]).evaluate_proj(A0, B0)
    assert (w1 @ w2).proj_eq(word.evaluate_proj(A0, B0))
    assert word.inverse().evaluate_int() == sl2_inv(word.evaluate_int())
    # negative control: one exponent changed
    for i, (sym, k) in enumerate(word.letters):
        letters = list(word.letters)
        letters[i] = (sym, k + 1)
        bad = SL2Word(tuple(letters))
        assert not bad.evaluate_proj(A0, B0).proj_eq(ident)
        assert not bad.maps_to_scalar(A0, B0), (N, i)
