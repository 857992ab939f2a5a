"""Batch driver: q-expansion printing, verification suites, invariants.

Exit codes: 0 everything passed, 1 at least one check failed, 2 usage
or configuration error, 141 (128 + SIGPIPE) stdout closed before the
output was written.  Reports are deterministic for a fixed
configuration: sampling is seeded and records are assembled in name
order."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from random import Random
from typing import Callable, NamedTuple

from .congruence import (
    MAX_LEVEL, SubgroupSpec, enum_structures_above, gamma_n2n_index_cusps, group_tower_check,
    subgroup_invariants,
)
from .identities import (
    HESSE_LEVEL,
    NULL_CURVE_RELATIONS,
    QUOTIENT_MODELS,
    SERIES_LEVELS,
    IdentityRecord,
    b1_series,
    b4_series,
    degenerate_fibers_level4,
    eta_quotient_check,
    has_null_invariance,
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
from .projective import conjugation_table_check, rho_theta_match, translation_check, verify_presentation
from .quadrics import (
    NullData,
    gen_even_basis,
    gen_even_s_basis,
    gen_odd_basis,
    half_period_bound,
    rank_check,
    verify_on_curve,
)
from .series import PuiseuxSeries, eta_series
from .theta import ThetaContext, theta_null_series, transform_check


class ConfigError(Exception):
    pass


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: a shell's code for a command whose reader went away


MIN_TOL = 1e-15  # numeric checks pass below 10 * tol; a smaller tol asks for less than rounding error


def default_order(order: int | None, level: int) -> int:
    """The series order asked for, or the default for a level."""
    return order if order is not None else max(50, 8 * level)


class RunConfig:
    """The settings of one verify run; `validate` checks them."""

    __slots__ = ("N", "order", "tau", "tol", "samples", "seed", "fmt")

    def __init__(
        self, N: int = 4, order: int | None = None, tau: complex = 1j, tol: float = 1e-9,
        samples: int = 25, seed: int = 0, fmt: str = "text",
    ):
        self.N, self.order, self.tau, self.tol = N, order, tau, tol
        self.samples, self.seed, self.fmt = samples, seed, fmt

    def series_order(self) -> int:
        return default_order(self.order, self.N)

    def context(self) -> ThetaContext:
        return ThetaContext(self.N, self.tau, min(self.tol, 1e-10))

    def validate(self):
        """Check the settings, then reduce Re tau modulo 8N.

        theta_k(z, tau + 8N) = theta_k(z, tau) for every k and z, so every
        record states the same fact, and the kernel's phases
        (1/2) m^2 Re(N tau) stay small enough to keep their digits."""
        if not (math.isfinite(self.tau.real) and math.isfinite(self.tau.imag)):
            raise ConfigError("--tau-re and --tau-im must be finite")
        if self.tau.imag < 0.4:
            raise ConfigError("Im tau must be >= 0.4 (raise tol and use the API directly)")
        if not (math.isfinite(self.tol) and self.tol >= MIN_TOL):
            raise ConfigError(f"--tol must be a finite number >= {MIN_TOL:g} (double precision)")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.N > 0:  # fmod(x, 0) raises, and no suite applies at N <= 1 anyway
            self.tau = complex(math.fmod(self.tau.real, 8 * self.N), self.tau.imag)


# qexp objects: (level, build(order, N, k)).  The level sets the default
# order and the least one, 8 * level; theta-null is at level N (4 unless
# --N is given), the only object that reads --N and --k, and eta has
# none.  Each builder is looked up by name when called, so a rebinding
# of the module's names (as perfbench/tracer.py does) reaches it.
_QEXP_OBJECTS = {
    "theta-null": (None, lambda order, N, k: theta_null_series(N, k, order)),
    "eta": (0, lambda order, N, k: eta_series(order)),
    "lambda": (4, lambda order, N, k: lam_series(order)),
    "X6": (6, lambda order, N, k: x6_series(order)),
    "Y6": (6, lambda order, N, k: y6_series(order)),
    "b1": (8, lambda order, N, k: b1_series(order)),
    "b4": (8, lambda order, N, k: b4_series(order)),
    "phi5": (5, lambda order, N, k: phi5_series(order)),
    "mu6": (6, lambda order, N, k: mu6_series(order)),  # prints the 3*mu expansion
}


def series_for_object(obj: str, N: int | None, order: int | None, k: int | None) -> PuiseuxSeries:
    if obj not in _QEXP_OBJECTS:
        raise ConfigError(f"unknown object {obj!r}")
    level, build = _QEXP_OBJECTS[obj]
    if level is not None:
        for flag, value in (("--N", N), ("--k", k)):
            if value is not None:
                raise ConfigError(f"{flag} is read only by theta-null, not by {obj}")
    else:
        N = 4 if N is None else N
        if k is None:
            raise ConfigError(f"{obj} needs --k")
        if N < 2:
            raise ConfigError(f"{obj} needs --N >= 2")
        level = N
    order = default_order(order, level)
    if order < max(1, 8 * level):
        raise ConfigError(f"order must be >= {max(1, 8 * level)} for object {obj}")
    return build(order, N, k)


# ---------------------------------------------------------------------------
# verification suites


def _suite_identities(cfg: RunConfig) -> list[IdentityRecord]:
    N = cfg.N
    order = cfg.series_order()
    out: list[IdentityRecord] = []
    if N in NULL_CURVE_RELATIONS:
        out += theta_null_curve_check(N, order)
    out += eta_quotient_check(order, N)
    if N in QUOTIENT_MODELS:
        out += quotient_model_check(N, order)
    if N == HESSE_LEVEL:
        out.append(hesse_check(order, cfg.context(), cfg.samples, cfg.seed))
    if has_null_invariance(N):
        out.append(null_invariance_check(N, cfg.tau))
    return out


def _suite_quadrics(cfg: RunConfig) -> list[IdentityRecord]:
    """The sampled vanishing records at cfg.tau, and the rank records from
    exact forms, which do not depend on tau.  The exact nulls and
    half-period values are known to q^N: past the leading term of every
    coefficient (whose valuation is at most N/4), and as deep as the
    vanishing certificate of `half_period_bound` goes."""
    N = cfg.N
    ctx = cfg.context()
    nd = NullData.numeric(ctx)
    exact = NullData.exact(N, N)
    expected = N * (N - 3) // 2
    if N % 2:
        forms, s_forms = gen_odd_basis(nd), []
        exact_forms = gen_odd_basis(exact)
    else:
        eb = gen_even_basis(nd)
        sb = gen_even_s_basis(nd)
        forms, s_forms = eb.full, sb.V0 + sb.V1
        exact_eb = gen_even_basis(exact)
        exact_forms = exact_eb.full
    # one pass over the samples checks both form sets
    both = verify_on_curve(forms + s_forms, ctx, cfg.samples, cfg.seed)
    rep = both.part(0, len(forms))
    rank = rank_check(exact_forms, N)  # a lower bound, exact when it is the number of forms
    out = [
        IdentityRecord.numeric(
            "quadrics.on-curve", N, rep.max_residual, cfg.tol * 10,
            f"{rep.n_forms} forms, {rep.samples} samples",
        ),
        IdentityRecord.count(
            "quadrics.rank", N, rank == len(exact_forms) == expected,
            f"rank {rank}, expected {expected}" if rank == len(exact_forms)
            else f"rank >= {rank} of {len(exact_forms)} forms, expected {expected}",
        ),
    ]
    if N % 2 == 0:
        rep_s = both.part(len(forms), len(forms) + len(s_forms))
        exact_v0 = gen_even_s_basis(exact).V0
        stacked = exact_eb.V0 + exact_v0
        r_a = rank_check(exact_eb.V0, N)
        r_s = rank_check(exact_v0, N)
        r_both = rank_check(stacked, N)
        # r_both is exact when it meets the upper bound
        upper, witness = half_period_bound(stacked, exact.s, N)
        out += [
            IdentityRecord.numeric(
                "quadrics.s-basis.on-curve", N, rep_s.max_residual, cfg.tol * 10,
                f"{rep_s.n_forms} forms",
            ),
            IdentityRecord.count(
                "quadrics.s-basis.span", N, r_a == r_s == r_both == upper == N // 2 - 1,
                f"graded piece 0: ranks {r_a}/{r_s}/stacked {r_both}"
                + (f"; stacked {witness}" if witness else ""),
            ),
        ]
    return out


def _suite_rep(cfg: RunConfig) -> list[IdentityRecord]:
    N = cfg.N
    rep = verify_presentation(N)
    names = {"braid": "(A0 B0)^3 = A0^2", "order4": "A0^4 = I",
             "kernel_word": "kernel word = I",
             "kernel_word_congruence": "integer congruence behind the kernel word"}
    out = [IdentityRecord.count(f"rep.{key}", N, ok, names[key]) for key, ok in rep.checks.items()]
    conj = conjugation_table_check(N)
    out.append(
        IdentityRecord.count(
            "rep.conjugation-table", N, all(conj.values()),
            ", ".join(f"{k}={v}" for k, v in sorted(conj.items())),
        )
    )
    return out


def _suite_translation(cfg: RunConfig) -> list[IdentityRecord]:
    N = cfg.N
    tol = cfg.tol * 10
    tr = translation_check(cfg.context(), cfg.samples, cfg.seed)
    return [
        IdentityRecord.numeric(
            "translation.equivariance", N, max(tr.max_resid_S, tr.max_resid_T), tol,
            f"translate by tau/N vs M_S: {tr.max_resid_S:.3e}; "
            f"translate by 1/N vs M_T^(-1): {tr.max_resid_T:.3e}",
        ),
        IdentityRecord.numeric(
            "translation.inversion", N, tr.max_resid_inv, tol, "theta at -z vs M_inv action"
        ),
        IdentityRecord.numeric(
            "translation.origin-in-H", N, tr.origin_dev, tol,
            f"origin is fixed by the inversion: X_k = {'' if N % 2 == 0 else '-'}X_(N-k)",
        ),
    ]


def _suite_transform(cfg: RunConfig) -> list[IdentityRecord]:
    N = cfg.N
    ctx = cfg.context()
    # its own draws: the box [0.05, 0.65] + [0.02, 0.27] tau is not the
    # distribution of the sample stream (theta.sample_stream)
    rng = Random(cfg.seed)
    worst = worst_shift = unit_dev = 0.0
    for _ in range(min(cfg.samples, 8)):
        z = 0.05 + 0.6 * rng.random() + (0.02 + 0.25 * rng.random()) * cfg.tau
        t = transform_check(z, ctx)
        worst = max(worst, t.max_dev)
        worst_shift = max(worst_shift, t.max_dev_shift)
        unit_dev = max(unit_dev, abs(abs(t.ratios_shift[0]) - 1.0))
    out = [
        IdentityRecord.numeric(
            "transform.k-independence", N, max(worst, worst_shift), cfg.tol * 10,
            f"tau->-1/tau dev {worst:.3e}; tau->tau+1 dev {worst_shift:.3e}; "
            f"|r'| - 1 = {unit_dev:.3e}",
            # the tau -> tau + 1 constant is a root of unity: |r'| = 1
            ok=unit_dev < cfg.tol * 10,
        )
    ]
    if N % 2 == 0:
        for kind in ("A", "B"):
            m = rho_theta_match(ctx, kind, samples=4, seed=cfg.seed)
            ok = m.residual < cfg.tol * 10
            out.append(
                IdentityRecord.count(
                    f"transform.rho-theta.{kind}", N, ok,
                    f"matched candidate {m.best if ok else None}", residual=m.residual,
                )
            )
    return out


def _suite_weierstrass(cfg: RunConfig) -> list[IdentityRecord]:
    ctx = cfg.context()
    return [
        weierstrass_check_level4(ctx, cfg.samples, cfg.seed, max(cfg.tol * 100, 1e-7)),
        degenerate_fibers_level4(),
    ]


def _suite_structures(cfg: RunConfig) -> list[IdentityRecord]:
    N = cfg.N
    res = enum_structures_above(N)
    tower = group_tower_check(N)
    inv = subgroup_invariants(SubgroupSpec("gammaN2N", N))
    return [
        IdentityRecord.count(
            "structures.count", N, (len(res.structures), res.class_count) == (8, 4),
            f"{len(res.structures)} refined structures in {res.class_count} classes",
        ),
        IdentityRecord.count(
            "structures.tower", N, all(tower.checks.values()),
            f"quotient orders {tower.quotient_orders}",
        ),
        IdentityRecord.count(
            "structures.invariants", N,
            (inv.index_psl, inv.cusps) == gamma_n2n_index_cusps(N),
            f"index {inv.index_psl}, cusps {inv.cusps}, genus {inv.genus}",
        ),
    ]


_SUITES = {
    "identities": _suite_identities,
    "quadrics": _suite_quadrics,
    "rep": _suite_rep,
    "translation": _suite_translation,
    "transform": _suite_transform,
    "weierstrass": _suite_weierstrass,
    "structures": _suite_structures,
}


class Scope(NamedTuple):
    applies: Callable[[int], bool]  # of the level N
    error: str  # the ConfigError for any other N; {N} is filled in
    series: bool = False  # reads exact series, known to order >= 8N


# where each suite applies: `all` runs the suites that apply at N, and a
# single suite outside its levels is a configuration error
_SCOPES = {
    "identities": Scope(
        lambda N: N in SERIES_LEVELS, "no series identities catalogued for N = {N}", series=True
    ),
    "quadrics": Scope(lambda N: N >= 4, "quadric systems need N >= 4"),
    "rep": Scope(
        lambda N: N >= 2 and N % 2 == 0, "the projective representation suite needs even N >= 2"
    ),
    "translation": Scope(lambda N: N >= 2, "the translation suite needs N >= 2"),
    "transform": Scope(lambda N: N >= 2, "the transform suite needs N >= 2"),
    "weierstrass": Scope(lambda N: N == 4, "the Weierstrass suite is specific to N = 4"),
    "structures": Scope(
        lambda N: 2 <= N <= MAX_LEVEL and N % 2 == 0,
        f"refined structures need even N >= 2 and N <= {MAX_LEVEL}",
    ),
}


def run_suites(cfg: RunConfig, suite: str) -> list[IdentityRecord]:
    """The records of one suite, or of every suite that applies at N for
    "all", in name order.  A suite outside its levels is a ConfigError, and
    so is --order for a single suite that reads no series."""
    if suite == "all":
        names = [name for name in _SUITES if _SCOPES[name].applies(cfg.N)]
        if not names:
            raise ConfigError(f"no verification suite applies at N = {cfg.N}")
    elif suite in _SUITES:
        if not _SCOPES[suite].applies(cfg.N):
            raise ConfigError(_SCOPES[suite].error.format(N=cfg.N))
        if cfg.order is not None and not _SCOPES[suite].series:
            raise ConfigError(f"the {suite} suite does not read --order")
        names = [suite]
    else:
        raise ConfigError(f"unknown suite {suite!r}")
    if any(_SCOPES[name].series for name in names) and cfg.series_order() < 8 * cfg.N:
        raise ConfigError(f"order must be >= {8 * cfg.N} for N = {cfg.N}")
    records = []
    for name in names:
        records += _SUITES[name](cfg)
    return sorted(records, key=lambda r: r.name)


def report_exit_code(records: list[IdentityRecord]) -> int:
    return 0 if all(r.passed for r in records) else 1


def render_report(records: list[IdentityRecord], cfg: RunConfig, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "schema": 1,
                "config": {
                    "N": cfg.N,
                    "order": cfg.series_order(),
                    "tau": [cfg.tau.real, cfg.tau.imag],
                    "tol": cfg.tol,
                    "samples": cfg.samples,
                    "seed": cfg.seed,
                },
                "records": [r._asdict() for r in records],
            },
            sort_keys=True,
        )
    lines = []
    for r in records:
        resid = f" residual={r.residual:.3e}" if r.residual is not None else ""
        lines.append(f"{r.status.upper():4s} {r.name:32s}{resid}  {r.detail}")
    npass = sum(r.passed for r in records)
    lines.append(f"{npass}/{len(records)} checks passed")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="thetalab",
        description="theta immersions of elliptic curves: exact q-series and models",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, N=4):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--N", type=int, default=N)
        sp.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        return sp

    q = command("qexp", "print an exact q-expansion", N=None)
    q.add_argument("--order", type=int, default=None)
    q.add_argument("--object", required=True, choices=tuple(_QEXP_OBJECTS))
    q.add_argument("--k", type=int, default=None)

    v = command("verify", "run a verification suite")
    v.add_argument("--order", type=int, default=None)
    v.add_argument("--tau-re", type=float, default=0.0)
    v.add_argument("--tau-im", type=float, default=1.0)
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--samples", type=int, default=25)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--suite", required=True, choices=tuple(_SUITES) + ("all",))

    i = command("invariants", "congruence subgroup invariants")
    i.add_argument("--family", required=True, choices=("gamma", "gammaN2N"))
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "qexp":
            series = series_for_object(args.object, args.N, args.order, args.k)
            print(series.to_json() if args.fmt == "json" else str(series))
            return 0
        if args.command == "verify":
            cfg = RunConfig(
                N=args.N,
                order=args.order,
                tau=complex(args.tau_re, args.tau_im),
                tol=args.tol,
                samples=args.samples,
                seed=args.seed,
                fmt=args.fmt,
            )
            cfg.validate()
            records = run_suites(cfg, args.suite)
            print(render_report(records, cfg, cfg.fmt))
            return report_exit_code(records)
        if args.command == "invariants":
            inv = subgroup_invariants(SubgroupSpec(args.family, args.N))
            if args.fmt == "json":
                print(
                    json.dumps(
                        {
                            "family": args.family,
                            "N": args.N,
                            "index_psl": inv.index_psl,
                            "cusps": inv.cusps,
                            "genus": inv.genus,
                        },
                        sort_keys=True,
                    )
                )
            else:
                print(f"index {inv.index_psl}, cusps {inv.cusps}, genus {inv.genus}")
            return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as exc:
        # a float power raises (errno, text); print the text alone
        reason = exc.args[-1] if exc.args else exc
        print(f"error: numeric overflow ({reason}); lower --tau-im", file=sys.stderr)
        return 2
    except MemoryError as exc:
        reason = str(exc) or "allocation failed"  # a list too large to allocate says nothing
        print(f"error: out of memory ({reason}); lower --order, --N or --samples", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def run():
    """The command line: main(), then exit without interpreter teardown.

    os._exit skips atexit handlers, finalizers and module cleanup, which
    thetalab does not use, so stdout and stderr are flushed first.  A
    reader that closes stdout early ends the command quietly with
    EXIT_BROKEN_PIPE."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered, or written later, goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
