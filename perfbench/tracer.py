"""Span tracer for the layers of thetalab, used by the traced benchmark run.

Run it in place of ``python -m thetalab``::

    python perfbench/tracer.py FD verify --suite rep --N 16

It wraps each entry point in ENTRY_POINTS, runs ``thetalab.cli.main`` on
the remaining arguments, and, when main returns, writes a JSON summary of
the spans it kept in memory to the open file descriptor FD.

A span is recorded for every call of a wrapped entry point: its entry
point, the span that was open when it started (its parent), and four
clock readings.  ``t0``/``t1`` bound the wrapped call; ``e0``/``e1`` also
include the wrapper's own bookkeeping.  A span's self time is
``t1 - t0`` minus the ``e1 - e0`` of its children, so neither the work of
a nested layer nor the tracer's overhead is charged to the caller.

A wrapped function is replaced at every place thetalab refers to it: in
every module namespace (``from .theta import theta_N_eval`` binds it by
name in four modules), in module-level tables such as ``cli._SUITES``,
and under every class attribute that aliases it (``__rmul__ = __mul__``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (module, attribute, metric group, workload meant to exercise it or None)
# The group is the name under which spans are summed into per-layer
# metrics; None marks an entry point no CLI command reaches today.
ENTRY_POINTS: tuple[tuple[str, str, str, str | None], ...] = (
    # series: exact truncated Puiseux series
    ("thetalab.series", "PuiseuxSeries.__mul__", "series.mul", "qseries"),
    ("thetalab.series", "PuiseuxSeries.inverse", "series.inverse", "qseries"),
    ("thetalab.series", "PuiseuxSeries.__add__", "series.add", "qseries"),
    ("thetalab.series", "PuiseuxSeries.__sub__", "series.sub", "qseries"),
    ("thetalab.series", "PuiseuxSeries.__neg__", "series.neg", "qseries"),
    ("thetalab.series", "PuiseuxSeries.__pow__", "series.pow", "qseries"),
    ("thetalab.series", "PuiseuxSeries.__truediv__", "series.div", "qseries"),
    ("thetalab.series", "PuiseuxSeries.__rtruediv__", "series.div", "qseries"),
    ("thetalab.series", "PuiseuxSeries.rescale", "series.rescale", "qseries"),
    ("thetalab.series", "eta_series", "series.eta", "qseries"),
    # cyclotomic: exact arithmetic in Q(zeta_m)
    ("thetalab.cyclotomic", "CyclotomicNumber.__init__", "cyclotomic.construct", "exact-group"),
    ("thetalab.cyclotomic", "CyclotomicNumber.__mul__", "cyclotomic.mul", "exact-group"),
    ("thetalab.cyclotomic", "CyclotomicNumber.__add__", "cyclotomic.add", "exact-group"),
    ("thetalab.cyclotomic", "CyclotomicNumber.__sub__", "cyclotomic.sub", "exact-group"),
    ("thetalab.cyclotomic", "CyclotomicNumber.__rsub__", "cyclotomic.sub", "exact-group"),
    ("thetalab.cyclotomic", "CyclotomicNumber.__neg__", "cyclotomic.neg", "exact-group"),
    ("thetalab.cyclotomic", "CyclotomicNumber.inverse", "cyclotomic.inverse", "exact-group"),
    ("thetalab.cyclotomic", "CyclotomicNumber.__pow__", "cyclotomic.pow", "exact-group"),
    ("thetalab.cyclotomic", "CyclotomicNumber.to_order", "cyclotomic.to_order", "exact-group"),
    ("thetalab.cyclotomic", "CyclotomicNumber.complex_value", "cyclotomic.complex_value", "exact-group"),
    ("thetalab.cyclotomic", "zeta", "cyclotomic.zeta", "exact-group"),
    # projective: exact and numeric projective matrices
    ("thetalab.projective", "ProjectiveMatrix.__matmul__", "projective.matmul", "exact-group"),
    ("thetalab.projective", "ProjectiveMatrix.inverse", "projective.inverse", "exact-group"),
    ("thetalab.projective", "ProjectiveMatrix.power", "projective.power", "exact-group"),
    ("thetalab.projective", "ProjectiveMatrix.proj_eq", "projective.proj_eq", "exact-group"),
    ("thetalab.projective", "ProjectiveMatrix.complex_array", "projective.complex_array", "exact-group"),
    ("thetalab.projective", "proj_residual", "projective.proj_residual", "exact-group"),
    ("thetalab.projective", "build_canonical_matrices", "projective.build", "exact-group"),
    ("thetalab.projective", "build_rep_generators", "projective.build", "exact-group"),
    ("thetalab.projective", "SL2Word.evaluate_proj", "projective.checks", "exact-group"),
    ("thetalab.projective", "verify_presentation", "projective.checks", "exact-group"),
    ("thetalab.projective", "conjugation_table_check", "projective.checks", "exact-group"),
    ("thetalab.projective", "translation_check", "projective.checks", "exact-group"),
    ("thetalab.projective", "rho_theta_candidates", "projective.checks", "exact-group"),
    ("thetalab.projective", "rho_theta_match", "projective.checks", "exact-group"),
    # theta: numeric theta kernel and exact theta-null series
    ("thetalab.theta", "theta_N_eval", "theta.eval", "numeric"),
    ("thetalab.theta", "theta_pq_eval", "theta.eval", None),
    ("thetalab.theta", "jacobi_theta_eval", "theta.eval", None),
    ("thetalab.theta", "theta_half_eval", "theta.half_eval", "numeric"),
    ("thetalab.theta", "theta_null_series", "theta.null_series", "qseries"),
    ("thetalab.theta", "transform_check", "theta.transform", "numeric"),
    # quadrics: quadric systems, vanishing and rank certification
    ("thetalab.quadrics", "verify_on_curve", "quadrics.on_curve", "numeric"),
    ("thetalab.quadrics", "rank_check", "quadrics.rank", "numeric"),
    ("thetalab.quadrics", "gen_odd_basis", "quadrics.basis", "numeric"),
    ("thetalab.quadrics", "gen_even_basis", "quadrics.basis", "numeric"),
    ("thetalab.quadrics", "gen_even_s_basis", "quadrics.basis", "numeric"),
    ("thetalab.quadrics", "NullData.numeric", "quadrics.basis", "numeric"),
    # congruence: finite enumeration over SL_2(Z/m)
    ("thetalab.congruence", "sl2_mod", "congruence.sl2_mod", "numeric"),
    ("thetalab.congruence", "subgroup_invariants", "congruence.invariants", "numeric"),
    ("thetalab.congruence", "group_tower_check", "congruence.tower", "exact-group"),
    ("thetalab.congruence", "enum_structures_above", "congruence.structures", "exact-group"),
    ("thetalab.congruence", "weil_pairing", "congruence.weil", "exact-group"),
    # identities: named series and the identity checks built on them
    ("thetalab.identities", "theta_null_curve_check", "identities.checks", "qseries"),
    ("thetalab.identities", "eta_quotient_check", "identities.checks", "qseries"),
    ("thetalab.identities", "quotient_model_check", "identities.checks", "qseries"),
    ("thetalab.identities", "hesse_check", "identities.checks", "qseries"),
    ("thetalab.identities", "weierstrass_check_level4", "identities.checks", "numeric"),
    ("thetalab.identities", "degenerate_fibers_level4", "identities.checks", "numeric"),
    ("thetalab.identities", "null_invariance_check", "identities.checks", "qseries"),
    ("thetalab.identities", "nulls", "identities.named", "qseries"),
    ("thetalab.identities", "eta_scaled", "identities.named", "qseries"),
    ("thetalab.identities", "lam_series", "identities.named", "qseries"),
    ("thetalab.identities", "x6_series", "identities.named", "qseries"),
    ("thetalab.identities", "y6_series", "identities.named", "qseries"),
    ("thetalab.identities", "mu6_series", "identities.named", "qseries"),
    ("thetalab.identities", "b1_series", "identities.named", "qseries"),
    ("thetalab.identities", "b4_series", "identities.named", "qseries"),
    ("thetalab.identities", "phi5_series", "identities.named", "qseries"),
    # cli: the command driver, its suites and its output
    ("thetalab.cli", "main", "cli.main", "qseries"),
    ("thetalab.cli", "_suite_identities", "cli.suite.identities", "qseries"),
    ("thetalab.cli", "_suite_quadrics", "cli.suite.quadrics", "numeric"),
    ("thetalab.cli", "_suite_rep", "cli.suite.rep", "exact-group"),
    ("thetalab.cli", "_suite_translation", "cli.suite.translation", "numeric"),
    ("thetalab.cli", "_suite_transform", "cli.suite.transform", "numeric"),
    ("thetalab.cli", "_suite_weierstrass", "cli.suite.weierstrass", "numeric"),
    ("thetalab.cli", "_suite_structures", "cli.suite.structures", "exact-group"),
    ("thetalab.cli", "render_report", "cli.render", "qseries"),
    ("thetalab.series", "PuiseuxSeries.__str__", "cli.render", "qseries"),
    ("thetalab.series", "PuiseuxSeries.to_json", "cli.render", "qseries"),
)

# lru caches whose hit ratios the traced run reports, by metric prefix
CACHES = (
    ("thetalab.identities", "nulls", "identities.nulls"),
    ("thetalab.congruence", "sl2_mod", "congruence.sl2_mod"),
)


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return max((_coeff_bits(x) for x in c.coeffs), default=0)  # CyclotomicNumber


class Tracer:
    """Keeps spans in flat arrays; one span per call of a wrapped function."""

    def __init__(self):
        self.entry = array("l")    # index into ENTRY_POINTS
        self.parent = array("l")   # span id of the enclosing span, -1 at top
        self.clock = array("d")    # e0, t0, t1, e1 per span
        self.stack = [-1]
        self.counters = {
            "series.mul.term_pairs": 0,
            "series.coeff_max_bits": 0,
            "identities.eta_quotient.built": 0,
            "identities.eta_quotient.kept": 0,
        }
        self._eta_records: dict[int, object] = {}  # by id; holding them keeps ids unique

    def wrap(self, fn, index: int, post=None):
        entry, parent, clock, stack = self.entry, self.parent, self.clock, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            e0 = perf_counter()
            sid = len(entry)
            entry.append(index)
            parent.append(stack[-1])
            clock.extend((e0, e0, e0, e0))
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                base = 4 * sid
                clock[base + 1] = t0
                clock[base + 2] = t1
                clock[base + 3] = t1
            if post is not None:
                post(args, result)
            clock[4 * sid + 3] = perf_counter()
            return result

        return traced

    # -- counters, computed outside the wrapped call ----------------------

    def _series_mul(self, args, result):
        a, b = args
        nb = len(b.terms) if hasattr(b, "terms") else 1
        self.counters["series.mul.term_pairs"] += len(a.terms) * nb
        self._series_bits(args, result)

    def _series_bits(self, args, result):
        bits = max((_coeff_bits(c) for c in result.terms.values()), default=0)
        if bits > self.counters["series.coeff_max_bits"]:
            self.counters["series.coeff_max_bits"] = bits

    def _eta_built(self, args, records):
        self.counters["identities.eta_quotient.built"] += len(records)
        self._eta_records.update((id(r), r) for r in records)

    def _suite_kept(self, args, records):
        self.counters["identities.eta_quotient.kept"] += sum(
            id(r) in self._eta_records for r in records
        )

    def posts(self) -> dict:
        return {
            "PuiseuxSeries.__mul__": self._series_mul,
            "PuiseuxSeries.inverse": self._series_bits,
            "eta_quotient_check": self._eta_built,
            "_suite_identities": self._suite_kept,
        }

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, total time and self time per entry point, from the spans."""
        n = len(self.entry)
        clock, parent = self.clock, self.parent
        covered = [0.0] * n
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                covered[p] += clock[4 * sid + 3] - clock[4 * sid]
        calls = [0] * len(ENTRY_POINTS)
        total = [0.0] * len(ENTRY_POINTS)
        self_s = [0.0] * len(ENTRY_POINTS)
        for sid in range(n):
            i = self.entry[sid]
            d = clock[4 * sid + 2] - clock[4 * sid + 1]
            calls[i] += 1
            total[i] += d
            self_s[i] += d - covered[sid]
        return {
            "entry_points": {
                f"{mod}:{attr}": [calls[i], total[i], self_s[i]]
                for i, (mod, attr, _, _) in enumerate(ENTRY_POINTS)
            },
            "counters": dict(self.counters),
        }


def _owner(module, attr: str):
    """The namespace object and attribute name that hold an entry point."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer) -> None:
    """Wrap every entry point wherever thetalab refers to it."""
    import thetalab.cli  # noqa: F401  (imports every layer)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "thetalab" or name.startswith("thetalab.")]
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("thetalab")]
    posts = tracer.posts()
    for index, (modname, attr, _, _) in enumerate(ENTRY_POINTS):
        owner, name = _owner(sys.modules[modname], attr)
        raw = vars(owner)[name]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        traced = tracer.wrap(fn, index, posts.get(attr))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, traced)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = traced
        for cls in classes:
            for key, value in list(vars(cls).items()):
                if value is fn:
                    setattr(cls, key, traced)
                elif isinstance(value, staticmethod) and value.__func__ is fn:
                    setattr(cls, key, staticmethod(traced))


def cache_stats() -> dict:
    """[hits, misses] of each reported lru cache."""
    out = {}
    for modname, attr, label in CACHES:
        fn = getattr(sys.modules[modname], attr)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__  # the tracer's wrapper around the lru cache
        info = fn.cache_info()
        out[label] = [info.hits, info.misses]
    return out


def main(argv: list[str]) -> int:
    fd = int(argv[0])
    import thetalab
    import thetalab.cli

    tracer = Tracer()
    install(tracer)
    rc = thetalab.cli.main(argv[1:])
    sys.stdout.flush()
    summary = tracer.summary()
    summary["caches"] = cache_stats()
    summary["thetalab_file"] = os.path.abspath(thetalab.__file__)
    with os.fdopen(fd, "w") as out:
        json.dump(summary, out)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
