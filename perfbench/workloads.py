"""The benchmark's workloads: one list of thetalab CLI commands each.

Every command runs as its own fresh ``python -m thetalab`` child, so the
lru caches inside thetalab start cold for every command, as they do for a
user.  The workload seed is appended as ``--seed`` to every ``verify``
command, where it picks the numeric sample points; exact records, ``qexp``
and ``invariants`` output do not depend on it.  README.md says why each
workload was chosen and which layers it is meant to load.
"""

from __future__ import annotations

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # exact Puiseux-series multiply and inverse over Fraction coefficients
    "qseries": (
        ("verify", "--suite", "identities", "--N", "4", "--order", "120", "--format", "json"),
        ("verify", "--suite", "identities", "--N", "6", "--order", "120", "--format", "json"),
        ("verify", "--suite", "identities", "--N", "7", "--order", "120", "--format", "json"),
        ("verify", "--suite", "identities", "--N", "8", "--order", "120", "--format", "json"),
        ("qexp", "--object", "mu6", "--order", "400"),
        ("qexp", "--object", "b4", "--order", "400", "--format", "json"),
    ),
    # exact cyclotomic arithmetic and projective matrix products/inverses
    "exact-group": (
        ("verify", "--suite", "all", "--N", "12", "--format", "json"),
        ("verify", "--suite", "rep", "--N", "16", "--format", "json"),
    ),
    # numeric theta evaluation and quadric vanishing on sampled curve points
    "numeric": (
        ("verify", "--suite", "all", "--N", "11", "--samples", "3000"),
        ("verify", "--suite", "quadrics", "--N", "16", "--samples", "3000",
         "--tau-im", "0.5", "--tol", "1e-11"),
        ("verify", "--suite", "weierstrass", "--N", "4", "--samples", "3000"),
        ("invariants", "--family", "gammaN2N", "--N", "12"),
        ("invariants", "--family", "gamma", "--N", "12"),
    ),
}

# Runs once, untimed, before anything is measured, so that compiling the
# package to bytecode is not timed.  It warms no lru cache: every later
# command is a fresh process.
WARMUP_OP = ("qexp", "--object", "lambda", "--order", "32")


def op_argv(op: tuple[str, ...], seed: int) -> list[str]:
    """The command line of one operation under a workload seed."""
    argv = list(op)
    if op[0] == "verify":
        argv += ["--seed", str(seed)]
    return argv


def op_label(op: tuple[str, ...]) -> str:
    """A stable name for an operation, used as its key in the goldens."""
    return " ".join(op)
