"""Correctness gate: compares each operation's output with its golden.

The goldens in golden.json were captured from the program at the commit
that added this benchmark, with ``--seed 0``:

    python3 perfbench/gate.py --capture

* ``qexp`` and ``invariants`` output must be byte-identical.
* A ``verify`` report must hold exactly the golden record names, each
  once.  Every record that is not ``numeric-vanishing`` must match its
  golden name, kind, status, order and detail.  A ``numeric-vanishing``
  record depends on the seed, so it must pass with a residual below its
  tolerance, and its detail must match the golden once every measured
  figure (``1.234e-15``) in both is replaced by ``#``; the counts of forms
  and samples in it must match exactly.
  Text reports do not print kind and order, so for those only the
  printed fields are compared, plus the closing ``k/n checks passed``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, op_argv, op_label

GOLDEN = Path(__file__).resolve().with_name("golden.json")
RECORD_FIELDS = ("name", "kind", "status", "order", "detail")
MEASURED = re.compile(r"-?\d\.\d{3}e[+-]\d+")  # a seed-dependent residual in a detail


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def _parse_text_report(stdout: str) -> tuple[list, str]:
    """The records of a text report, and its closing summary line."""
    lines = stdout.rstrip("\n").split("\n")
    records = []
    for line in lines[:-1]:
        status, rest = line[:4].strip().lower(), line[5:]
        name = rest.split(" ", 1)[0]
        rest = rest[len(name):].lstrip(" ")
        residual = None
        if rest.startswith("residual="):
            token, _, rest = rest.partition("  ")
            residual = float(token[len("residual="):])
        records.append({"name": name, "status": status, "residual": residual, "detail": rest})
    return records, lines[-1]


def check(op: tuple[str, ...], stdout: str, golden: dict) -> str | None:
    """None when the output of `op` matches its golden, else the reason."""
    want = golden[op_label(op)]
    if "stdout" in want:
        return None if stdout == want["stdout"] else "stdout differs from golden"
    is_json = "--format" in op and op[op.index("--format") + 1] == "json"
    try:
        if is_json:
            records = json.loads(stdout)["records"]
        else:
            records, summary = _parse_text_report(stdout)
        got_names = [r["name"] for r in records]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable report: {exc!r}"
    names = [r["name"] for r in want["records"]]
    if sorted(got_names) != sorted(names):
        missing = sorted(set(names) - set(got_names))
        repeated = sorted({n for n in got_names if got_names.count(n) > 1})
        extra = sorted(set(got_names) - set(names))
        return f"record names differ: missing {missing}, extra {extra}, repeated {repeated}"
    got = {r["name"]: r for r in records}
    for w in want["records"]:
        g = got[w["name"]]
        if w["kind"] == "numeric-vanishing":
            resid = g.get("residual")
            if g["status"] != "pass" or resid is None or not resid < w["tolerance"]:
                return f"{w['name']}: status {g['status']}, residual {resid}"
            if is_json and (g["kind"], g["tolerance"]) != (w["kind"], w["tolerance"]):
                return f"{w['name']}: kind or tolerance differs"
            if MEASURED.sub("#", g["detail"]) != MEASURED.sub("#", w["detail"]):
                return f"{w['name']}: detail {g['detail']!r} != golden {w['detail']!r}"
            continue
        fields = RECORD_FIELDS if is_json else ("name", "status", "detail")
        for f in fields:
            if g[f] != w[f]:
                return f"{w['name']}: {f} {g[f]!r} != golden {w[f]!r}"
    if not is_json and summary != f"{len(names)}/{len(names)} checks passed":
        return f"summary line {summary!r}"
    return None


def capture(python: str, env: dict, cwd: Path) -> dict:
    """Run every operation at seed 0 and record its golden."""
    golden = {}
    for ops in WORKLOADS.values():
        for op in ops:
            argv = op_argv(op, 0)
            if op[0] != "verify":
                out = _run(python, argv, env, cwd)
                golden[op_label(op)] = {"stdout": out}
                continue
            if "--format" not in argv:
                argv += ["--format", "json"]
            report = json.loads(_run(python, argv, env, cwd))
            golden[op_label(op)] = {
                "records": [
                    {f: r[f] for f in RECORD_FIELDS + ("tolerance",)}
                    for r in report["records"]
                ]
            }
    return golden


def _run(python: str, argv: list[str], env: dict, cwd: Path) -> str:
    proc = subprocess.run(
        [python, "-m", "thetalab", *argv], env=env, cwd=cwd,
        capture_output=True, text=True, check=True,
    )
    return proc.stdout


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python3 perfbench/gate.py --capture")
    from run import ROOT, child_env

    GOLDEN.write_text(json.dumps(capture(sys.executable, child_env(), ROOT), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
