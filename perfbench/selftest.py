"""Self-tests of the benchmark itself; exit code 1 if any fails.

    python3 perfbench/selftest.py

1. BENCHMARK.json names the workloads and metrics run.py reports.
2. The correctness gate counts corrupted goldens, missing, extra and
   repeated records, out-of-tolerance residuals, changed sample counts
   and nonzero exits as failures.
3. For every workload, two traced passes with the same seed:
   * every wrapped entry point records calls on the workload meant to
     exercise it, and those marked unreached record none on any
     (tracer.ENTRY_POINTS);
   * the layer-isolation shares and zero counts of run.ISOLATION hold;
   * every count (calls per entry point, series.mul.term_pairs,
     series.coeff_max_bits, identities.eta_quotient.*) repeats exactly.

It takes about two minutes on two cores.
"""

from __future__ import annotations

import copy
import json
import re
import sys
import time

import gate
import run
from tracer import ENTRY_POINTS
from workloads import WORKLOADS, op_label

SEED = 1
FAILURES: list[str] = []


def expect(ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {text}")
    if not ok:
        FAILURES.append(text)


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads are workloads.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == table, f"BENCHMARK.json {key} names and units are run.py's")


def check_gate(seed: int, env: dict, golden: dict, deadline: float) -> None:
    ops = {
        "json": WORKLOADS["qseries"][1],    # verify ... --format json
        "text": WORKLOADS["numeric"][2],    # verify ... (text report)
        "stdout": WORKLOADS["numeric"][3],  # invariants
    }
    for kind, op in ops.items():
        out = run.spawn([sys.executable, "-m", "thetalab", *run.op_argv(op, seed)],
                        env, deadline)[3]
        expect(gate.check(op, out, golden) is None, f"gate accepts {kind} output: {op_label(op)}")
        for what, corrupt in _corruptions(kind):
            bad = copy.deepcopy(golden)
            corrupt(bad[op_label(op)])
            reason = gate.check(op, out, bad)
            expect(reason is not None, f"gate rejects {what} ({kind}): {reason}")
        if kind != "stdout":
            reason = gate.check(op, _repeat_first_record(out, kind), golden)
            expect(reason is not None, f"gate rejects a repeated output record ({kind}): {reason}")
    # end to end: one corrupted golden makes a counted failed operation
    op = ops["stdout"]
    bad = copy.deepcopy(golden)
    bad[op_label(op)]["stdout"] += " "
    result = run.run_pass((op,), seed, env, bad, deadline)
    expect([r.ok for r in result.ops] == [False], "a corrupted golden counts as a failed op")
    bad_op = ("verify", "--suite", "rep", "--N", "5")  # odd N: exits 2
    res = run.run_op(bad_op, seed, env, golden, deadline, traced=False)
    expect(not res.ok and res.reason.startswith("exit code 2"),
           f"a nonzero exit counts as a failed op: {res.reason}")


def _repeat_first_record(out: str, kind: str) -> str:
    if kind == "json":
        report = json.loads(out)
        report["records"].append(report["records"][0])
        return json.dumps(report)
    lines = out.split("\n")
    return "\n".join(lines[:1] + lines)


def _corruptions(kind: str):
    def first(entry, want_numeric):
        return next(r for r in entry["records"]
                    if (r["kind"] == "numeric-vanishing") == want_numeric)

    if kind == "stdout":
        yield "a changed byte", lambda e: e.update(stdout="#" + e["stdout"][1:])
        return
    yield "a changed detail", lambda e: first(e, False).update(detail="corrupted")
    yield "a changed status", lambda e: first(e, False).update(status="fail")
    yield "an extra output record", lambda e: e["records"].pop()
    yield "a missing output record", lambda e: e["records"].append(dict(first(e, False), name="x"))
    yield "a residual over tolerance", lambda e: first(e, True).update(tolerance=0.0)
    yield "a changed sample count", lambda e: _change_sample_count(e["records"])
    if kind == "json":
        yield "a changed kind", lambda e: first(e, False).update(kind="count")
        yield "a changed order", lambda e: first(e, False).update(order=1)


def _change_sample_count(records: list) -> None:
    r = next(r for r in records if re.search(r"\d+ samples", r["detail"]))
    r["detail"] = re.sub(r"\d+ samples", "7 samples", r["detail"])


def check_traced(workload: str, seed: int, env: dict, golden: dict, deadline: float) -> None:
    ops = WORKLOADS[workload]
    plain = run.run_pass(ops, seed, env, golden, deadline)
    first = run.run_pass(ops, seed, env, golden, deadline, traced=True)
    second = run.run_pass(ops, seed, env, golden, deadline, traced=True)
    expect(all(r.ok for p in (first, second) for r in p.ops),
           f"{workload}: traced outputs pass the gate")
    calls = [_entry_calls(p) for p in (first, second)]
    for mod, attr, _, meant in ENTRY_POINTS:
        n = calls[0][f"{mod}:{attr}"]
        if meant == workload:
            expect(n > 0, f"{workload}: {mod}:{attr} records calls ({n})")
        elif meant is None:
            expect(n == 0, f"{workload}: {mod}:{attr}, marked unreached, records no calls ({n})")
    metrics = [run.layer_metrics(p, plain) for p in (first, second)]
    for text, ok in run.isolation(workload, metrics[0]):
        expect(ok, f"{workload}: layer isolation {text}")
    counts = [{k: v for k, v in m.items()
               if k.endswith((".calls", ".term_pairs", ".coeff_max_bits", ".built", ".kept_ratio"))}
              for m in metrics]
    differ = sorted(k for k in calls[0] if calls[0][k] != calls[1][k])
    differ += sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    expect(not differ, f"{workload}: {len(calls[0]) + len(counts[0])} counts repeat exactly"
           + (f"; these differ: {differ}" if differ else ""))


def _entry_calls(p: run.Pass) -> dict:
    out: dict[str, int] = {}
    for r in p.ops:
        for key, (c, _, _) in r.trace["entry_points"].items():
            out[key] = out.get(key, 0) + c
    return out


def main() -> int:
    env = run.child_env()
    golden = gate.load()
    deadline = time.perf_counter() + 3600
    check_benchmark_json()
    check_gate(SEED, env, golden, deadline)
    for workload in WORKLOADS:
        check_traced(workload, SEED, env, golden, deadline)
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
