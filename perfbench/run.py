"""thetalab benchmark: drives the real CLI, one fresh child per operation.

    python3 perfbench/run.py --workload qseries --seed 1 --seconds 40 --trace 0

A single closed-loop client runs one ``python -m thetalab`` child at a
time over the workload's operations (workloads.py), checks every output
against its golden (gate.py), and repeats whole passes until the next
pass would end after ``--seconds``; at least one pass always runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and one traced pass, whose children run
``perfbench/tracer.py`` in place of ``-m thetalab``, and reports the
per-layer metrics of the traced pass.  The lines printed first give each
metric with its unit and the provenance of the run; the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import gate
from tracer import ENTRY_POINTS
from workloads import WARMUP_OP, WORKLOADS, op_argv, op_label

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"  # holds only unlinked temporary files

SETUP_LAUNCHES = 11
RUN_LIMIT_S = 170.0  # an operation still running this long into a run is killed
SETUP_PROBE = (
    "import sys, thetalab.cli; "
    "print(sys.modules['thetalab'].__file__); print(sys.modules['numpy'].__version__)"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_max_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

# Span groups of tracer.ENTRY_POINTS, summed over the traced pass: calls
# (count) or self time (s).
LAYER_SPANS = (
    "series.mul.calls", "series.mul.self_s", "series.inverse.calls",
    "series.inverse.self_s", "series.add.self_s",
    "cyclotomic.construct.calls", "cyclotomic.construct.self_s",
    "cyclotomic.mul.calls", "cyclotomic.mul.self_s", "cyclotomic.add.self_s",
    "cyclotomic.inverse.calls", "cyclotomic.inverse.self_s",
    "projective.matmul.calls", "projective.matmul.self_s",
    "projective.inverse.calls", "projective.inverse.self_s",
    "projective.power.calls", "projective.proj_eq.self_s",
    "theta.eval.calls", "theta.eval.self_s", "theta.null_series.self_s",
    "quadrics.on_curve.self_s", "quadrics.rank.self_s", "quadrics.basis.self_s",
    "congruence.sl2_mod.self_s", "congruence.invariants.self_s",
    "congruence.tower.self_s", "identities.checks.self_s",
)
LAYERS = ("series", "cyclotomic", "projective", "theta", "quadrics", "congruence", "identities")
SUITES = ("identities", "quadrics", "rep", "translation", "transform", "weierstrass", "structures")

PER_LAYER = {
    **{name: "s" if name.endswith("_s") else "count" for name in LAYER_SPANS},
    "series.mul.term_pairs": "count",
    "series.coeff_max_bits": "bits",
    "congruence.sl2_mod.hit_ratio": "fraction",
    "identities.nulls.hit_ratio": "fraction",
    "identities.eta_quotient.kept_ratio": "fraction",
    **{f"cli.suite.{suite}.s": "s" for suite in SUITES},
    "cli.render.s": "s",
    "cli.child_s": "s",
    "trace.overhead_frac": "fraction",
}

# Each workload's purpose, as shares of the traced child time (cli.child_s)
# and as counts that must stay zero.
ISOLATION = {
    "qseries": ((("series.self_s",), 0.90), ("cyclotomic.calls",)),
    "exact-group": ((("cyclotomic.self_s", "projective.self_s"), 0.90), ("series.mul.calls",)),
    "numeric": ((("theta.self_s", "quadrics.self_s"), 0.70), ()),
}


class BenchError(Exception):
    """The benchmark cannot run here: it exits nonzero without a result."""


@dataclass
class OpResult:
    label: str
    wall_s: float
    rss_mb: float
    ok: bool
    reason: str | None
    trace: dict | None


@dataclass
class Pass:
    wall_s: float
    ops: list[OpResult]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(SRC), THETA_LAB_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(cmd: list[str], env: dict, deadline: float, pass_fds=()):
    """Run one child to its end: (wall s, max RSS MB, exit code, stdout, stderr).

    The wall time runs from just before the child is started until it is
    reaped, so it includes interpreter start-up, as a user sees it.  A
    child still running at `deadline` is killed and gets exit code None."""
    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=TMP) as out, tempfile.TemporaryFile(dir=TMP) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                pass_fds=pass_fds)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.perf_counter()))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        code = proc.returncode if ready else None
        return (wall, usage.ru_maxrss / 1024.0, code,
                out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"))


def run_op(op, seed: int, env: dict, golden: dict, deadline: float, traced: bool) -> OpResult:
    argv = op_argv(op, seed)
    trace = None
    if traced:
        with tempfile.TemporaryFile("w+", dir=TMP) as spans:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans.fileno()), *argv]
            wall, rss, code, out, err = spawn(cmd, env, deadline, (spans.fileno(),))
            if code == 0:
                spans.seek(0)
                trace = json.load(spans)
                if not _in_src(trace["thetalab_file"]):
                    raise BenchError(f"traced child imported {trace['thetalab_file']}, not {SRC}")
    else:
        wall, rss, code, out, err = spawn([sys.executable, "-m", "thetalab", *argv], env, deadline)
    if code != 0:
        last = err.strip().splitlines()[-1:] or [""]
        reason = f"{'killed at the time limit' if code is None else f'exit code {code}'}: {last[0]}"
    else:
        reason = gate.check(op, out, golden)
    return OpResult(op_label(op), wall, rss, reason is None, reason, trace)


def run_pass(ops, seed: int, env: dict, golden: dict, deadline: float,
             traced: bool = False) -> Pass:
    t0 = time.perf_counter()
    results = [run_op(op, seed, env, golden, deadline, traced) for op in ops]
    return Pass(time.perf_counter() - t0, results)


def _in_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup(env: dict, deadline: float) -> tuple[list[float], str]:
    """Launch times of a fresh interpreter that imports thetalab.cli.

    Also asserts that the imported thetalab is the checkout's src/ and
    returns the numpy version the children use."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        wall, _, code, out, err = spawn([sys.executable, "-c", SETUP_PROBE], env, deadline)
        lines = out.split("\n")
        if code != 0 or not _in_src(lines[0]):
            raise BenchError(f"importing thetalab.cli from {SRC} failed: {out!r} {err!r}")
        times.append(wall)
    return times, lines[1]


def provenance(numpy_version: str) -> dict:
    def git(*args: str) -> str | None:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
    }


def end_to_end_metrics(setup: list[float], passes: list[Pass]) -> dict:
    ops = [r for p in passes for r in p.ops]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_max_s": statistics.median(max(r.wall_s for r in p.ops) for p in passes),
        "peak_rss_mb": max(r.rss_mb for r in ops),
        "ok_frac": sum(r.ok for r in ops) / len(ops),
    }


def layer_metrics(traced: Pass, plain: Pass) -> dict:
    """Per-layer metrics of one traced pass (plain: the untraced pass).

    Besides PER_LAYER it holds each layer's summed calls and self time
    (`series.calls`, `series.self_s`, ...), which the isolation check
    uses, and `identities.eta_quotient.built`; none of these is reported."""
    group_of = {f"{m}:{a}": g for m, a, g, _ in ENTRY_POINTS}
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    caches: dict[str, list[int]] = {}
    for r in traced.ops:
        if r.trace is None:
            continue
        for key, (c, tot, own) in r.trace["entry_points"].items():
            g = group_of[key]
            calls[g] = calls.get(g, 0) + c
            total[g] = total.get(g, 0.0) + tot
            self_s[g] = self_s.get(g, 0.0) + own
        for k, v in r.trace["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k.endswith("max_bits") \
                else counters.get(k, 0) + v
        for k, (hits, misses) in r.trace["caches"].items():
            acc = caches.setdefault(k, [0, 0])
            acc[0] += hits
            acc[1] += misses

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in LAYER_SPANS:
        g, stat = name.rsplit(".", 1)
        out[name] = calls.get(g, 0) if stat == "calls" else self_s.get(g, 0.0)
    for layer in LAYERS:
        mine = [g for g in calls if g.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(calls[g] for g in mine)
        out[f"{layer}.self_s"] = sum(self_s[g] for g in mine)
    out["series.mul.term_pairs"] = counters.get("series.mul.term_pairs", 0)
    out["series.coeff_max_bits"] = counters.get("series.coeff_max_bits", 0)
    for name in ("congruence.sl2_mod", "identities.nulls"):
        hits, misses = caches.get(name, (0, 0))
        out[f"{name}.hit_ratio"] = ratio(hits, hits + misses)
    built = counters.get("identities.eta_quotient.built", 0)
    out["identities.eta_quotient.built"] = built
    out["identities.eta_quotient.kept_ratio"] = ratio(
        counters.get("identities.eta_quotient.kept", 0), built)
    for suite in SUITES:
        out[f"cli.suite.{suite}.s"] = total.get(f"cli.suite.{suite}", 0.0)
    out["cli.render.s"] = total.get("cli.render", 0.0)
    out["cli.child_s"] = total.get("cli.main", 0.0)
    out["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    return out


def isolation(workload: str, metrics: dict) -> list[tuple[str, bool]]:
    """The layer-isolation verdicts of a workload's traced metrics."""
    (parts, floor), zeros = ISOLATION[workload]
    share = sum(metrics[p] for p in parts) / (metrics["cli.child_s"] or 1.0)
    checks = [(f"{' + '.join(parts)} = {share:.3f} of cli.child_s, want >= {floor}",
               share >= floor)]
    checks += [(f"{z} = {metrics[z]}, want 0", metrics[z] == 0) for z in zeros]
    return checks


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    if not (SRC / "thetalab" / "cli.py").is_file():
        raise BenchError(f"no thetalab sources under {SRC}")
    env = child_env()
    golden = gate.load()
    # untimed: compiles the package to bytecode; warms no lru cache
    spawn([sys.executable, "-m", "thetalab", *WARMUP_OP], env, deadline)
    setup, numpy_version = measure_setup(env, deadline)
    print("provenance", json.dumps(provenance(numpy_version), sort_keys=True))
    ops = WORKLOADS[workload]
    if trace:
        plain = run_pass(ops, seed, env, golden, deadline)
        traced = run_pass(ops, seed, env, golden, deadline, traced=True)
        passes = [plain, traced]
        metrics = layer_metrics(traced, plain)
        units = PER_LAYER
        for text, ok in isolation(workload, metrics):
            print(f"layer isolation {'PASS' if ok else 'FAIL'}: {text}")
    else:
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(ops, seed, env, golden, deadline))
            if time.perf_counter() - t0 + passes[-1].wall_s > seconds:
                break
        metrics = end_to_end_metrics(setup, passes)
        units = END_TO_END
    results = [r for p in passes for r in p.ops]
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAILED {r.label}: {r.reason}")
    print(f"workload {workload}, seed {seed}: {len(passes)} passes, {len(results)} ops "
          f"attempted, {len(failed)} failed (failed_frac {len(failed) / len(results)})")
    print("pass wall times (s):", " ".join(f"{p.wall_s:.3f}" for p in passes))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
