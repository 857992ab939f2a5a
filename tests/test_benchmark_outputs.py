"""Every benchmark operation, run in-process through the CLI at seeds 0
and 1, exits 0 and passes the benchmark's correctness gate against its
golden output (perfbench/gate.py, perfbench/golden.json); and the span
tracer of the traced benchmark run (perfbench/tracer.py) still runs an
identities suite and reads its series."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thetalab.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import gate  # noqa: E402
from workloads import WORKLOADS, op_argv, op_label  # noqa: E402

GOLDEN = gate.load()
OPS = [op for ops in WORKLOADS.values() for op in ops]


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("op", OPS, ids=op_label)
def test_benchmark_op_matches_golden(capsys, op, seed):
    code = main(op_argv(op, seed))
    out = capsys.readouterr().out
    reason = gate.check(op, out, GOLDEN)
    assert code == 0, op
    assert reason is None, reason


def test_tracer_records_series_products():
    argv = ["verify", "--suite", "identities", "--N", "6", "--order", "120", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    with os.fdopen(read_end) as spans:
        proc = subprocess.Popen(
            [sys.executable, str(PERFBENCH / "tracer.py"), str(write_end), *argv],
            pass_fds=(write_end,), env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        os.close(write_end)
        text = spans.read()  # until the child closes its end
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0, err
    summary = json.loads(text)
    calls, _, _ = summary["entry_points"]["thetalab.series:PuiseuxSeries.__mul__"]
    assert calls > 0
    assert summary["counters"]["series.coeff_max_bits"] > 0
