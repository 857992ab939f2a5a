"""Every benchmark operation, run in-process through the CLI at seeds 0
and 1, exits 0 and passes the benchmark's correctness gate against its
golden output (perfbench/gate.py, perfbench/golden.json)."""

import sys
from pathlib import Path

import pytest

from thetalab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
