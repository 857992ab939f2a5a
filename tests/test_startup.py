"""One-shot processes: what each command executes, and how it exits.

numpy is bound lazily (thetalab.lazy), so a command that reads no `np.`
attribute never executes it: only the quadric and translation checks of
more than 64 samples do (theta.sample_units), and they start OpenBLAS
with one thread.  `python -m thetalab` ends through
cli.run, which flushes its output and exits without interpreter
teardown."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from thetalab.cli import EXIT_BROKEN_PIPE, main

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
ENV["PYTHONPATH"] = str(SRC)

# runs main in a fresh interpreter, then says whether numpy was executed:
# the lazy binding registers only `numpy`, and executing it imports numpy.*
PROBE = (
    "import sys; from thetalab.cli import main; code = main(sys.argv[1:]); "
    "print(code, any(name.startswith('numpy.') for name in sys.modules))"
)


# runs main, then prints whether numpy was executed, the OpenBLAS thread
# setting, and the threads of the process (None without /proc/self/task)
BLAS_PROBE = (
    "import os, sys; from thetalab.cli import main; code = main(sys.argv[1:]); "
    "task = '/proc/self/task'; "
    "print(code, any(name.startswith('numpy.') for name in sys.modules), "
    "os.environ.get('OPENBLAS_NUM_THREADS'), "
    "len(os.listdir(task)) if os.path.isdir(task) else None)"
)


def label(value):
    return " ".join(value) if isinstance(value, tuple) else None


def child(*args, **kwargs):
    kwargs = {"capture_output": True, "env": ENV, **kwargs}
    return subprocess.run([sys.executable, *args], text=True, timeout=120, **kwargs)


@pytest.mark.parametrize(
    "argv, executed",
    [
        (("qexp", "--object", "mu6"), False),
        (("qexp", "--object", "b4"), False),
        (("qexp", "--object", "lambda"), False),
        (("qexp", "--object", "theta-null", "--k", "1"), False),
        (("invariants", "--family", "gamma", "--N", "12"), False),
        (("invariants", "--family", "gammaN2N", "--N", "12"), False),
        (("verify", "--suite", "rep", "--N", "16"), False),
        (("verify", "--suite", "structures", "--N", "12"), False),
        (("verify", "--suite", "identities", "--N", "5"), False),
        (("verify", "--suite", "identities", "--N", "7"), False),
        # the null-invariance and Hesse records sum one theta value at a time
        (("verify", "--suite", "identities", "--N", "4"), False),
        (("verify", "--suite", "identities", "--N", "6"), False),
        (("verify", "--suite", "identities", "--N", "8"), False),
        # so do the sampled suites at up to 64 samples (25 by default)
        (("verify", "--suite", "quadrics", "--N", "8"), False),
        (("verify", "--suite", "translation", "--N", "8"), False),
        (("verify", "--suite", "transform", "--N", "8"), False),
        (("verify", "--suite", "weierstrass", "--N", "4"), False),
        (("verify", "--suite", "all", "--N", "4"), False),
        (("verify", "--suite", "all", "--N", "12"), False),
        (("verify", "--suite", "quadrics", "--N", "8", "--samples", "64"), False),
        # quadrics and translation read numpy units of points past that
        (("verify", "--suite", "quadrics", "--N", "8", "--samples", "65"), True),
        (("verify", "--suite", "translation", "--N", "8", "--samples", "65"), True),
        # the Weierstrass check reads one point at a time at every count
        (("verify", "--suite", "weierstrass", "--N", "4", "--samples", "65"), False),
        (("verify", "--suite", "weierstrass", "--N", "4", "--samples", "3000"), False),
    ],
    ids=label,
)
def test_exact_commands_never_execute_numpy(argv, executed):
    proc = child("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {executed}"


@pytest.mark.parametrize("preset", [None, "2"])
def test_numpy_starts_openblas_with_one_thread_unless_preset(preset):
    env = ENV if preset is None else dict(ENV, OPENBLAS_NUM_THREADS=preset)
    argv = ("verify", "--suite", "quadrics", "--N", "8", "--samples", "65")
    proc = child("-c", BLAS_PROBE, *argv, env=env)
    assert proc.returncode == 0, proc.stderr
    code, executed, value, threads = proc.stdout.splitlines()[-1].split()
    assert (code, executed, value) == ("0", "True", preset or "1")
    if preset is None and threads != "None":
        assert threads == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ("qexp", "--object", "mu6", "--order", "400"),  # ends in the final flush
        ("verify", "--suite", "all", "--N", "4", "--format", "json"),
        ("verify", "--suite", "quadrics", "--N", "16", "--tol", "1e-15"),  # a check fails
        ("verify", "--suite", "rep", "--N", "3"),  # a configuration error
    ],
    ids=label,
)
def test_module_exits_with_the_code_and_output_of_main(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    proc = child("-m", "thetalab", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.out, out.err)


@pytest.mark.parametrize(
    "argv",
    [
        ("qexp", "--object", "lambda", "--order", "32"),  # fits the buffer: raises at the flush
        ("verify", "--suite", "translation", "--N", "4", "--format", "json"),
        ("qexp", "--object", "lambda", "--order", "600"),  # 20 kB: raises inside print
    ],
    ids=label,
)
def test_closed_stdout_exits_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe fails with EPIPE
    try:
        proc = child("-m", "thetalab", *argv, stdout=write_end, capture_output=False,
                     stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in proc.stderr and proc.stderr == ""
