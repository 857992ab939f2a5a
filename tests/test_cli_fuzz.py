"""The command-line contract of the identities suite, fuzzed in-process.

Exit 0 means every check passed, 1 that a check failed (with a FAIL
record and no error line), 2 a usage or configuration error (with an
`error:` line); no draw may end in a traceback.  The drawn moduli reach
the levels where theta terms overflow and where theta nulls underflow."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab.cli import main


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    N=st.integers(4, 8),
    tau_re=st.floats(-100, 100),
    tau_im=st.floats(0.4, 1000),
    samples=st.integers(-1, 50),
    order=st.none() | st.integers(1, 200),
    seed=st.integers(0, 2**32),
)
def test_identities_suite_keeps_the_exit_contract(N, tau_re, tau_im, samples, order, seed):
    argv = ["verify", "--suite", "identities", "--N", str(N), f"--tau-re={tau_re!r}",
            f"--tau-im={tau_im!r}", "--samples", str(samples), "--seed", str(seed)]
    if order is not None:
        argv += ["--order", str(order)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 2:
        assert errors, (argv, err)
    elif code == 1:
        assert "FAIL" in out and not errors, (argv, out, err)
    else:
        assert not errors and "FAIL" not in out, (argv, out, err)
