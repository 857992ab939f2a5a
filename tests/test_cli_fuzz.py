"""The command-line contract of every command, fuzzed in-process.

Exit 0 means every check passed, 1 that a check failed (with a FAIL
record and no error line), 2 a usage or configuration error (with an
`error:` line); no draw may end in a traceback, and no error line shows
a raw (errno, text) tuple.  The drawn moduli reach the levels where
theta terms overflow and where theta values underflow."""

import contextlib
import io
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetalab.cli import _QEXP_OBJECTS, _SUITES, main


def _option(draw, argv, flag, values):
    value = draw(st.none() | values)
    if value is not None:
        argv += [flag, str(value)]


@st.composite
def commands(draw):
    """An argv for any command: mostly settings that run, some that a
    command rejects (N outside its levels, samples < 1, options it does
    not read)."""
    command = draw(st.sampled_from(("qexp", "verify", "invariants")))
    N = draw(st.sampled_from(range(17)))
    if command == "invariants":
        return ["invariants", "--family", draw(st.sampled_from(("gamma", "gammaN2N"))),
                "--N", str(N)]
    orders = st.integers(1, 200)
    if command == "qexp":
        obj = draw(st.sampled_from(tuple(_QEXP_OBJECTS)))
        argv = ["qexp", "--object", obj]
        if obj == "theta-null":
            argv += ["--N", str(N), "--k", str(draw(st.integers(-2, 18)))]
        _option(draw, argv, "--order", orders)
        return argv
    tau_re = draw(st.floats(-100, 100))
    # most draws below Im tau = 80, where the suites still run; a few up
    # to 1000, where they overflow or underflow
    tau_im = draw(st.floats(0.4, 80) | st.floats(0.4, 1000))
    argv = ["verify", "--suite", draw(st.sampled_from((*_SUITES, "all"))), "--N", str(N),
            f"--tau-re={tau_re!r}", f"--tau-im={tau_im!r}",
            "--samples", str(draw(st.sampled_from(range(-1, 51)))),
            "--seed", str(draw(st.integers(0, 2**32)))]
    _option(draw, argv, "--order", orders)
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(argv=commands())
# theta values that underflow in the transform ratios
@example(argv=["verify", "--suite", "transform", "--N", "16", "--tau-im", "66",
               "--samples", "8", "--seed", "0"])
# Hesse coordinates whose cubes overflow unless scaled
@example(argv=["verify", "--suite", "identities", "--N", "6", "--tau-im", "20",
               "--tau-re", "0.3", "--samples", "1", "--seed", "1"])
def test_every_command_keeps_the_exit_contract(argv):
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
    assert not any(re.search(r"\(\d+, '", line) for line in errors), (argv, err)
    if code == 2:
        assert errors, (argv, err)
    elif code == 1:
        assert "FAIL" in out and not errors, (argv, out, err)
    else:
        assert not errors and "FAIL" not in out, (argv, out, err)


def _rejected_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


# words that name no command, suite, object, family or format; none starts
# with "-", so argparse reads each as the value it replaces
_WORDS = st.sampled_from(("", "gama", "Verify", "qexp ", "lambda2", "all,rep", "0")) | st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-0123456789_", max_size=10
).filter(lambda w: not w.startswith("-"))
# values that neither int() nor float() reads; an argv mixes them with
# valid numbers, some huge, that argparse reads before it fails
_NON_NUMBERS = (st.sampled_from(("", "x", "4.5.", "1e", "--", "0x10", "1/2", "four", "1,5"))
                | st.text(max_size=6)).filter(_rejected_number)
_NUMBERS = st.integers(-5, 20) | st.integers(-10**40, 10**40)
# no prefix of any option (argparse reads a prefix as the option)
_UNKNOWN_FLAGS = st.sampled_from(("--level", "--samples-count", "--tau-imag", "--Nn", "-x", "--",
                                  "--tau", "--s", "--o", "--verbose", "-n"))
_NUMERIC_FLAGS = {
    "qexp": ("--N", "--order", "--k"),
    "verify": ("--N", "--order", "--tau-re", "--tau-im", "--tol", "--samples", "--seed"),
    "invariants": ("--N",),
}
_CHOICE_FLAGS = {
    "qexp": ("--object", "--format"),
    "verify": ("--suite", "--format"),
    "invariants": ("--family", "--format"),
}


@st.composite
def rejected_commands(draw):
    """An argv with one defect argparse rejects before any work starts:
    an unknown command or choice, a missing command, option or value, a
    non-numeric value, or an unknown flag."""
    command = draw(st.sampled_from(("qexp", "verify", "invariants")))
    argv = [command]
    for flag in _CHOICE_FLAGS[command]:
        choices = {"--object": tuple(_QEXP_OBJECTS), "--suite": (*_SUITES, "all"),
                   "--family": ("gamma", "gammaN2N"), "--format": ("text", "json")}[flag]
        argv += [flag, draw(st.sampled_from(choices))]
    for flag in _NUMERIC_FLAGS[command]:
        if draw(st.booleans()):
            argv += [flag, str(draw(_NUMBERS))]
    defect = draw(st.sampled_from(("command", "choice", "required", "value", "number", "flag")))
    if defect == "command":
        unknown = _WORDS.filter(lambda w: w not in _NUMERIC_FLAGS)
        argv = [] if draw(st.booleans()) else [draw(unknown), *argv[1:]]
    elif defect == "choice":
        i = argv.index(draw(st.sampled_from(_CHOICE_FLAGS[command])))
        argv[i + 1] = draw(_WORDS.filter(lambda w: w not in (*_QEXP_OBJECTS, *_SUITES, "all",
                                                            "gamma", "gammaN2N", "text", "json")))
    elif defect == "required":
        i = argv.index(_CHOICE_FLAGS[command][0])
        del argv[i:i + 2]
    elif defect == "value":
        argv.append(draw(st.sampled_from(_NUMERIC_FLAGS[command] + _CHOICE_FLAGS[command])))
    elif defect == "number":
        flag = draw(st.sampled_from(_NUMERIC_FLAGS[command]))
        argv += [flag, draw(_NON_NUMBERS)]
    else:
        argv.insert(draw(st.integers(1, len(argv))), draw(_UNKNOWN_FLAGS))
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(argv=rejected_commands())
def test_argv_that_argparse_rejects_is_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert (code, out) == (2, ""), (argv, code, out, err)
    assert "Traceback" not in err, argv
    assert any("error:" in line for line in err.splitlines()), (argv, err)
