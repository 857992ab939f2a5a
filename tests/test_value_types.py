"""The value types: equal values compare and hash equal, fields cannot be
assigned, and the validating constructors still reject bad input.  And
importing the CLI runs no dataclass machinery."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from thetalab.congruence import SubgroupSpec, TorsionPoint
from thetalab.projective import SL2Word
from thetalab.theta import ThetaContext

SRC = Path(__file__).resolve().parent.parent / "src"

# (build, field, others): build() returns a new instance at each call,
# field is one of its fields, and each of others differs from it
EQUAL_VALUES = [
    (lambda: ThetaContext(4, 1j, 1e-10), "tol", [ThetaContext(4, 1j, 1e-9), ThetaContext(5, 1j)]),
    (lambda: TorsionPoint(Fraction(5, 4), 0, 4), "u", [TorsionPoint(Fraction(1, 2), 0, 4)]),
    (lambda: SubgroupSpec("gammaN2N", 4), "N", [SubgroupSpec("gamma", 4), SubgroupSpec("gammaN2N", 6)]),
    (lambda: SL2Word((("A", 1), ("B", -2))), "letters", [SL2Word((("A", 1),))]),
]
IDS = ["ThetaContext", "TorsionPoint", "SubgroupSpec", "SL2Word"]


@pytest.mark.parametrize("build, field, others", EQUAL_VALUES, ids=IDS)
def test_equal_values_compare_and_hash_equal(build, field, others):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for other in others:
        assert a != other


@pytest.mark.parametrize("build, field, others", EQUAL_VALUES, ids=IDS)
def test_fields_cannot_be_assigned(build, field, others):
    value = build()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, others[0])
    assert getattr(value, field) == before


def test_normalising_constructors():
    assert TorsionPoint(Fraction(5, 4), Fraction(-1, 4), 4) == TorsionPoint(Fraction(1, 4), Fraction(3, 4), 4)
    ctx = ThetaContext(4, 1j)
    assert ctx.tol == 1e-10 and ctx.n_radius > 0
    assert ctx.with_tau(2j) == ThetaContext(4, 2j, 1e-10)


def test_validating_constructors_still_raise():
    with pytest.raises(ValueError, match="positive"):
        ThetaContext(0, 1j)
    with pytest.raises(ValueError, match="Im tau"):
        ThetaContext(4, 1.0 + 0j)
    with pytest.raises(ValueError, match="tol"):
        ThetaContext(4, 1j, -1.0)
    with pytest.raises(ValueError, match="unreachable"):
        ThetaContext(4, 1e-07j, 1e-10)
    with pytest.raises(ValueError, match="torsion"):
        TorsionPoint(Fraction(1, 3), 0, 2)


def test_cli_import_runs_no_dataclass_machinery():
    code = "import sys, thetalab.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False", out.stderr
