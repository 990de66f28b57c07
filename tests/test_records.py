"""The package's result and parameter records: value semantics, immutability,
and a start-up that does not load the dataclasses/inspect import chain."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from habiro.asym import AsymptoticProfile, RatioSample
from habiro.exact import IntervalReal
from habiro.families import FamilySpec
from habiro.signcheck import FamilyCertificate, PositivityVerdict
from habiro.thetaside import PeriodicFunction, StrangeIdentity, make_chi_t

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRIES = ((1, Fraction(1)), (3, Fraction(-1)))
CHI = make_chi_t(1)
ONE, TWO = IntervalReal.from_int(1), IntervalReal.from_int(2)
HALF = Fraction(1, 2)

# record, arguments, arguments that differ in one place, public attributes
RECORDS = [
    (FamilySpec, ("torus2", None, 3, 1), ("torus2", None, 3, 2),
     ("kind", "t", "m", "ell", "k", "args")),
    (PeriodicFunction, (4, ENTRIES), (8, ENTRIES), ("period", "entries")),
    (StrangeIdentity, (1, 24, 1, CHI), (1, 24, 0, CHI), ("a", "b", "nu", "f")),
    (PositivityVerdict, ((1, 0),), ((1, -1),), ("signs", "cap_message", "verdict")),
    (FamilyCertificate, (True, HALF, HALF, 2, 1, "r"), (True, HALF, HALF, 2, 1, "s"),
     ("certified", "c", "d", "modulus", "m0", "reason")),
    (AsymptoticProfile, (12, 24, 1, 1, ONE, TWO), (12, 24, 1, 2, ONE, TWO),
     ("period", "b", "nu", "k_nu", "g", "alpha1")),
    (RatioSample, (3, ONE), (3, None), ("n", "ratio")),
]


@pytest.mark.parametrize("record, args, other, attrs", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_compare_by_value_and_refuse_assignment(record, args, other, attrs):
    x, y = record(*args), record(*args)
    assert x == y and hash(x) == hash(y)
    assert x != record(*other)
    for name in attrs:
        value = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    assert x == y


def test_family_spec_by_keyword():
    params = {"m": 3, "ell": 1}
    spec = FamilySpec("torus2", **params)
    assert spec == FamilySpec(kind="torus2", m=3, ell=1) == FamilySpec.torus2(3, 1)
    assert spec.args == (3, 1) and spec.params() == params


def test_cli_import_skips_the_dataclasses_chain():
    # The modules are compared inside a fresh isolated interpreter, so an
    # environment that preloads one of them (a .pth file, say) cannot fail it.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import habiro.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True, timeout=60)
    loaded = set(out.stdout.split())
    assert "habiro.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
