"""The package's result and parameter records: value semantics, immutability,
and a start-up that loads neither the dataclasses/inspect import chain nor
mpmath, which the first interval operation imports."""

import copy
import json
import pickle
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

# record, arguments, arguments that differ in one place, public attributes;
# arguments in a dict are passed by keyword
RECORDS = [
    (FamilySpec, {"kind": "torus2", "m": 3, "ell": 1}, {"kind": "torus2", "m": 3, "ell": 2},
     ("kind", "args")),
    (PeriodicFunction, (4, ENTRIES), (8, ENTRIES), ("period", "entries")),
    (StrangeIdentity, (1, 24, 1, CHI), (1, 24, 0, CHI), ("a", "b", "nu", "f")),
    (PositivityVerdict, ((1, 0),), ((1, -1),), ("signs", "cap_message", "verdict")),
    (FamilyCertificate, (True, HALF, HALF, 2, 1, "r"), (True, HALF, HALF, 2, 1, "s"),
     ("certified", "c", "d", "modulus", "m0", "reason")),
    (AsymptoticProfile, (12, 24, 1, 1, ONE, TWO), (12, 24, 1, 2, ONE, TWO),
     ("period", "b", "nu", "k_nu", "g", "alpha1")),
    (RatioSample, (3, ONE), (3, None), ("n", "ratio")),
]


def _build(record, args):
    return record(**args) if isinstance(args, dict) else record(*args)


@pytest.mark.parametrize("record, args, other, attrs", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_compare_by_value_and_refuse_assignment(record, args, other, attrs):
    x, y = _build(record, args), _build(record, args)
    assert x == y and hash(x) == hash(y)
    assert x != _build(record, other)
    for name in attrs:
        value = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    assert x == y


@pytest.mark.parametrize("record, args, other, attrs", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_survive_pickle_and_copy(record, args, other, attrs):
    # IntervalReal compares by identity, so the unpickled record is compared by repr
    x = _build(record, args)
    y = copy.copy(x)
    assert type(y) is record and y == x and hash(y) == hash(x)
    z = pickle.loads(pickle.dumps(x))
    assert type(z) is record and repr(z) == repr(x)


def test_family_spec_by_keyword():
    params = {"m": 3, "ell": 1}
    spec = FamilySpec("torus2", **params)
    assert spec == FamilySpec(kind="torus2", m=3, ell=1) == FamilySpec("torus2", m=3, ell=1)
    assert spec.args == (3, 1) and spec.params() == params
    assert spec == FamilySpec("torus2", t=None, m=3, ell=1, k=None)  # None is not given
    assert FamilySpec._fields == ("kind", "args")


def test_family_spec_keeps_no_instance_dict():
    assert not hasattr(FamilySpec("torus2", m=3, ell=1), "__dict__")
    assert "__setattr__" not in FamilySpec.__dict__


@pytest.mark.parametrize("kind, params", [("torus2", {"m": 3, "ell": 1, "n": 2}),
                                          ("fishburn", {"tt": None}),
                                          ("torus", {"x": 1})])
def test_family_spec_refuses_an_unknown_keyword(kind, params):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        FamilySpec(kind, **params)
    with pytest.raises(TypeError):
        FamilySpec(kind, 3, 1)  # parameters are taken by name only


def _fresh(code: str, *args: str) -> str:
    """stdout of code run in a fresh isolated interpreter that imports habiro from src."""
    prelude = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
    out = subprocess.run([sys.executable, "-I", "-c", prelude + code, *args],
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout


def test_cli_import_skips_the_dataclasses_chain():
    # The modules are compared inside a fresh isolated interpreter, so an
    # environment that preloads one of them (a .pth file, say) cannot fail it.
    loaded = set(_fresh("before = set(sys.modules)\n"
                        "import habiro.cli\n"
                        "print(' '.join(sorted(set(sys.modules) - before)))\n").split())
    assert "habiro.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


# Runs each argv through habiro.cli.main and prints, per command, its exit
# code and whether mpmath has been imported by then.
_MAIN_LOADS_MPMATH = """
import contextlib, io, json
import habiro.cli
seen = [("import", None, "mpmath" in sys.modules)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = habiro.cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    seen.append((argv[0], code, "mpmath" in sys.modules))
print(json.dumps(seen))
"""


def test_exact_only_commands_never_load_mpmath(tmp_path):
    cache = ["--cache-dir", str(tmp_path)]
    members = (["fishburn"], ["torus32t", "--t", "2"], ["torus2", "--m", "2", "--ell", "1"],
               ["habiro-g", "--k", "2"])
    argvs = [[command, "--family", *member, "-N", "8", *cache]
             for member in members for command in ("crosscheck", "expand")]
    argvs += [["expand", "--family", "fishburn", "-N", "8", "--transform", name, *cache]
              for name in ("inv-one-plus-q", "ratio")]
    argvs += [["--help"], ["expand", "--help"], ["expand", "--family", "fishburn"]]
    seen = json.loads(_fresh(_MAIN_LOADS_MPMATH, json.dumps(argvs)))
    codes = [0] * (len(argvs) - 1) + [1]  # the last is a usage error
    assert seen == [["import", None, False]] + [[argv[0], code, False]
                                                for argv, code in zip(argvs, codes)]


def test_verify_sweeps_decided_by_exact_bounds_never_load_mpmath():
    # Every check-count step of these sweeps is decided by exact bounds, and
    # their sign tests are exact.
    argvs = [["verify", "--family", "torus2", "--m", "1:3"],
             ["verify", "--family", "torus2", "--m", "1:40"],
             ["verify", "--family", "torus32t", "--t", "60:152"],
             ["verify", "--family", "fishburn"]]
    seen = json.loads(_fresh(_MAIN_LOADS_MPMATH, json.dumps(argvs)))
    assert seen == [["import", None, False]] + [["verify", 0, False]] * len(argvs)


# A cap below the exact bounds' 32-bit floor leaves every check-count step to
# the interval ladder.
@pytest.mark.parametrize("argv", [["verify", "--family", "torus2", "--m", "1:6", "--precision-cap", "16"],
                                  ["asym", "--family", "fishburn", "--samples", "10,20"]],
                         ids=["verify", "asym"])
def test_interval_commands_load_mpmath_on_first_use(argv):
    seen = json.loads(_fresh(_MAIN_LOADS_MPMATH, json.dumps([argv])))
    assert seen == [["import", None, False], [argv[0], 0, True]]


# Each job makes its process's first interval operation; with "threads" the
# four start together behind a barrier.  The check counts run under a cap
# below the exact bounds' 32-bit floor, so they walk the interval ladder.
_FIRST_INTERVAL_CALLS = """
import json, threading
from habiro.exact import IntervalReal, zeta_interval
from habiro.families import FamilySpec
from habiro.signcheck import family_n_bound
jobs = [lambda: IntervalReal.pi(64), lambda: zeta_interval(3, 64),
        lambda: family_n_bound(FamilySpec("torus2", m=5, ell=1), cap=16),
        lambda: family_n_bound(FamilySpec("torus2", m=7, ell=3), cap=16)]
assert "mpmath" not in sys.modules
if sys.argv[1] == "serial":
    results = [repr(job()) for job in jobs]
else:
    sys.setswitchinterval(1e-5)
    barrier = threading.Barrier(len(jobs))
    results = [None] * len(jobs)
    def work(i):
        barrier.wait()
        try:
            results[i] = repr(jobs[i]())
        except Exception as err:
            results[i] = "raised " + repr(err)
    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
print(json.dumps(results))
"""


def test_simultaneous_first_interval_calls_match_serial():
    serial = json.loads(_fresh(_FIRST_INTERVAL_CALLS, "serial"))
    assert serial[0].startswith("IntervalReal([3.14159")
    for _ in range(3):
        assert json.loads(_fresh(_FIRST_INTERVAL_CALLS, "threads")) == serial
