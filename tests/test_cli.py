"""Command-line behavior: outputs, formats, exit codes, cache wiring."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import habiro.cli as cli
import habiro.families as families
import habiro.thetaside as thetaside
from habiro.cli import main
from habiro.families import FamilySpec, expand_family
from habiro.qseries import TruncatedSeries
from habiro.signcheck import PositivityVerdict, verdicts_for_identities
from habiro.thetaside import StrangeIdentity
from tests.test_thetaside import periodic

pytestmark = pytest.mark.usefixtures("isolated_cache")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HABIRO_CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- usage errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["expand"],
        ["expand", "--family", "fishburn"],
        ["expand", "--family", "unknown", "-N", "3"],
        ["expand", "--family", "fishburn", "-N", "3", "--transform", "bogus"],
        ["expand", "--family", "fishburn", "-N", "x"],
        ["verify", "--family", "torus32t", "--t", "10:1"],
        ["asym", "--family", "fishburn", "--samples", ""],
    ],
)
def test_usage_errors_exit_one(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_one_process_runs_commands_in_sequence(capsys):
    # The parser is built once per process; one command's parse must not leak
    # into the next, whether it failed or set a format.
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--family", "fishburn", "-N", "x"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert run(capsys, "expand", "--family", "fishburn", "-N", "5") == (
        0, "1, 1, 2, 5, 15, 53\n", "")
    code, out, _ = run(capsys, "expand", "--family", "fishburn", "-N", "3", "--format", "json")
    assert code == 0 and json.loads(out)["coefficients"] == ["1", "1", "2", "5"]
    assert run(capsys, "expand", "--family", "fishburn", "-N", "3") == (0, "1, 1, 2, 5\n", "")


def test_parameter_errors_exit_one(capsys):
    code, _, err = run(capsys, "expand", "--family", "torus32t", "-N", "5")
    assert code == 1 and "needs parameter t" in err
    code, _, err = run(capsys, "expand", "--family", "fishburn", "--t", "2", "-N", "5")
    assert code == 1 and "does not take parameter" in err
    code, _, err = run(capsys, "verify", "--family", "torus2", "--m", "2", "--ell", "5")
    assert code == 1 and "ell must lie" in err
    code, _, err = run(capsys, "expand", "--family", "fishburn", "-N", "-1")
    assert code == 1 and "truncation order" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "torus32t", "--t", "1:3", "--k", "7"], "torus32t does not take parameter k"),
        (["--family", "habiro-g", "--k", "1:2", "--m", "4"], "habiro-g does not take parameter m"),
        (["--family", "torus2", "--m", "2:3", "--t", "9"], "torus2 does not take parameter t"),
        (["--family", "habiro-g", "--k", "1:2", "--ell", "0"], "habiro-g does not take parameter ell"),
        (["--family", "fishburn", "--t", "2"], "fishburn does not take parameter t"),
        (["--family", "torus32t"], "torus32t needs parameter t"),
        (["--family", "torus2", "--ell", "1"], "torus2 needs parameter m"),
        (["--family", "torus2", "--m", "0:2"], "m must be at least 1"),
    ],
)
def test_verify_rejects_bad_parameters(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["--family", "torus32t", "--t", "-3:5"], "t must be at least 1"),
    (["--family", "torus2", "--m", "-2:3"], "m must be at least 1"),
    (["--family", "habiro-g", "--k", "-1:4"], "k must be at least 1"),
])
def test_verify_span_after_a_space_reads_as_after_an_equals_sign(capsys, argv, message):
    # argparse alone would take '-3:5' after a space for an option
    *head, flag, span = argv
    results = []
    for spelling in ([flag, span], [f"{flag}={span}"]):
        code, out, err = run(capsys, "verify", *head, *spelling)
        assert code == 1 and out == "" and message in err
        results.append((code, err))
    assert results[0] == results[1]


def test_parameter_flags_come_from_the_family_table():
    # every subcommand takes the table's parameters; verify may sweep each
    # row's first, and a '-'-led value joins exactly those flags and --samples
    first = [family.params[0] for family in families.FAMILIES.values() if family.params]
    other = {"help", "family", "format", "cache_dir", "precision_cap", "transform", "N",
             "samples"}
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        names = [action.dest for action in parser._actions if action.dest not in other]
        assert sorted(names) == sorted(families.PARAMS), command
        if command == "verify":
            ranged = [action.dest for action in parser._actions if action.type is cli._span]
            assert ranged == first
        else:
            assert tuple(names) == families.PARAMS, command
    assert families.PARAMS == ("t", "m", "ell", "k")
    assert cli._DASHED_VALUES == ("--samples", *(f"--{name}" for name in first))


# -- expand ------------------------------------------------------------------


def test_expand_published_rows(capsys):
    code, out, _ = run(capsys, "expand", "--family", "torus32t", "--t", "3",
                       "--transform", "inv-one-plus-q", "-N", "7")
    assert code == 0
    assert out == "1, 7, 42, 329, 3395, 43638, 670663, 11980513\n"
    code, out, _ = run(capsys, "expand", "--family", "torus2", "--m", "5", "--ell", "3",
                       "--transform", "ratio", "-N", "7")
    assert code == 0
    assert out == "4, 28, 308, 4788, 95788, 2344076, 67828068, 2265402148\n"
    code, out, _ = run(capsys, "expand", "--family", "habiro-g", "--k", "5",
                       "--transform", "inv-one-plus-q", "-N", "7")
    assert code == 0
    assert out == "1, 5, 35, 355, 5180, 100346, 2413318, 69085190\n"


def test_expand_csv_cells_quoted(capsys):
    code, out, _ = run(capsys, "expand", "--family", "fishburn", "-N", "5",
                       "--format", "csv")
    assert code == 0
    assert out == (
        '"n","coefficient"\n'
        '"0","1"\n"1","1"\n"2","2"\n"3","5"\n"4","15"\n"5","53"\n'
    )


def test_expand_json_payload(capsys):
    code, out, _ = run(capsys, "expand", "--family", "torus32t", "--t", "2",
                       "-N", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "family": "torus32t",
        "params": {"t": 2},
        "transform": "one-minus-q",
        "N": 4,
        "coefficients": ["1", "3", "11", "50", "280"],
    }


def test_expand_deterministic_cold_and_warm(capsys, tmp_path):
    argv = ["expand", "--family", "torus32t", "--t", "2", "-N", "12",
            "--cache-dir", str(tmp_path), "--format", "csv"]
    cold = run(capsys, *argv)
    assert (tmp_path / "torus32t-t2.json").exists()
    warm = run(capsys, *argv)
    assert cold == warm and cold[0] == 0


def test_cache_dir_flag_beats_environment(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("HABIRO_CACHE_DIR", str(env_dir))
    run(capsys, "expand", "--family", "fishburn", "-N", "4",
        "--cache-dir", str(flag_dir))
    assert (flag_dir / "fishburn.json").exists()
    assert not env_dir.exists()
    run(capsys, "expand", "--family", "fishburn", "-N", "4")
    assert (env_dir / "fishburn.json").exists()


def test_cache_dir_defaults_under_home(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("HABIRO_CACHE_DIR", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    run(capsys, "expand", "--family", "fishburn", "-N", "4")
    assert (tmp_path / ".cache" / "habiro" / "fishburn.json").exists()


# -- crosscheck --------------------------------------------------------------


def test_crosscheck_passes(capsys):
    code, out, _ = run(capsys, "crosscheck", "--family", "fishburn", "-N", "20")
    assert code == 0 and out == "pass: 21 coefficients agree\n"
    code, out, _ = run(capsys, "crosscheck", "--family", "torus32t", "--t", "3",
                       "-N", "15")
    assert code == 0 and out.startswith("pass")


@pytest.mark.parametrize("command", ["crosscheck", "expand"])
def test_torus32t_over_budget_exits_one_at_once(capsys, command):
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--family", "torus32t", "--t", "20", "-N", "10")
    elapsed = time.perf_counter() - start
    assert code == 1 and out == ""
    assert "t=20, N=10 exceeds its cost budget" in err
    assert elapsed < 0.5


HUGE_N = str(10**20)


@pytest.mark.parametrize("argv", [
    ["expand", "--family", "fishburn", "-N", HUGE_N],
    ["crosscheck", "--family", "fishburn", "-N", HUGE_N],
    ["asym", "--family", "fishburn", "--samples", "10", "-N", HUGE_N],
    ["expand", "--family", "torus2", "--m", "2", "--ell", "1", "-N", HUGE_N],
    ["crosscheck", "--family", "habiro-g", "--k", "2", "-N", HUGE_N],
])
def test_an_order_past_the_index_range_is_one_error_line(capsys, argv):
    # The expansion's first list, [[1]] * (N + D + 1), overflows before
    # anything is allocated.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "habiro: error: cannot fit 'int' into an index-sized integer\n"


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "torus32t", "--t", HUGE_N],
    ["asym", "--family", "torus32t", "--t", HUGE_N, "--samples", "1"],
    ["asym", "--family", "fishburn", "--samples", HUGE_N],
])
def test_a_huge_t_or_sample_index_is_one_error_line_at_once(argv):
    # 2**t and the index list of C raise before they allocate anything; under
    # a 1 GB address space a run that builds them instead runs out of memory
    # only after many seconds.
    pytest.importorskip("resource")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "habiro.cli", *argv], capture_output=True,
                          text=True, timeout=10, preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout) == (1, "")
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("habiro: error:")
    assert elapsed < 5


@pytest.mark.parametrize("command", ["expand", "crosscheck"])
def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch, command):
    def exhausted(*args, **kwargs):
        raise MemoryError  # as a failed allocation raises it, without text

    monkeypatch.setattr(cli, "cached_expansion", exhausted)
    assert run(capsys, command, "--family", "fishburn", "-N", "5") == (
        1, "", "habiro: error: out of memory\n")


def test_crosscheck_reports_first_mismatch(capsys, monkeypatch):
    real = cli._theta_series

    def perturbed(spec, order):
        out = real(spec, order).integer_coeffs()
        out[3] += 1
        return TruncatedSeries(out)

    monkeypatch.setattr(cli, "_theta_series", perturbed)
    code, out, _ = run(capsys, "crosscheck", "--family", "fishburn", "-N", "8")
    assert code == 2
    assert out == "mismatch at n=3: direct 5, theta-side 6\n"
    code, out, _ = run(capsys, "crosscheck", "--family", "fishburn", "-N", "8",
                       "--format", "json")
    assert code == 2
    data = json.loads(out)
    assert data["status"] == "mismatch"
    assert data["index"] == 3 and data["direct"] == "5" and data["theta"] == "6"


def _counting_expand(monkeypatch):
    calls = []
    real = families.expand_family

    def counted(spec, N):
        calls.append((spec, N))
        return real(spec, N)

    monkeypatch.setattr(families, "expand_family", counted)
    return calls


def test_crosscheck_expands_fresh_even_when_cached(capsys, tmp_path, monkeypatch):
    cache = ["--cache-dir", str(tmp_path)]
    run(capsys, "expand", "--family", "torus2", "--m", "2", "--ell", "1", "-N", "15", *cache)
    calls = _counting_expand(monkeypatch)
    code, out, _ = run(capsys, "crosscheck", "--family", "torus2", "--m", "2", "--ell", "1",
                       "-N", "10", *cache)
    assert code == 0 and out == "pass: 11 coefficients agree\n"
    assert [n for _, n in calls] == [10]
    # the longer stored row is kept
    assert json.loads((tmp_path / "torus2-m2-ell1.json").read_text())["N"] == 15


def test_crosscheck_fills_the_cache_for_expand(capsys, tmp_path, monkeypatch):
    cache = ["--cache-dir", str(tmp_path)]
    code, _, _ = run(capsys, "crosscheck", "--family", "habiro-g", "--k", "2", "-N", "12", *cache)
    assert code == 0
    calls = _counting_expand(monkeypatch)
    code, out, _ = run(capsys, "expand", "--family", "habiro-g", "--k", "2", "-N", "12", *cache)
    assert code == 0 and calls == []
    assert out.startswith("1, ")


def test_crosscheck_rejects_a_tampered_cache_row(capsys, tmp_path):
    cache = ["--cache-dir", str(tmp_path)]
    run(capsys, "expand", "--family", "torus2", "--m", "2", "--ell", "1", "-N", "15", *cache)
    path = tmp_path / "torus2-m2-ell1.json"
    data = json.loads(path.read_text())
    data["coefficients"][5] = "967"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "crosscheck", "--family", "torus2", "--m", "2", "--ell", "1",
                         "-N", "10", *cache)
    assert code == 1 and out == ""
    assert str(path) in err and "disagrees" in err


def test_crosscheck_overwrites_a_row_of_another_format(capsys, tmp_path):
    cache = ["--cache-dir", str(tmp_path)]
    path = tmp_path / "fishburn.json"
    for version in ({}, {"format": 999}):
        path.write_text(json.dumps({**version, "family": "fishburn", "params": {},
                                    "N": 20, "coefficients": ["7"] * 21}))
        code, out, err = run(capsys, "crosscheck", "--family", "fishburn", "-N", "8", *cache)
        assert (code, out, err) == (0, "pass: 9 coefficients agree\n", "")
        data = json.loads(path.read_text())
        assert data["format"] == families.CACHE_FORMAT
        assert data["N"] == 8 and data["coefficients"][:6] == ["1", "1", "2", "5", "15", "53"]



# Fishburn's row to N = 4 is 1, 1, 2, 5, 15.  int() reads each of these into
# a wrong row, but _write_cache writes none of them.
@pytest.mark.parametrize("N, coefficients", [
    (4, "12345"),
    (4, [1.9, 1.9, 1.9, 5.5, 15.5]),
    (4, [True, True, True, True, True]),
    (4, ["1", "1", " 3 ", "5", "15"]),
    (4, ["1", "1", "2", "5", "1_6"]),
    (4, ["1", "1", "+3", "5", "15"]),
    (4, ["1", "1", "02", "5", "16"]),
    (4, ["1", "-0", "2", "5", "15"]),
    (4, ["1", "1", "2", "5", "\u0661\u0666"]),
    (True, ["1", "7"]),
], ids=["digit-string", "floats", "booleans", "padded", "underscore", "plus-sign",
        "leading-zero", "minus-zero", "non-ascii-digits", "boolean-N"])
def test_cache_rows_not_written_by_the_cache_count_as_absent(capsys, tmp_path, N, coefficients):
    cache = ["--cache-dir", str(tmp_path)]
    path = tmp_path / "fishburn.json"
    bad = json.dumps({"format": families.CACHE_FORMAT, "family": "fishburn", "params": {},
                      "N": N, "coefficients": coefficients})
    for argv, expected in ((["expand", "--family", "fishburn", "-N", "4"], "1, 1, 2, 5, 15\n"),
                           (["crosscheck", "--family", "fishburn", "-N", "4"],
                            "pass: 5 coefficients agree\n")):
        path.write_text(bad)
        assert run(capsys, *argv, *cache) == (0, expected, "")
        data = json.loads(path.read_text())
        assert (data["N"], data["coefficients"]) == (4, ["1", "1", "2", "5", "15"])

# -- verify ------------------------------------------------------------------


def test_verify_reproduces_first_bound_table(capsys):
    code, out, _ = run(capsys, "verify", "--family", "torus32t", "--t", "1:10")
    assert code == 0
    assert out == (
        "t: 1 2 3 4 5 6 7 8 9 10\n"
        "N: 0 0 1 1 1 2 2 3 3 4\n"
        "verdict: all proved-positive\n"
    )


def test_verify_reproduces_second_bound_table(capsys):
    code, out, _ = run(capsys, "verify", "--family", "torus2", "--m", "1:5")
    assert code == 0
    assert out == (
        "m=1: 0\n"
        "m=2: 1 0\n"
        "m=3: 1 0 0\n"
        "m=4: 1 1 0 0\n"
        "m=5: 1 1 0 0 0\n"
        "verdict: all proved-positive\n"
    )


def test_verify_odd_weight_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--family", "habiro-g", "--k", "1:50")
    assert code == 0
    assert "verdict: all proved-positive" in out


def test_verify_single_values_and_csv(capsys):
    code, out, _ = run(capsys, "verify", "--family", "fishburn")
    assert code == 0 and out == "N: 0\nverdict: all proved-positive\n"
    code, out, _ = run(capsys, "verify", "--family", "torus2", "--m", "2",
                       "--ell", "1", "--format", "csv")
    assert code == 0
    assert out == '"family","N","verdict"\n"torus2(m=2, ell=1)","0","proved-positive"\n'


def test_verify_json_rows(capsys):
    code, out, _ = run(capsys, "verify", "--family", "torus32t", "--t", "3:4",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["params"] for r in rows] == [{"t": 3}, {"t": 4}]
    assert all(r["verdict"] == "proved-positive" for r in rows)
    assert rows[0]["N_used"] == 1 and rows[0]["checks"] == [[0, 1, True]]


def test_verdict_json_records_each_sign_test():
    # A verdict keeps only its signs; the JSON row gives each test's index and pass flag.
    custom = SimpleNamespace(kind="custom", params=dict)
    v = PositivityVerdict((1, 0, -1))
    assert cli._verdict_json(custom, v)["checks"] == [[0, 1, True], [1, 0, True], [2, -1, False]]
    # A zero sign test passes, and its note closes the row.
    zero_ident = StrangeIdentity(0, 1, 0, periodic((0, 1, -2, 1)))
    [zero] = verdicts_for_identities([(zero_ident, 1)])
    row = cli._verdict_json(custom, zero)
    assert list(row.items()) == [
        ("family", "custom"), ("params", {}), ("N_used", 1), ("checks", [[0, 0, True]]),
        ("verdict", "proved-positive"),
        ("note", "sign test returned zero at n=0; accepted as nonnegative")]


VERIFY_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "verify_digests.json").read_text())["runs"]


@pytest.mark.parametrize("entry", [
    pytest.param(e, marks=[pytest.mark.slow] if e.get("slow") else [], id=" ".join(e["args"]))
    for e in VERIFY_DIGESTS
])
def test_verify_json_matches_frozen_digest(capsys, entry):
    code, out, err = run(capsys, "verify", *entry["args"], "--format", "json")
    assert code == entry.get("exit", 0) and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == entry["digest"]


@pytest.mark.parametrize("entry", [
    pytest.param(e, id=" ".join(e["args"]))
    for e in VERIFY_DIGESTS if "--precision-cap" in e["args"] and not e.get("slow")
])
def test_capped_verify_replays_its_bytes(capsys, entry):
    # An uncapped run of the same members memoizes their counts first; the
    # capped sweep then runs twice, the second time reading every count back
    # from the memo and walking again to every cap failure.
    args = entry["args"]
    cut = args.index("--precision-cap")
    run(capsys, "verify", *args[:cut], *args[cut + 2:], "--format", "json")
    for _ in range(2):
        code, out, err = run(capsys, "verify", *args, "--format", "json")
        assert code == entry.get("exit", 0) and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == entry["digest"]


def test_verify_sign_tests_build_no_full_anchor_sums(capsys, monkeypatch, exact_exits):
    # From t = 63 the period is divisible by 2**64 and the sign tests take the
    # anchor route; they must read only the leading terms, never every term.
    entries = []
    real = thetaside._top_terms

    def recorded(s, q1, pattern):
        entry = real(s, q1, pattern)
        entries.append((s, entry[0]))
        return entry

    real.cache_clear()
    monkeypatch.setattr(thetaside, "_top_terms", recorded)
    code, out, err = run(capsys, "verify", "--family", "torus32t", "--t", "63:70",
                         "--format", "json")
    assert code == 0 and err == ""
    rows = json.loads(out)
    assert [r["N_used"] for r in rows] == [30, 31, 31, 32, 32, 33, 33, 34]
    assert all(r["verdict"] == "proved-positive" and "note" not in r for r in rows)
    assert all(sign == 1 for r in rows for _, sign, _ in r["checks"])
    assert len(entries) == sum(r["N_used"] for r in rows)
    assert all(len(terms) == min(4, s + 1) for s, terms in entries)
    assert exact_exits == []


def test_verify_sign_tests_decide_from_the_leading_terms(capsys, exact_exits):
    # Every sign test of this window is decided within thetaside._TOP_TERMS
    # terms; a change to the terms kept or to the bound that left them
    # undecided would turn each test into a full exact sum.
    code, _, err = run(capsys, "verify", "--family", "torus32t", "--t", "63:120")
    assert code == 0 and err == ""
    assert exact_exits == []


def test_verify_tiny_precision_cap_is_undecided(capsys):
    code, out, _ = run(capsys, "verify", "--family", "torus32t", "--t", "2",
                       "--precision-cap", "4")
    assert code == 3
    assert "N: -" in out
    assert "undecided-at-precision-cap" in out


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command", [
    ["verify", "--family", "torus32t", "--t", "3"],
    ["asym", "--family", "fishburn", "--samples", "10"],
])
def test_precision_cap_below_one_is_a_usage_error(capsys, command, cap):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--precision-cap", cap])
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    assert f"precision cap must be at least 1 bit: '{cap}'" in out.err


# -- asym --------------------------------------------------------------------


def test_asym_tiny_precision_cap_exits_three(capsys):
    code, out, err = run(capsys, "asym", "--family", "torus32t", "--t", "3",
                         "--samples", "10", "--precision-cap", "4")
    assert code == 3 and out == ""
    assert "Fourier coefficient enclosure kept straddling zero" in err


def test_asym_csv_ratios_shrink(capsys):
    code, out, _ = run(capsys, "asym", "--family", "fishburn",
                       "--samples", "50,100,150")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '"n","digits","log_ratio"'
    rows = [line.replace('"', "").split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["50", "100", "150"]
    logs = [abs(float(r[2])) for r in rows]
    assert logs[0] > logs[1] > logs[2]
    assert abs(math.exp(-logs[2]) - 1) < 0.03
    digits = [int(r[1]) for r in rows]
    assert digits[0] > 50 and digits[2] > digits[1] > digits[0]


def test_asym_direct_route_matches_theta_route(capsys, tmp_path):
    theta = run(capsys, "asym", "--family", "fishburn", "--samples", "8,16")
    direct = run(capsys, "asym", "--family", "fishburn", "--samples", "8,16",
                 "-N", "16", "--cache-dir", str(tmp_path))
    assert theta == direct


def test_asym_demands_covering_order(capsys):
    code, _, err = run(capsys, "asym", "--family", "fishburn",
                       "--samples", "16", "-N", "10")
    assert code == 1 and "cover" in err


@pytest.mark.parametrize("flag", ["--samples=", "--samples", "--sam"])
@pytest.mark.parametrize("samples", ["-5,10", "0,10", "-3", "-5,-1", "-3,4"])
def test_asym_rejects_sample_index_below_one(capsys, samples, flag):
    # a negative index must not pass for a zero coefficient, nor reach the
    # theta route as a negative count; argparse alone would take '-3,4' after
    # a space for an option and never show it to the index check
    spelling = [flag + samples] if flag.endswith("=") else [flag, samples]
    with pytest.raises(SystemExit) as exc:
        main(["asym", "--family", "fishburn", *spelling])
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    assert f"sample index n must be at least 1: {samples!r}" in out.err


def test_asym_samples_missing_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asym", "--family", "fishburn", "--samples", "--format", "csv"])
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    assert out.err.endswith("argument --samples: expected one argument\n")


def test_asym_transform_diagnostics_converge(capsys):
    code, out, _ = run(capsys, "asym", "--family", "torus2", "--m", "2", "--ell", "1",
                       "--transform", "inv-one-plus-q", "--samples", "32,64",
                       "--format", "json")
    assert code == 0
    samples = json.loads(out)["samples"]
    assert abs(samples[1]["log_ratio"]) < abs(samples[0]["log_ratio"])
    code, out, _ = run(capsys, "asym", "--family", "fishburn",
                       "--transform", "ratio", "--samples", "32,64",
                       "--format", "json")
    assert code == 0
    samples = json.loads(out)["samples"]
    assert abs(samples[1]["log_ratio"]) < abs(samples[0]["log_ratio"])


@pytest.mark.parametrize("transform, name", [("inv-one-plus-q", "transform_g"),
                                             ("ratio", "transform_h")])
def test_transform_rows_call_the_function_bound_at_call_time(capsys, monkeypatch,
                                                             transform, name):
    # perfbench/tracing.py rebinds the transforms on habiro.cli; a row table
    # holding the functions it was built with would bypass the wrapper
    calls = []
    real = getattr(cli, name)

    def counted(xi):
        calls.append(len(xi) - 1)
        return real(xi)

    monkeypatch.setattr(cli, name, counted)
    for argv in (["expand", "-N", "6"], ["asym", "--samples", "10"]):
        before = len(calls)
        assert run(capsys, *argv, "--family", "fishburn", "--transform", transform)[0] == 0
        assert len(calls) > before, argv[0]


def test_habiro_g_inv_one_plus_q_rows(capsys):
    # expand prints the published unsigned binomial row; asym diagnoses the
    # alternating row, the one the g main term describes.
    code, out, _ = run(capsys, "expand", "--family", "habiro-g", "--k", "2",
                       "--transform", "inv-one-plus-q", "-N", "7")
    assert code == 0
    assert out == "1, 2, 8, 42, 293, 2630, 29054, 380894\n"
    code, out, _ = run(capsys, "asym", "--family", "habiro-g", "--k", "2",
                       "--transform", "inv-one-plus-q", "--samples", "16,64",
                       "--format", "json")
    assert code == 0
    samples = json.loads(out)["samples"]
    assert abs(samples[1]["log_ratio"]) < abs(samples[0]["log_ratio"])


def test_asym_plain_format(capsys):
    code, out, _ = run(capsys, "asym", "--family", "habiro-g", "--k", "1",
                       "--samples", "16", "--format", "plain")
    assert code == 0
    assert out.startswith("n=16 digits=15 log_ratio=")


@pytest.mark.parametrize("spec", [FamilySpec("fishburn"), FamilySpec("torus32t", t=2),
                                  FamilySpec("torus2", m=3, ell=1), FamilySpec("habiro-g", k=2)])
def test_both_routes_build_int_coefficients(spec):
    # nothing converts entries on the way to _decimal_digits, which takes ints
    for series in (expand_family(spec, 12), cli._theta_series(spec, 12)):
        assert all(type(c) is int for c in series)


def test_decimal_digits_matches_str():
    # Raise CPython's int -> str cap (4,300 digits) for the reference only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert cli._decimal_digits(0) == 1
        for j in [*range(1000), *range(1000, 5001, 7), *range(4295, 4306)]:
            power = 10**j
            for c in (power - 1, power, power + 1):
                assert cli._decimal_digits(c) == cli._decimal_digits(-c) == len(str(c)), j
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_asym_digits_past_the_int_string_limit(capsys):
    # coefficient 50 of torus32t(300) has 4,556 digits; str() would refuse it
    code, out, err = run(capsys, "asym", "--family", "torus32t", "--t", "300",
                         "--samples", "50", "--format", "plain")
    assert (code, err) == (0, "")
    assert out.startswith("n=50 digits=4556 log_ratio=")


@pytest.mark.parametrize("argv, rows", [
    (["--family", "torus2", "--m", "1000000000000", "--ell", "0", "--samples", "1,2"],
     ['"1","13",', '"2","25",']),
    (["--family", "habiro-g", "--k", "1000000000000", "--samples", "1"], ['"1","13",']),
])
def test_asym_at_a_period_past_10_to_the_12(capsys, argv, rows):
    # find_k_nu's zero test costs what its few terms cost, not the period
    code, out, err = run(capsys, "asym", *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == '"n","digits","log_ratio"' and len(lines) == len(rows) + 1
    assert all(line.startswith(row) for line, row in zip(lines[1:], rows))


def test_asym_deep_torus_member(capsys):
    # period 3*2**31: k_nu comes from the sparse zero test, not a dense vector
    code, out, _ = run(capsys, "asym", "--family", "torus32t", "--t", "30",
                       "--samples", "10,20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '"n","digits","log_ratio"'
    assert [line.split(",")[0] for line in lines[1:]] == ['"10"', '"20"']
