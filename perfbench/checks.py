"""Output checks behind fail_rate, computed apart from the timed commands.

A task fails on a wrong output, an unexpected exit code or an exception.
Expected rows come from the theta route, computed here rather than read from
the command being checked; expected check counts come from the frozen tables
in tests/data/reference_tables.json, which this module only reads.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

# Largest |log(exact / main term)| accepted at a sample index n >= 10.  The
# main term is exact up to a factor 1 + O(1/n); the worst value seen across
# every family and transform at n = 10 is about 0.17.
LOG_RATIO_TOLERANCE = 0.5


class Reference:
    """Expected outputs: frozen bound tables and theta-route rows."""

    def __init__(self, tables_path: Path):
        with open(tables_path, encoding="utf-8") as fh:
            tables = json.load(fh)
        lo, _ = tables["n_bound_torus32t"]["t_range"]
        self.torus32t_bounds = {lo + i: v for i, v in enumerate(tables["n_bound_torus32t"]["values"])}
        self.torus2_bounds = {int(m): row for m, row in tables["n_bound_torus2"].items()}
        self._rows: dict[tuple, list[int]] = {}

    def theta_row(self, family: str, params: dict, n: int, transform: str) -> list[int]:
        """Theta-route coefficients 0..n of a member under a transform."""
        key = (family, tuple(sorted(params.items())), n, transform)
        if key not in self._rows:
            from habiro.families import FamilySpec, identity_for
            from habiro.qseries import binomial_transform, transform_g, transform_h
            from habiro.thetaside import b_sequence, c_sequence, xi_from_theta

            ident = identity_for(FamilySpec(family, **params))
            xi = xi_from_theta(b_sequence(ident, c_sequence(ident, n)), n)
            if transform == "inv-one-plus-q":
                # habiro-g rows are published under the unsigned binomial map
                xi = binomial_transform(xi) if family == "habiro-g" else transform_g(xi)
            elif transform == "ratio":
                xi = transform_h(xi)
            self._rows[key] = xi.integer_coeffs()
        return self._rows[key]


def _command_problem(out: dict, expected_rc: int = 0) -> str | None:
    if out["error"] is not None:
        return f"raised {out['error']}"
    if out["rc"] != expected_rc:
        return f"exit code {out['rc']}, expected {expected_rc}: {out['stderr'].strip()[:200]}"
    return None


def _check_crosscheck_expand(task: dict, outputs: list[dict], ref: Reference) -> list[str]:
    cross, expand = outputs
    problems = []
    n = task["N"]
    bad = _command_problem(cross)
    if bad:
        problems.append("crosscheck " + bad)
    elif cross["stdout"] != f"pass: {n + 1} coefficients agree\n":
        problems.append(f"crosscheck printed {cross['stdout'][:200]!r}")
    bad = _command_problem(expand)
    if bad:
        return problems + ["expand " + bad]
    try:
        row = [int(x) for x in expand["stdout"].strip().split(", ")]
    except ValueError:
        return problems + [f"expand printed a non-integer row {expand['stdout'][:200]!r}"]
    want = ref.theta_row(task["family"], task["params"], n, task["transform"])
    if row != want:
        first = next((i for i, (x, y) in enumerate(zip(row, want)) if x != y), min(len(row), len(want)))
        problems.append(f"expand row differs from the theta route at n={first} "
                        f"({len(row)} vs {len(want)} coefficients)")
    return problems


def _check_asym(task: dict, outputs: list[dict], ref: Reference) -> list[str]:
    (out,) = outputs
    bad = _command_problem(out)
    if bad:
        return [bad]
    rows = list(csv.reader(io.StringIO(out["stdout"])))
    if not rows or rows[0] != ["n", "digits", "log_ratio"]:
        return [f"asym header {rows[:1]!r}"]
    body = rows[1:]
    if [r[0] for r in body] != [str(n) for n in task["samples"]]:
        return [f"asym echoed indices {[r[0] for r in body]}, asked {task['samples']}"]
    problems = []
    for n, digits, log_ratio in body:
        if not digits.isdigit() or int(digits) < 1:
            problems.append(f"n={n}: digit count {digits!r}")
        try:
            ratio = float(log_ratio)
        except ValueError:
            problems.append(f"n={n}: log ratio {log_ratio!r}")
            continue
        if not abs(ratio) < LOG_RATIO_TOLERANCE:
            problems.append(f"n={n}: |log ratio| {abs(ratio)} >= {LOG_RATIO_TOLERANCE}")
    return problems


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split()]


def _check_verify(task: dict, outputs: list[dict], ref: Reference) -> list[str]:
    (out,) = outputs
    bad = _command_problem(out)
    if bad:
        return [bad]
    lines = out["stdout"].splitlines()
    if not lines or lines[-1] != "verdict: all proved-positive":
        return [f"verify verdict line {lines[-1:]!r}"]
    lo, hi = task["range"]
    keys = list(range(lo, hi + 1))
    try:
        if task["family"] == "torus2":
            # one row per m, one check count per ell
            counts = {}
            for line in lines[:-1]:
                head, _, rest = line.partition(": ")
                counts[int(head.removeprefix("m="))] = _ints(rest)
            if list(counts) != keys or any(len(counts[m]) != m for m in keys):
                return [f"verify rows cover m={list(counts)}, asked {lo}:{hi}"]
            expected = {m: ref.torus2_bounds[m] for m in keys if m in ref.torus2_bounds}
        else:
            head, counts_line = lines[:-1]
            shown = _ints(head.removeprefix(f"{task['varied']}: "))
            values = _ints(counts_line.removeprefix("N: "))
            if shown != keys or len(values) != len(keys):
                return [f"verify echoed {shown} with {len(values)} counts, asked {lo}:{hi}"]
            counts = dict(zip(keys, values))
            table = ref.torus32t_bounds if task["family"] == "torus32t" else {}
            expected = {k: table[k] for k in keys if k in table}
    except ValueError as exc:
        return [f"verify output unreadable ({exc}): {out['stdout'][:200]!r}"]
    problems = [f"{task['varied']}={k}: check count {counts[k]}, table says {v}"
                for k, v in expected.items() if counts[k] != v]
    if task["family"] == "torus32t" and values != sorted(values):
        # the check count grows as the tail margin sin(pi / 2**t) shrinks
        problems.append(f"torus32t check counts {values} fall as t grows")
    return problems


_CHECKS = {
    "crosscheck-expand": _check_crosscheck_expand,
    "asym": _check_asym,
    "verify": _check_verify,
}


def check_task(task: dict, outputs: list[dict], ref: Reference) -> list[str]:
    """Problems with one task's outputs; an empty list means it passed."""
    if len(outputs) != len(task["argv"]):
        return [f"{len(outputs)} outputs for {len(task['argv'])} commands"]
    return _CHECKS[task["kind"]](task, outputs, ref)
