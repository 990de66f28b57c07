"""Positivity certification: tail-bound constants, check counts, and sign tests.

A coefficient sequence is proved all-positive by bounding how many leading
terms control the sign (an interval computation) and then testing those terms
exactly through Bernoulli polynomial values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd

# perfbench/tracing.py wraps bernoulli_poly here, so it stays bound though unused.
from habiro.exact import (
    DEFAULT_PRECISION,
    PRECISION_CAP,
    IntervalReal,
    PrecisionCapError,
    bernoulli_poly,
    decide_sign,
    zeta_interval,
)
from habiro.families import FamilySpec, identity_for
from habiro.thetaside import (
    PeriodicFunction,
    StrangeIdentity,
    bernoulli_sum,
    find_k_nu,
    g_value,
)

VERDICTS = ("proved-positive", "condition-failed", "undecided-at-precision-cap")


def m_bound(
    f: PeriodicFunction,
    nu: int,
    precision: int = DEFAULT_PRECISION,
    cap: int = PRECISION_CAP,
) -> IntervalReal:
    """Enclosure of the constant dominating every |G(k)| relative to |G(k_nu)|."""
    k = find_k_nu(f, nu)
    scale = 2 * len(f.entries) * max([Fraction(1), *(abs(v) for _, v in f.entries)])
    prec = min(precision, cap)
    while True:
        gap = abs(g_value(f, nu, k, prec))
        if not gap.contains_zero():
            break
        if prec >= cap:
            raise PrecisionCapError("Fourier coefficient enclosure kept straddling zero", prec)
        prec = min(2 * prec, cap)
    return IntervalReal.from_rational(scale, prec) / (
        gap * IntervalReal.from_int(f.period, prec).sqrt()
    )


def _holds_below_one(value, precision: int, what: str, cap: int) -> bool:
    """Rigorously decide value(prec) < 1, treating equality as failure."""
    return decide_sign(lambda p: value(p) - 1, min(precision, cap), cap, what) < 0


def n_max(
    f: PeriodicFunction,
    nu: int,
    precision: int = DEFAULT_PRECISION,
    cap: int = PRECISION_CAP,
) -> int:
    """Smallest N with bound * (zeta(2n + nu + 1) - 1) < 1 for every n >= N."""
    bound = cache(lambda prec: m_bound(f, nu, prec, cap))  # one per precision, not per n

    def tail(n: int):
        s = 2 * n + nu + 1
        return lambda prec: bound(prec) * (zeta_interval(s, prec) - 1)

    n = 0 if nu == 1 else 1  # s = 1 has a divergent zeta value, so n = 0 never qualifies
    while not _holds_below_one(tail(n), precision, f"tail bound at n={n}", cap):
        n += 1
    return n


def family_n_bound(
    spec: FamilySpec, precision: int = DEFAULT_PRECISION, cap: int = PRECISION_CAP
) -> int:
    """Check count for a built-in family, from its sharpened tail inequality."""
    if spec.kind == "habiro-g":
        return 1
    if spec.kind in ("fishburn", "torus32t"):
        t = 1 if spec.kind == "fishburn" else spec.t
        angle = Fraction(1, 2**t)
    else:
        angle = Fraction(spec.ell + 1, 2 * spec.m + 1)

    def excess(n: int):
        def value(prec: int) -> IntervalReal:
            theta = IntervalReal.pi(prec) * angle
            return zeta_interval(2 * n + 2, prec) - theta.sin()

        return value

    n = 0
    while not _holds_below_one(excess(n), precision, f"check-count bound at n={n}", cap):
        n += 1
    return n


def bernoulli_sign_test(ident: StrangeIdentity, n: int) -> int:
    """Exact sign of C_n, read from the unreduced Bernoulli sum of the weight.

    C_n is (-1)**(n+1) times a positive scale times that sum at s = 2n + nu + 1.
    """
    if n < 0:
        raise ValueError("sample index must be nonnegative")
    num, _ = bernoulli_sum(ident.f, 2 * n + ident.nu + 1)
    sign = (num > 0) - (num < 0)
    return sign if n % 2 else -sign


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of a positivity run: which checks ran and what they decided."""

    family: str
    params: dict
    n_used: int
    checks: tuple[tuple[int, int, bool], ...]
    verdict: str
    note: str = ""

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError("unknown verdict")
        if self.verdict == "proved-positive" and not all(ok for _, _, ok in self.checks):
            raise ValueError("proved-positive requires every check to pass")

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "params": self.params,
            "N_used": self.n_used,
            "checks": [[n, sign, ok] for n, sign, ok in self.checks],
            "verdict": self.verdict,
        }
        if self.note:
            payload["note"] = self.note
        return json.dumps(payload)


def verdict_for_identity(
    family: str,
    params: dict,
    ident: StrangeIdentity,
    n_used: int,
) -> PositivityVerdict:
    """Run the leading sign tests and fold the results into a verdict.

    A zero test value counts as passing under the built-in families'
    nonnegativity phrasing.
    """
    checks = []
    notes = []
    for n in range(n_used):
        sign = bernoulli_sign_test(ident, n)
        if sign == 0:
            notes.append(f"sign test returned zero at n={n}; accepted as nonnegative")
        checks.append((n, sign, sign >= 0))
    verdict = "proved-positive" if all(ok for _, _, ok in checks) else "condition-failed"
    return PositivityVerdict(family, params, n_used, tuple(checks), verdict, "; ".join(notes))


def verify_positivity(
    spec: FamilySpec, precision: int = DEFAULT_PRECISION, cap: int = PRECISION_CAP
) -> PositivityVerdict:
    """Certify that every coefficient of a built-in family is positive."""
    try:
        n_used = family_n_bound(spec, precision, cap)
    except PrecisionCapError as err:
        return PositivityVerdict(
            spec.kind, spec.params(), 0, (), "undecided-at-precision-cap", str(err)
        )
    return verdict_for_identity(spec.kind, spec.params(), identity_for(spec), n_used)


@dataclass(frozen=True)
class FamilyCertificate:
    """Result of the residue-class certificate for nested-family positivity."""

    certified: bool
    c: Fraction
    d: Fraction
    modulus: int
    m0: int | None
    reason: str

    def members(self, count: int) -> list[tuple[int, int]]:
        """First few (m, ell) pairs of the certified family."""
        if not self.certified:
            raise ValueError("no members: " + self.reason)
        out = []
        m = self.m0
        while len(out) < count:
            out.append((m, int(self.c * m + self.d)))
            m += self.modulus
        return out


def infinite_family_check(p1: int, p2: int, q1: int) -> FamilyCertificate:
    """Certify positivity with zero checks for ell = (p1*m + p2)/q1 along a residue class."""
    if q1 < 1:
        raise ValueError("q1 must be positive")
    if gcd(gcd(p1, p2), q1) != 1:
        raise ValueError("p1, p2, q1 must share no common factor")
    c = Fraction(p1, q1)
    d = Fraction(p2, q1)

    def failure(reason: str) -> FamilyCertificate:
        return FamilyCertificate(False, c, d, q1, None, reason + "; not certified by this remark")

    m0 = next((m for m in range(1, q1 + 1) if (p1 * m + p2) % q1 == 0), None)
    if m0 is None:
        return failure("no residue class satisfies the congruence")
    if not Fraction(1, 2) <= c <= 1:
        return failure("slope lies outside [1/2, 1]")
    ell0 = c * m0 + d
    if not max(Fraction(0), Fraction(2 * m0 - 3, 4)) <= ell0 <= m0 - 1:
        return failure(f"anchor point m0={m0} violates the window inequality")
    return FamilyCertificate(
        True, c, d, q1, m0,
        f"ell = {c}*m + {d} certified for every m = {m0} mod {q1} with zero sign checks",
    )
