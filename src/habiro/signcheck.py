"""Positivity certification: tail-bound constants, check counts, and sign tests.

A coefficient sequence is proved all-positive by bounding how many leading
terms control the sign (an interval computation) and then testing those terms
exactly through Bernoulli polynomial values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd

from mpmath.libmp import from_man_exp, mpf_ge, mpf_le, mpf_sub

# perfbench/tracing.py wraps bernoulli_poly here, so it stays bound though unused.
from habiro.exact import (
    DEFAULT_PRECISION,
    PRECISION_CAP,
    IntervalReal,
    PrecisionCapError,
    bernoulli_poly,
    decide_sign,
    signed_enclosure,
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
    gap = abs(signed_enclosure(lambda p: g_value(f, nu, k, p), min(precision, cap), cap,
                               "Fourier coefficient enclosure kept straddling zero"))
    return IntervalReal.from_rational(scale, gap.prec) / (
        gap * IntervalReal.from_int(f.period, gap.prec).sqrt()
    )


@lru_cache(maxsize=64)
def _one(prec: int) -> IntervalReal:
    """The exact 1 at a working precision, built once per precision."""
    return IntervalReal.from_int(1, prec)


def _holds_below_one(value, precision: int, what: str, cap: int) -> bool:
    """Rigorously decide value(prec) < 1, treating equality as failure."""
    return decide_sign(lambda p: value(p) - _one(p), min(precision, cap), cap, what) < 0


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


@lru_cache(maxsize=64)
def _pi(prec: int) -> IntervalReal:
    """The enclosure of pi at a working precision, built once per precision."""
    return IntervalReal.pi(prec)


@lru_cache(maxsize=4096)
def _sin_pi(num: int, den: int, prec: int) -> tuple:
    """sin(pi*num/den)'s endpoints at a working precision, built once per (angle, precision).

    The angle is keyed by its reduced numerator and denominator: a Fraction
    key would be rehashed on every lookup.  The bound holds every angle of a
    `--m 1:40` torus2 sweep at each precision it visits, so the members of
    repeated sweeps share their enclosures.
    """
    return (_pi(prec) * Fraction(num, den)).sin().ival


@lru_cache(maxsize=64)
def _cuts_from_one(prec: int) -> tuple:
    """1 - 2**-prec and 1 + 2**(1-prec): the prec-bit neighbours of 1."""
    return from_man_exp((1 << prec) - 1, -prec), from_man_exp((1 << (prec - 1)) + 1, 1 - prec)


def _excess_sign(zeta_and_sin: tuple) -> int:
    """Sign of the interval (zeta - S) - 1 IntervalReal builds at zeta's precision, 0 if it holds 0.

    With p bits, mpmath's correctly rounded subtractions give that difference
    a negative upper end exactly when zeta.hi - S.lo <= 1 - 2**-p, and a
    positive lower end exactly when zeta.lo - S.hi >= 1 + 2**(1-p).  So S's
    endpoints are compared with two exact cut points of zeta, and no interval
    is built.
    """
    zeta, (s_lo, s_hi) = zeta_and_sin
    below, above = _cuts_from_one(zeta.prec)
    z_lo, z_hi = zeta.ival
    if mpf_ge(s_lo, mpf_sub(z_hi, below)):
        return -1
    return int(mpf_le(s_hi, mpf_sub(z_lo, above)))


def family_n_bound(
    spec: FamilySpec, precision: int = DEFAULT_PRECISION, cap: int = PRECISION_CAP
) -> int:
    """Check count for a built-in family: the first n with zeta(2n+2) - sin(pi*theta) < 1."""
    if spec.kind == "habiro-g":
        return 1
    if spec.kind in ("fishburn", "torus32t"):
        t = 1 if spec.kind == "fishburn" else spec.t
        angle = Fraction(1, 2**t)
    else:
        angle = Fraction(spec.ell + 1, 2 * spec.m + 1)
    num, den = angle.numerator, angle.denominator

    n = 0

    def excess(prec: int) -> tuple:  # at the loop's current n
        return zeta_interval(2 * n + 2, prec), _sin_pi(num, den, prec)

    while decide_sign(excess, min(precision, cap), cap, f"check-count bound at n={n}",
                      _excess_sign) > 0:
        n += 1
    return n


def bernoulli_sign_test(ident: StrangeIdentity, n: int) -> int:
    """Exact sign of C_n, read from the unreduced Bernoulli sum of the weight.

    C_n is (-1)**(n+1) times a positive scale times that sum at s = 2n + nu + 1.
    """
    if n < 0:
        raise ValueError("sample index must be nonnegative")
    [(num, _)] = bernoulli_sum(ident.f, [2 * n + ident.nu + 1])
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
    """Certify that every coefficient of a built-in family is positive.

    The member's identity is built only when a sign test runs: with a check
    count of 0 the tail bound alone proves positivity.
    """
    try:
        n_used = family_n_bound(spec, precision, cap)
    except PrecisionCapError as err:
        return PositivityVerdict(
            spec.kind, spec.params(), 0, (), "undecided-at-precision-cap", str(err)
        )
    if n_used == 0:
        return PositivityVerdict(spec.kind, spec.params(), 0, (), "proved-positive")
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
