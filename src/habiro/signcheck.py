"""Positivity certification: tail-bound constants, check counts, and sign tests.

A coefficient sequence is proved all-positive by bounding how many leading
terms control the sign (an interval computation) and then testing those terms
exactly through Bernoulli polynomial values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import gcd
from typing import Callable, NamedTuple

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
from habiro.exact.intervals import cut_points, excess_sign
from habiro.families import FAMILIES, FamilySpec, identity_for
from habiro.thetaside import (
    PeriodicFunction,
    StrangeIdentity,
    bernoulli_sign,
    find_k_nu,
    g_value,
)


def m_bound(
    f: PeriodicFunction,
    nu: int,
    precision: int = DEFAULT_PRECISION,
    cap: int = PRECISION_CAP,
) -> IntervalReal:
    """Enclosure of the constant dominating every |G(k)| relative to |G(k_nu)|."""
    k = find_k_nu(f, nu)
    scale = 2 * len(f.entries) * max([Fraction(1), *(abs(v) for _, v in f.entries)])
    gap = abs(signed_enclosure(lambda p: g_value(f, nu, k, p), precision, cap,
                               "Fourier coefficient enclosure kept straddling zero"))
    return IntervalReal.from_rational(scale, gap.prec) / (
        gap * IntervalReal.from_int(f.period, gap.prec).sqrt()
    )


def n_max(f: PeriodicFunction, nu: int) -> int:
    """Smallest N with bound * (zeta(2n + nu + 1) - 1) < 1 for every n >= N, that is
    zeta(2n + nu + 1) - 1/bound < 1: the check count's walk with 1/bound for sin(pi*theta)."""
    # one per precision, not per n; m_bound may enclose it at more bits than zeta
    inverse = cache(lambda prec: (1 / m_bound(f, nu, prec, PRECISION_CAP)).ival)
    # s = 1 has a divergent zeta value, so an odd weight starts at n = 1
    return _walk(0 if nu == 1 else 1, nu + 1, inverse, PRECISION_CAP, "tail bound")


# Each member of a verify sweep walks the same (s, prec) keys from n = 0, so the
# bound must hold the widest member's walk, or every key is evicted before the
# next member reads it.  torus32t(t) walks 1,535 keys at t = 800 and 5,028 at
# t = 2000.
@lru_cache(maxsize=8192)
def _zeta_cuts(s: int, prec: int) -> tuple:
    """The cut points of zeta(s)'s enclosure at prec bits, built once per (s, prec)."""
    return cut_points(zeta_interval(s, prec))


def _walk(n: int, shift: int, target: Callable[[int], tuple], cap: int, what: str) -> int:
    """First n from the given one with zeta(2n + shift) - S < 1, S's endpoints target(prec).

    Raises PrecisionCapError naming what and n when the cap leaves a sign undecided."""
    def excess(prec: int) -> tuple:  # at the loop's current n
        return _zeta_cuts(2 * n + shift, prec), target(prec)

    def message() -> str:  # formatted only at the cap
        return f"{what} at n={n}"

    while decide_sign(excess, DEFAULT_PRECISION, cap, message, excess_sign) > 0:
        n += 1
    return n


def family_n_bound(spec: FamilySpec, cap: int = PRECISION_CAP) -> int:
    """Check count for a built-in family: the first n with zeta(2n+2) - sin(pi*theta) < 1.

    A family without an angle needs its single check.  Raises
    PrecisionCapError when the cap leaves the count undecided.
    """
    angle = FAMILIES[spec.kind].angle(*spec.args)
    if angle is None:
        return 1
    return _check_count(angle.numerator, angle.denominator, cap)


# The walk depends only on the reduced angle and the cap, so the members of a
# sweep that share theta walk once.  A --m 1:40 torus2 sweep has 678 distinct
# angles; the bound holds several such sweeps.  A walk stopped by the cap
# raises, and lru_cache keeps no exception, so a capped member walks again.
@lru_cache(maxsize=4096)
def _check_count(num: int, den: int, cap: int) -> int:
    """The check count at theta = num/den under cap.

    The angle is keyed by its reduced numerator and denominator: a Fraction
    key would be rehashed on every lookup.
    """
    angle = Fraction(num, den)
    # one per precision the walk visits, not per n, and dropped with the walk
    sin_pi = cache(lambda prec: (IntervalReal.pi(prec) * angle).sin().ival)
    return _walk(0, 2, sin_pi, cap, "check-count bound")


def bernoulli_sign_test(ident: StrangeIdentity, n: int) -> int:
    """Exact sign of C_n, read from the sign of the Bernoulli sum of the weight.

    C_n is (-1)**(n+1) times a positive scale times that sum at s = 2n + nu + 1.
    """
    if n < 0:
        raise ValueError("sample index must be nonnegative")
    sign = bernoulli_sign(ident.f, 2 * n + ident.nu + 1)
    return sign if n % 2 else -sign


class PositivityVerdict(NamedTuple("PositivityVerdict",
                                   [("signs", tuple[int, ...]), ("cap_message", str)])):
    """Outcome of a positivity run: the signs of the sign tests it ran, or the
    precision-cap message that stopped its check-count bound before any test.

    A zero sign counts as passing under the built-in families' nonnegativity
    phrasing, so a run whose signs are all nonnegative proves positivity.  The
    verdict is derived from the signs and the cap message once, when the
    record is built, and kept in the instance dict; no attribute can be
    assigned.
    """

    def __new__(cls, signs: tuple[int, ...] = (), cap_message: str = ""):
        # signs of the sign tests n = 0, 1, ...; cap_message empty unless undecided
        self = tuple.__new__(cls, (signs, cap_message))
        if cap_message:
            verdict = "undecided-at-precision-cap"
        else:
            verdict = "proved-positive" if all(s >= 0 for s in signs) else "condition-failed"
        self.__dict__["verdict"] = verdict
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def n_used(self) -> int:
        return len(self.signs)

    @property
    def checks(self) -> list[list]:
        """[n, sign, passed] for each sign test."""
        return [[n, s, s >= 0] for n, s in enumerate(self.signs)]

    @property
    def note(self) -> str:
        return self.cap_message or "; ".join(
            f"sign test returned zero at n={n}; accepted as nonnegative"
            for n, s in enumerate(self.signs) if s == 0)


def verdict_for_identity(ident: StrangeIdentity | None, n_used: int) -> PositivityVerdict:
    """Run the leading n_used sign tests; ident may be None when n_used is 0."""
    return PositivityVerdict(tuple(bernoulli_sign_test(ident, n) for n in range(n_used)))


def verify_positivity(spec: FamilySpec, cap: int = PRECISION_CAP) -> PositivityVerdict:
    """Certify that every coefficient of a built-in family is positive.

    The member's identity is built only when a sign test runs: with a check
    count of 0 the tail bound alone proves positivity.
    """
    try:
        n_used = family_n_bound(spec, cap)
    except PrecisionCapError as err:
        return PositivityVerdict(cap_message=str(err))
    return verdict_for_identity(identity_for(spec) if n_used else None, n_used)


class FamilyCertificate(NamedTuple):
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
