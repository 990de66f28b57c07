"""Positivity certification: tail-bound constants, check counts, and sign tests.

A coefficient sequence is proved all-positive by bounding how many leading
terms control the sign (an interval computation) and then testing those terms
exactly through Bernoulli polynomial values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import gcd
from typing import NamedTuple

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


def n_max(f: PeriodicFunction, nu: int, cap: int = PRECISION_CAP) -> int:
    """Smallest N with bound * (zeta(2n + nu + 1) - 1) < 1 for every n >= N."""
    bound = cache(lambda prec: m_bound(f, nu, prec, cap))  # one per precision, not per n

    def excess(n: int):
        s = 2 * n + nu + 1
        return lambda prec: bound(prec) * (zeta_interval(s, prec) - 1) - 1

    n = 0 if nu == 1 else 1  # s = 1 has a divergent zeta value, so n = 0 never qualifies
    while decide_sign(excess(n), DEFAULT_PRECISION, cap, f"tail bound at n={n}") > 0:
        n += 1
    return n


@lru_cache(maxsize=4096)
def _sin_pi(num: int, den: int, prec: int) -> tuple:
    """sin(pi*num/den)'s endpoints at a working precision, built once per (angle, precision).

    The angle is keyed by its reduced numerator and denominator: a Fraction
    key would be rehashed on every lookup.  The bound holds every angle of a
    `--m 1:40` torus2 sweep at each precision it visits, so the members of
    repeated sweeps share their enclosures.
    """
    return (IntervalReal.pi(prec) * Fraction(num, den)).sin().ival


def _cuts(zeta: IntervalReal) -> tuple:
    """zeta.hi - (1 - 2**-p) and zeta.lo - (1 + 2**(1-p)), p the enclosure's own precision."""
    (z_lo, z_hi), prec = zeta.ival, zeta.prec
    return (mpf_sub(z_hi, from_man_exp((1 << prec) - 1, -prec)),
            mpf_sub(z_lo, from_man_exp((1 << (prec - 1)) + 1, 1 - prec)))


# Each member of a verify sweep walks the same (s, prec) keys from n = 0, so the
# bound must hold the widest member's walk, or every key is evicted before the
# next member reads it.  torus32t(t) walks 1,535 keys at t = 800 and 5,028 at
# t = 2000.
@lru_cache(maxsize=8192)
def _zeta_cuts(s: int, prec: int) -> tuple:
    """The cut points of zeta(s)'s enclosure at prec bits, built once per (s, prec)."""
    return _cuts(zeta_interval(s, prec))


def _excess_sign(cuts_and_sin: tuple) -> int:
    """Sign of the interval (zeta - S) - 1 IntervalReal builds at zeta's precision, 0 if it holds 0.

    With p bits, mpmath's correctly rounded subtractions give that difference
    a negative upper end exactly when zeta.hi - S.lo <= 1 - 2**-p, and a
    positive lower end exactly when zeta.lo - S.hi >= 1 + 2**(1-p).  So S's
    endpoints are compared with zeta's two exact cut points, and no interval
    is built.
    """
    (below, above), (s_lo, s_hi) = cuts_and_sin
    if mpf_ge(s_lo, below):
        return -1
    return int(mpf_le(s_hi, above))


def family_n_bound(spec: FamilySpec, cap: int = PRECISION_CAP) -> int:
    """Check count for a built-in family: the first n with zeta(2n+2) - sin(pi*theta) < 1.

    A family without an angle needs its single check.
    """
    angle = FAMILIES[spec.kind].angle(*spec.args)
    if angle is None:
        return 1
    num, den = angle.numerator, angle.denominator

    n = 0

    def excess(prec: int) -> tuple:  # at the loop's current n
        return _zeta_cuts(2 * n + 2, prec), _sin_pi(num, den, prec)

    while decide_sign(excess, DEFAULT_PRECISION, cap, f"check-count bound at n={n}",
                      _excess_sign) > 0:
        n += 1
    return n


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
    verdict is cached in the instance dict; no attribute can be assigned.
    """

    def __new__(cls, signs: tuple[int, ...] = (), cap_message: str = ""):
        # signs of the sign tests n = 0, 1, ...; cap_message empty unless undecided
        return tuple.__new__(cls, (signs, cap_message))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def n_used(self) -> int:
        return len(self.signs)

    @property
    def checks(self) -> list[list]:
        """[n, sign, passed] for each sign test."""
        return [[n, s, s >= 0] for n, s in enumerate(self.signs)]

    @cached_property
    def verdict(self) -> str:
        if self.cap_message:
            return "undecided-at-precision-cap"
        return "proved-positive" if all(ok for _, _, ok in self.checks) else "condition-failed"

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
