"""Positivity certification: tail-bound constants, check counts, and sign tests.

A coefficient sequence is proved all-positive by bounding how many leading
terms control the sign (exact bounds, with interval arithmetic for close
calls) and then testing those terms exactly through Bernoulli polynomial
values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import gcd
from typing import Callable, Iterable, NamedTuple

from habiro.exact import (
    DEFAULT_PRECISION,
    PRECISION_CAP,
    IntervalReal,
    PrecisionCapError,
    bernoulli_poly,
    decide_sign,
    signed_enclosure,
    zeta_even,
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


# Two consecutive convergents of pi's continued fraction, so pi lies strictly
# between them, 1/(340262731 * 811528438) < 4e-18 apart.
_PI_BELOW = (1068966896, 340262731)
_PI_ABOVE = (2549491779, 811528438)
# fractional bits of the fixed-point Taylor terms of sin(x)/x
_SINE_BITS = 64
# Below this s the bracket r_s pi**s of zeta(s) - 1 is the tighter one, to a
# relative 2e-7 at worst; from it on 2**-s + 3**-s + 3**(1-s)/(s-1) is.
_PI_POWER_BELOW = 34


def _sine_bracket(a: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(num, den) pairs lo <= sin(pi*a/b) <= hi, for 0 < a/b <= 1/2.

    For every x > 0 a partial sum of sin(x)/x = sum_j (-1)**j x**(2j)/(2j+1)!
    that ends on a positive term lies above it and one that ends on a
    negative term below.  The terms are fixed point at _SINE_BITS bits,
    rounded up from x = pi_above*a/b where they are added and down from
    x = pi_below*a/b where they are taken away, and the sums stop a term
    after the terms fall to one unit.
    """
    one = 1 << _SINE_BITS
    (pl, ql), (ph, qh) = _PI_BELOW, _PI_ABOVE
    y_lo = ((pl * a) ** 2 << _SINE_BITS) // (ql * b) ** 2
    y_hi = -(-((ph * a) ** 2 << _SINE_BITS) // (qh * b) ** 2)
    t_lo = t_hi = up = down = upper = one
    j, done = 0, False
    while True:
        j += 1
        d = 2 * j * (2 * j + 1) << _SINE_BITS
        t_lo, t_hi = t_lo * y_lo // d, -(-t_hi * y_hi // d)
        if j % 2:
            up, down = up - t_lo, down - t_hi
            lower = down
        else:
            up, down = up + t_hi, down + t_lo
            upper = up
        if done:
            return (a * pl * max(lower, 0), b * ql * one), (a * ph * upper, b * qh * one)
        done = t_hi <= 1


@cache
def _pi_power_bracket(s: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(num, den) pairs lo < zeta(s) - 1 < hi from zeta(s) = r_s pi**s, s even."""
    r = zeta_even(s)
    (pl, ql), (ph, qh) = _PI_BELOW, _PI_ABOVE
    lo_den, hi_den = r.denominator * ql**s, r.denominator * qh**s
    return (r.numerator * pl**s - lo_den, lo_den), (r.numerator * ph**s - hi_den, hi_den)


def _zeta_excess_bracket(s: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(num, den) pairs lo < zeta(s) - 1 < hi for even s >= 2.

    From s = _PI_POWER_BELOW on: 2**-s + 3**-s < zeta(s) - 1, and the terms
    from k = 4 on sum to less than the integral of x**-s over [3, oo), which
    is 3**(1-s)/(s-1).
    """
    if s < _PI_POWER_BELOW:
        return _pi_power_bracket(s)
    two, three = 1 << s, 3**s
    den = two * three
    return (two + three, den), ((s - 1) * (two + three) + 3 * two, (s - 1) * den)


def _exact_steps(num: int, den: int, cap: int) -> tuple[int, Callable[[int], int]] | None:
    """The exact pre-decision of _walk for zeta(2n + 2) - sin(pi*num/den): (k, sign).

    Every step n < k is positive, and sign(n) is the step's sign or 0 when
    the bounds leave it open.  None when the rule never applies: under a cap
    below 32 bits or an angle outside (0, 1/2].
    """
    if cap < 32 or not 0 < 2 * num <= den:
        return None
    (sl_num, sl_den), (sh_num, sh_den) = _sine_bracket(num, den)
    # s_sine: the largest s with S_hi <= (31/32) 2**-s
    x, y = 31 * sh_den, 32 * sh_num
    s_sine = max(x.bit_length() - y.bit_length(), 0)
    if y << s_sine > x:
        s_sine -= 1
    # s_cap: the largest s with s + bitlen(s) + 9 <= cap
    c = cap - 9
    s_cap = c - c.bit_length()
    while s_cap + 1 + (s_cap + 1).bit_length() <= c:
        s_cap += 1
    top = min(s_sine, s_cap)

    def sign(n: int) -> int:
        s = 2 * n + 2
        if cap < s.bit_length() + 8:
            return 0
        (zl_num, zl_den), (zh_num, zh_den) = _zeta_excess_bracket(s)
        # zeta(s) - 1 - S >= zl - S_hi, and S - (zeta(s) - 1) >= S_lo - zh
        if (zl_num * sh_den - sh_num * zl_den) << (cap - 1) >= (s + 24) * zl_den * sh_den:
            return 1
        if (sl_num * zh_den - zh_num * sl_den) << (cap - 1) >= (s + 24) * zh_den * sl_den:
            return -1
        return 0

    return max(0, top // 2), sign


def _walk(n: int, shift: int, target: Callable[[int], tuple], cap: int, what: str,
          angle: tuple[int, int] | None = None) -> int:
    """First n from the given one with zeta(2n + shift) - S < 1, S's endpoints target(prec).

    Raises PrecisionCapError naming what and n when the cap leaves a sign
    undecided.  Each step's sign comes from decide_sign's ladder of
    enclosures at p = min(64, cap), doubling, up to the cap.  Every
    enclosure holds the true value, so a sign the ladder decides is the
    sign of zeta(s) - 1 - S, s = 2n + shift.

    With an angle (num, den), S is sin(pi theta), theta = num/den in
    (0, 1/2], shift is 2, and a step is first tried by exact bounds.  If
    g = zeta(s) - 1 - S satisfies |g| >= (s + 24) 2**(1-p) at
    p = cap >= max(32, bitlen(s) + 8), the ladder decides the step at p (the
    cap is its last rung) or at an earlier rung, so its sign is that of g,
    and the step builds no enclosure.  Any step the bounds leave open runs
    the ladder, so counts, cap messages and precisions stay those of the
    ladder alone.  The proof, with u = 2**(1-p) and
    p >= max(32, bitlen(s) + 8):

    - A directed rounding to p bits moves a positive x by less than u x, by
      a factor in [1/f, f], f = 1/(1-u).  k roundings give [f**-k, f**k],
      and |f**(+-k) - 1| <= ku/(1-ku).
    - zeta_interval(s, p) is r_s times pi**s.  r_s = zeta_even(s) is rounded
      three times (_quotient rounds numerator and denominator outward and
      divides).  pi at p bits is within one unit in the last place of pi,
      2**(2-p) or 0.64u relative, so pi**s gets f**(0.64 s).  mpi_pow_int
      sees the exponent s exactly because p >= bitlen(s).  It rounds once,
      after exact powering or after binary powering at
      w = p + 4 bitlen(s) + 4 bits, whose at most 2 bitlen(s) truncations
      move the power by less than 2s 2**(1-w) <= u/64.  The product rounds
      once.  So an endpoint is zeta(s) times f**(+-k), k <= 0.64 s + 5.02.
      As ku <= (s + 6) u <= 2**(bitlen(s)+2-p) <= 1/64, it lies within
      (0.66 s + 5.2) u zeta(s) of zeta(s), and, as zeta(s) <= 1 + 3 2**-s,
      within (s + 13) u.
    - The sine's argument is pi at p bits (f**0.64) times theta rounded as
      r_s is (f**3), rounded once: each endpoint x lies within
      4.72 u pi theta of pi theta, and |sin x - S| <= |x - pi theta|.
      mpi_sin evaluates at wp = p + 20 to within 2**(10-wp) relative,
      mpmath's own premise, moves outward by a factor 1 +- 2**(10-wp) and
      rounds to p bits: within 1.02 u |sin x| <= 1.02 u x of sin x.  An
      upper endpoint becomes 1 where the argument crosses pi/2 or where it
      rounds up to 1, and 1 - S is then below either bound.  So each
      endpoint is within 5.8 u pi theta <= 10 u of S, as theta <= 1/2.
    - excess_sign decides +1 when z_lo - S_hi >= 1 + u and -1 when
      z_hi - S_lo <= 1 - u/2, so a step with |g| >= (s + 13) u + 10 u + u
      is decided at p.
    - The exact bounds: pi between the two convergents _PI_BELOW and
      _PI_ABOVE; zeta(s) - 1 from _zeta_excess_bracket; S from
      _sine_bracket.  A positive step at s needs only 2**-s < zeta(s) - 1:
      at any p >= s + bitlen(s) + 9 the error (s + 24) u is at most
      2**-s 2**-8 (s + 24)/2**bitlen(s) < 2**(-s-5), so every s up to the
      last with S_hi <= (31/32) 2**-s and s + bitlen(s) + 9 <= cap is
      positive.  Both conditions hold on a prefix of the steps, whose end
      comes from bit lengths, not by stepping.
    """
    def excess(prec: int) -> tuple:  # at the loop's current n
        return cut_points(zeta_interval(2 * n + shift, prec)), target(prec)

    def message() -> str:  # formatted only at the cap
        return f"{what} at n={n}"

    exact = None if angle is None else _exact_steps(*angle, cap)
    if exact:
        n = max(n, exact[0])
    while (exact and exact[1](n)
           or decide_sign(excess, DEFAULT_PRECISION, cap, message, excess_sign)) > 0:
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
    # one per precision the walk visits, not per n, and dropped with the walk
    sin_pi = cache(lambda prec: (IntervalReal.pi(prec) * Fraction(num, den)).sin().ival)
    return _walk(0, 2, sin_pi, cap, "check-count bound", (num, den))


def bernoulli_sign_test(ident: StrangeIdentity, n: int, values: dict[int, int] | None) -> int:
    """Exact sign of C_n, read from the sign of the Bernoulli sum of the weight.

    C_n is (-1)**(n+1) times a positive scale times that sum at s = 2n + nu + 1.
    values maps each point of the weight's fold to D B_s(p/M), D > 0 shared
    by the points, from its group's kernel call, and the sum is the fold's
    weights dotted with them.  An anchored fold passes None and takes
    bernoulli_sign's route from the leading terms.
    """
    if values is None:
        sign = bernoulli_sign(ident.f, 2 * n + ident.nu + 1)
    else:
        fold = ident.f._fold(1 if ident.nu else -1)
        total = sum(w * values[p] for p, w in zip(fold.points, fold.weights))
        sign = (total > 0) - (total < 0)
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


# The verdict of every member that the tail bound alone proves; a verdict is
# immutable, so they share one.
_TAIL_BOUND_ONLY = PositivityVerdict()


def verdicts_for_identities(pairs: list[tuple[StrangeIdentity, int]]) -> list[PositivityVerdict]:
    """Run the leading n_used sign tests of each (identity, n_used) pair.

    The pairs whose folded weight has no anchor are grouped by (period, nu),
    and each group's tests read one bernoulli_poly call over the union of
    its fold points at s = nu + 1, nu + 3, ..., up to its largest n_used.
    The values are exact, so each pair's sum is the one bernoulli_sum gives
    its weight alone.  An anchored pair's tests each take bernoulli_sign's
    leading terms.
    """
    signs: list[tuple[int, ...]] = [()] * len(pairs)
    groups: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}  # -> (i, fold points)
    for i, (ident, n_used) in enumerate(pairs):
        if n_used < 0:
            raise ValueError("check count must be nonnegative")
        if not n_used:
            continue
        fold = ident.f._fold(1 if ident.nu else -1)
        if fold.anchor is None:
            groups.setdefault((ident.f.period, ident.nu), []).append((i, fold.points))
        else:
            signs[i] = tuple(bernoulli_sign_test(ident, n, None) for n in range(n_used))
    for (period, nu), group in groups.items():
        points = list({p for _, ps in group for p in ps})
        top = max(pairs[i][1] for i, _ in group)
        values = [dict(zip(points, row)) for row, _ in
                  bernoulli_poly(list(range(nu + 1, 2 * top + nu, 2)), points, period)]
        for i, _ in group:
            ident, n_used = pairs[i]
            signs[i] = tuple(bernoulli_sign_test(ident, n, values[n]) for n in range(n_used))
    return [PositivityVerdict(s) if s else _TAIL_BOUND_ONLY for s in signs]


def verify_positivity(specs: Iterable[FamilySpec],
                      cap: int = PRECISION_CAP) -> list[PositivityVerdict]:
    """Certify that every coefficient of each built-in family member is positive.

    A member's identity is built only when a sign test runs: with a check
    count of 0 the tail bound alone proves positivity.  The sign tests run
    in verdicts_for_identities, once per run of consecutive tested members
    that share a period and nu, as a sweep lists the ell of one m.  So only
    one run's identities and kernel values are held at a time.
    """
    verdicts: list[PositivityVerdict | None] = []
    slots: list[int] = []  # where the verdicts of the run go
    run: list[tuple[StrangeIdentity, int]] = []

    def flush() -> None:
        for slot, v in zip(slots, verdicts_for_identities(run)):
            verdicts[slot] = v
        slots.clear()
        run.clear()

    for spec in specs:
        try:
            n_used = family_n_bound(spec, cap)
        except PrecisionCapError as err:
            verdicts.append(PositivityVerdict(cap_message=str(err)))
            continue
        if not n_used:
            verdicts.append(_TAIL_BOUND_ONLY)
            continue
        ident = identity_for(spec)
        if run and (ident.f.period, ident.nu) != (run[0][0].f.period, run[0][0].nu):
            flush()
        slots.append(len(verdicts))
        run.append((ident, n_used))
        verdicts.append(None)
    flush()
    return verdicts


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
