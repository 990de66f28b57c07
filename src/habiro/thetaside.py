"""Periodic weights, strange-identity data, and the L-value coefficient route.

The route runs C -> B -> xi: exact special-value rationals from Bernoulli
polynomials, a binomial change of expansion point, then a Stirling-weighted
sum that must land on integers.  Given C and the expansion point,
xi_from_theta makes the change of point and the Stirling step in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat, zip_longest
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple

from habiro.exact import DEFAULT_PRECISION, IntervalReal, bernoulli_poly, root_sum_is_zero
from habiro.qseries import TruncatedSeries, _pascal_heads

# bernoulli_sum expands at a/q1 when 2**ANCHOR_E0 divides the period q = q1 2**e.
# Measured on torus32t weights (q1 = 3), CPU time on a 2-core x86-64 VM with
# CPython 3.11: with the coefficients of _anchor_terms memoized, the expansion
# is faster than the Horner kernel from e = 48 for one member's single-index
# sign tests (0.45 against 0.68 ms; 0.31 against 0.29 ms at e = 32), and
# already at e = 8 for a run of 131 indices (4.7 against 11.8 ms).  Built
# cold, it catches up only between e = 96 and 128 in both shapes (the run: 90
# against 61 ms at e = 64, 88 against 122 ms at e = 128).  At 64 no cold call
# is more than 1.5x slower, and every member of a sweep from t = 63 up shares
# the memo.
ANCHOR_E0 = 64


class _Fold(NamedTuple):
    """A weight folded for one parity of s, as bernoulli_sum reads it."""

    points: tuple[int, ...]  # the residues, M standing for residue 0
    weights: tuple[int, ...]  # the folded values times scale
    scale: int  # the lcm of the folded values' denominators
    anchor: tuple | None  # (e, q1, ((a, d, w), ...)) with p = a 2**e + d, if e >= ANCHOR_E0


@dataclass(frozen=True)
class PeriodicFunction:
    """Rational-valued function on the integers with a fixed period.

    Stored by its nonzero residues so that a few-point weight with a huge
    period stays cheap to build and sum over.  Its integer form, L the lcm of
    the values' denominators and the integers L*f(r), is worked out once at
    construction; the parity and mean tests and the folds read only that.
    """

    period: int
    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if self.period < 2:
            raise ValueError("period must be at least 2")
        values: dict[int, Fraction] = {}
        for r, v in self.entries:
            if not 0 <= r < self.period:
                raise ValueError("support residue out of range")
            if r in values:
                raise ValueError("duplicate support residue")
            values[int(r)] = v if type(v) is Fraction else Fraction(v)
        kept = sorted((r, v) for r, v in values.items() if v)
        scale = lcm(*(v.denominator for _, v in kept))
        object.__setattr__(self, "entries", tuple(kept))
        object.__setattr__(self, "_scale", scale)  # L
        object.__setattr__(self, "_ints", {r: v.numerator * (scale // v.denominator)
                                           for r, v in kept})  # r -> L*f(r)
        object.__setattr__(self, "_folds", {})  # sign -> _Fold, filled by _fold

    def __call__(self, n: int) -> Fraction:
        return Fraction(self._ints.get(n % self.period, 0), self._scale)

    def mean_is_zero(self) -> bool:
        return sum(self._ints.values()) == 0

    def is_even(self) -> bool:
        ints, period = self._ints, self.period
        return all(ints.get(-r % period) == w for r, w in ints.items())

    def is_odd(self) -> bool:
        ints, period = self._ints, self.period
        return all(ints.get(-r % period) == -w for r, w in ints.items())

    def _fold(self, sign: int) -> _Fold:
        """The weight to sum g(r/M) against when g(1 - x) = sign * g(x), built once per sign.

        Each residue r above its mirror M - r is merged into the mirror with
        the factor sign, and weights that cancel are dropped.  Residue 0
        stands for the point x = 1 of the period window and has no mirror in
        it.  The merged integers n_r = L*g(r) go over the lcm of the reduced
        denominators of n_r/L, which is L/gcd(L, n_r...).
        """
        fold = self._folds.get(sign)
        if fold is None:
            period = self.period
            acc: dict[int, int] = {}
            for r, w in self._ints.items():
                if period - r < r:
                    r, w = period - r, sign * w
                acc[r] = acc.get(r, 0) + w
            kept = sorted((r, w) for r, w in acc.items() if w)
            common = gcd(self._scale, *(w for _, w in kept))
            points = tuple(r or period for r, _ in kept)
            weights = tuple(w // common for _, w in kept)
            fold = self._folds[sign] = _Fold(
                points, weights, self._scale // common, _anchor_pattern(period, points, weights))
        return fold


def _anchor_pattern(period: int, points: tuple[int, ...], weights: tuple[int, ...]):
    """(e, q1, ((a, d, w), ...)) for period q1 2**e, e >= ANCHOR_E0, else None.

    Each point p is a 2**e + d with |d| <= 2**(e-1), so p/q = a/q1 + d/q.
    """
    e = (period & -period).bit_length() - 1
    if e < ANCHOR_E0 or not points:
        return None
    half = 1 << (e - 1)
    pattern = []
    for p, w in zip(points, weights):
        a = (p + half) >> e
        pattern.append((a, p - (a << e), w))
    return e, period >> e, tuple(pattern)


def _four_residues(period: int, minus: tuple[int, int], plus: tuple[int, int],
                   den: int) -> PeriodicFunction:
    """The weight -1/den at the residues of minus and +1/den at those of plus, counted in integers."""
    counts: dict[int, int] = {}
    for r in minus:
        counts[r % period] = counts.get(r % period, 0) - 1
    for r in plus:
        counts[r % period] = counts.get(r % period, 0) + 1
    return PeriodicFunction(period, tuple((r, Fraction(c, den)) for r, c in counts.items() if c))


def make_chi_t(t: int) -> PeriodicFunction:
    """Even weight of period 3*2**(t+1) supported on four residues."""
    if t < 1:
        raise ValueError("t must be at least 1")
    period = 3 * 2 ** (t + 1)
    minus = (2 ** (t + 1) - 3, 2 ** (t + 2) + 3)
    plus = (2 ** (t + 1) + 3, 2 ** (t + 2) - 3)
    return _four_residues(period, minus, plus, 2)


def make_chi_m_ell(m: int, ell: int) -> PeriodicFunction:
    """Even weight of period 8m+4 attached to the two-parameter nested family."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 <= ell <= m - 1:
        raise ValueError("ell must lie in [0, m-1]")
    period = 8 * m + 4
    minus = (2 * m - 2 * ell - 1, 6 * m + 2 * ell + 5)
    plus = (2 * m + 2 * ell + 3, 6 * m - 2 * ell + 1)
    return _four_residues(period, minus, plus, 2)


def make_chi_k(k: int) -> PeriodicFunction:
    """Odd weight of period 4k+2 with values +-1 near k and 3k+1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    period = 4 * k + 2
    return _four_residues(period, (3 * k + 1, 3 * k + 2), (k, k + 1), 1)


@dataclass(frozen=True)
class StrangeIdentity:
    """Data (a, b, nu, f) tying a Habiro element to a partial theta series."""

    a: int
    b: int
    nu: int
    f: PeriodicFunction

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("a must be nonnegative")
        if self.b < 1:
            raise ValueError("b must be positive")
        if self.nu not in (0, 1):
            raise ValueError("nu must be 0 or 1")
        if not self.f.mean_is_zero():
            raise ValueError("identity parameters inconsistent: weight has nonzero mean")
        period = self.f.period
        scan = max(lcm(period, self.b), isqrt(self.a) + 1)
        for base in range(0, scan + period - 1, period):
            for r, _ in self.f.entries:
                n = base + r
                if n >= scan:
                    continue
                e = n * n - self.a
                if e % self.b:
                    raise ValueError(
                        f"identity parameters inconsistent: non-integral exponent at n={n}"
                    )
                if e < 0:
                    raise ValueError(
                        f"identity parameters inconsistent: negative exponent at n={n}"
                    )


def _g_terms(f: PeriodicFunction, nu: int, k: int) -> tuple[int, dict[int, Fraction]]:
    """sqrt(M) * G as (C, terms), C = lcm(4, 2M): the sum of terms[e] * exp(2 pi i e / C)."""
    period = f.period
    conductor = lcm(4, 2 * period)
    step = conductor // period
    terms: dict[int, Fraction] = {}
    if nu == 1:
        # 2cos(2 pi e / C) = z**e + z**-e
        for m, v in f.entries:
            e = (m * k * step) % conductor
            terms[e] = terms.get(e, Fraction(0)) + v
            terms[-e % conductor] = terms.get(-e % conductor, Fraction(0)) + v
    else:
        # 2sin(2 pi e / C) = z**(e + 3C/4) - z**(-e + 3C/4)
        rot = 3 * conductor // 4
        for m, v in f.entries:
            e = (m * k * step) % conductor
            p = (e + rot) % conductor
            q = (-e + rot) % conductor
            terms[p] = terms.get(p, Fraction(0)) + v
            terms[q] = terms.get(q, Fraction(0)) - v
    return conductor, terms


def g_value(
    f: PeriodicFunction, nu: int, k: int, prec: int = DEFAULT_PRECISION
) -> IntervalReal:
    """Enclosure of the Fourier coefficient G at frequency k, at prec bits."""
    if nu not in (0, 1):
        raise ValueError("nu must be 0 or 1")
    period = f.period
    pi = IntervalReal.pi(prec)
    total = IntervalReal.from_int(0, prec)
    for m, v in f.entries:
        arg = pi * Fraction(2 * ((m * k) % period), period)
        wave = arg.cos() if nu == 1 else arg.sin()
        total = total + wave * v
    return total * 2 / IntervalReal.from_int(period, prec).sqrt()


def find_k_nu(f: PeriodicFunction, nu: int) -> int:
    """Smallest k in 1..M with G nonzero, certified by the exact zero test.

    k = M stands for frequency 0, so every cosine coefficient (nu = 1)
    vanishes exactly when f is odd and every sine coefficient exactly when f
    is even; that case is reported without a scan over the period.
    """
    if (f.is_odd() if nu == 1 else f.is_even()):
        raise ValueError("no nonzero Fourier coefficient")
    for k in range(1, f.period + 1):
        if not root_sum_is_zero(*_g_terms(f, nu, k)):
            return k
    raise ValueError("no nonzero Fourier coefficient")


# (q1, a) -> (N_0..N_K, steps) with N_i = P_i q1**i B_i(a/q1) and steps[i] =
# P_i / P_(i-1), P_i the prefix lcm of the Bernoulli denominators.  An entry is
# replaced, never mutated, when it grows; at most _ANCHOR_TABLES are kept.
_anchor_tables: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
_ANCHOR_TABLES = 64


def _anchor_table(q1: int, a: int, top: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """N_i(a) and the steps through index top or beyond, grown by doubling."""
    table = _anchor_tables.get((q1, a))
    if table is None or len(table[0]) <= top:
        top = max(top, 1, 2 * (len(table[0]) - 1) if table else 0)
        nums, dens = [0] * (top + 1), [0] * (top + 1)
        for first in (0, 1):  # one kernel call per parity
            ks = list(range(first, top + 1, 2))
            for k, ([n], d) in zip(ks, bernoulli_poly(ks, [a], q1)):
                nums[k], dens[k] = n, d
        steps = (1, *(dens[i] // (dens[i - 1] * q1) for i in range(1, top + 1)))
        if (q1, a) not in _anchor_tables and len(_anchor_tables) >= _ANCHOR_TABLES:
            _anchor_tables.pop(next(iter(_anchor_tables)))
        table = _anchor_tables[(q1, a)] = (tuple(nums), steps)
    return table


@lru_cache(maxsize=256)
def _anchor_terms(s: int, q1: int, pattern: tuple) -> tuple[tuple[int, ...], int]:
    """U_0..U_s and P_s, the expansion of index s at the anchors a/q1 of a pattern.

    B_s(x + y) = sum_i C(s,i) B_i(x) y**(s-i) at x = a/q1, y = d/q gives
    P_s q**s sum_p w_p B_s(p/q) = sum_i U_i 2**(e i) with
    U_i = C(s,i) (P_s/P_i) sum_p w_p N_i(a_p) d_p**(s-i).  Nothing here
    depends on e, so every period q1 2**e with the same pattern shares it.
    """
    groups: dict[int, list[list[int]]] = {}  # a -> w_p d_p**m for m = 0..s, per point
    for a, d, w in pattern:
        groups.setdefault(a, []).append(list(accumulate(repeat(d, s), mul, initial=w)))
    sums = []  # per anchor a: N_0(a)..N_s(a), and sum_p w_p d_p**m for m = s..0
    for a, pows in groups.items():
        nums, steps = _anchor_table(q1, a, s)  # the steps do not depend on (q1, a)
        sums.append((nums, list(map(sum, zip(*pows)))[::-1]))
    terms = [0] * (s + 1)
    c = 1  # C(s,i) P_s/P_i at i = s, then downward; P_s at i = 0
    for i in range(s, -1, -1):
        acc = 0
        for nums, moments in sums:
            if moments[i]:
                acc += nums[i] * moments[i]
        if acc:
            terms[i] = c * acc
        if i:
            c = c * i // (s - i + 1) * steps[i]
    return tuple(terms), c


def bernoulli_sum(f: PeriodicFunction, ss: list[int]) -> list[tuple[int, int]]:
    """sum_(m=1..M) f(m) B_s(m/M) for each s in ss, as unreduced (num, den), den > 0.

    The s ascend strictly and share one parity.  B_s(1 - x) = (-1)**s B_s(x)
    lets each residue share the Bernoulli value of its mirror, so the weight
    is folded once per parity, and kept with the weight.  The weights go
    over their lcm L, and each sum is returned over L D, D = P_s M**s, never
    reduced, so a sign test runs no gcd.  Residue 0 contributes at the right
    endpoint x = 1 of the period window.

    Below 2**ANCHOR_E0 in M, one kernel call gives the values over D for
    every s.  Above it, the sum is read from its expansion at the anchors
    a/q1 (see _anchor_terms), a polynomial in 2**e summed by shifts and
    adds, and the expansion's coefficients are memoized, so that they serve
    every period q1 2**e with the same pattern, such as every torus32t member.
    """
    if not ss or ss[0] < 0 or (
        len(ss) > 1 and any(b <= a or (b - a) % 2 for a, b in zip(ss, ss[1:]))
    ):
        raise ValueError("Bernoulli indices must be nonnegative, strictly ascending, of one parity")
    period = f.period
    fold = f._fold(-1 if ss[0] % 2 else 1)
    if fold.anchor is None:
        return [(sum(w * b for w, b in zip(fold.weights, values)), fold.scale * den)
                for values, den in bernoulli_poly(ss, fold.points, period)]
    e, q1, pattern = fold.anchor
    out = []
    for s in ss:
        terms, top = _anchor_terms(s, q1, pattern)
        shift = e
        while len(terms) > 1:  # U_2j + U_(2j+1) 2**e, then those in pairs by 2**(2e), ...
            terms = [lo + (hi << shift) for lo, hi in zip_longest(terms[::2], terms[1::2],
                                                                  fillvalue=0)]
            shift *= 2
        out.append((terms[0], (fold.scale * top * q1**s) << (e * s)))  # L P_s M**s
    return out


def c_sequence(ident: StrangeIdentity, N: int) -> tuple[Fraction, ...]:
    """L-value rationals C_0..C_N, scaled Bernoulli sums of the weight.

    C_n = (-1)**(n+1) M**(s-1) / s * sum_(m=1..M) f(m) B_s(m/M), s = 2n + nu + 1.
    """
    if N < 0:
        raise ValueError("need a nonnegative count")
    period = ident.f.period
    ss = [2 * n + ident.nu + 1 for n in range(N + 1)]
    out = []
    cancel = period ** (ss[0] - 1)  # M**(s-1), divided out of the sum's den = L P_s M**s
    for n, (s, (num, den)) in enumerate(zip(ss, bernoulli_sum(ident.f, ss))):
        sign = -1 if n % 2 == 0 else 1
        out.append(Fraction(sign * num, s * (den // cancel)))
        cancel *= period * period
    return tuple(out)


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integers x_i and L with values[i] = x_i / L, L the lcm of the denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def b_sequence(ident: StrangeIdentity, c: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Change of expansion point: B_n = b**-n sum_k C(n,k) a**(n-k) C_k."""
    # Over the lcm denominator L of C, T_0[k] = L C_k and
    # T_n[k] = a T_(n-1)[k] + T_(n-1)[k+1] give
    # T_n[k] = L sum_i C(n,i) a**(n-i) C_(k+i), so T_n[0] = L b**n B_n.
    # Each step multiplies by the small integer a only.
    row, den = _over_common_denominator(c)
    heads = _pascal_heads(row, [ident.a] * (len(c) - 1))
    return tuple(Fraction(x, den * ident.b**n) for n, x in enumerate(heads))


def xi_from_theta(
    values: tuple[Fraction, ...], N: int, a: int = 0, b: int = 1
) -> TruncatedSeries:
    """Integer coefficients xi_0..xi_N from the values expanded at the point (a, b).

    With Lam the linear map x**k -> values[k], n! b**n xi_n is
    Lam((x+a) (x+a+b) ... (x+a+(n-1)b)).  At the defaults the values are the
    B-expansion and xi_n = sum_j c(n, j) B_j / n!, with c the unsigned
    Stirling numbers of the first kind, the coefficients of x (x+1) ... (x+n-1).
    Given C and an identity's (a, b), the same pass also makes b_sequence's
    change of expansion point, since b**j B_j = Lam((x+a)**j).
    """
    if len(values) <= N:
        raise ValueError("values do not cover the requested range")
    # Let L be the lcm denominator of values[0..N] and W_n[i] the image of
    # x**i (x+a) ... (x+a+(n-1)b) under x**k -> L values[k].  Then
    # W_n[i] = W_(n-1)[i+1] + (a+(n-1)b) W_(n-1)[i] and W_n[0] = L n! b**n xi_n:
    # the Stirling recurrence runs implicitly, multiplying by a small integer only.
    row, scale = _over_common_denominator(values[: N + 1])
    out: list[int] = []
    for n, head in enumerate(_pascal_heads(row, range(a, a + N * b, b))):
        if n:
            scale *= n * b  # L n! b**n
        val, rem = divmod(head, scale)
        if rem:
            raise ValueError("strange-identity data inconsistent with integrality")
        out.append(val)
    return TruncatedSeries(out)
