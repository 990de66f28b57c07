"""Periodic weights, strange-identity data, and the L-value coefficient route.

The route runs C -> B -> xi: exact special-value rationals from Bernoulli
polynomials, a binomial change of expansion point, then a Stirling-weighted
sum that must land on integers.  Given C and the expansion point,
xi_from_theta makes the change of point and the Stirling step in one pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, islice, repeat, zip_longest
from math import factorial, gcd, isqrt, lcm
from operator import mul
from typing import Iterator, NamedTuple

from habiro.exact import DEFAULT_PRECISION, IntervalReal, bernoulli_poly, root_sum_is_zero
from habiro.exact.bernoulli import bernoulli_table, check_indices
from habiro.qseries import TruncatedSeries, _pascal_heads

# bernoulli_sign and bernoulli_sum expand at a/q1 when 2**ANCHOR_E0 divides
# the period q = q1 2**e.  The expansion's terms do not depend on e, while the
# Horner kernel's cost grows with it.  Measured on torus32t weights (q1 = 3),
# CPU time on a 2-core x86-64 VM with CPython 3.11: the 1,501 sign tests of
# t = 63..100, which read a few leading terms memoized in _top_terms and
# shared by every member of a sweep, take 0.01-0.02 s on the anchors and
# 0.11 s on the kernel, in one-index calls.  Full values, which c_sequence
# needs, come from runs of indices, which the kernel walks down; timed cold,
# one fresh process each, after that walk went in: at t = 63 (e = 64) the
# kernel is faster at N = 50-150 and 300 (0.41 against 0.60 s at N = 300)
# and the anchors near N = 200 (0.12 against 0.18 s); at t = 100 the anchors
# are faster or level from N = 100 (0.73 against 0.77 s at N = 300), and at
# t = 200 from N = 50 (0.74 against 2.3 s at N = 300).
ANCHOR_E0 = 64


class _Fold(NamedTuple):
    """A weight folded for one parity of s, as bernoulli_sum reads it."""

    points: tuple[int, ...]  # the residues, M standing for residue 0
    weights: tuple[int, ...]  # the folded values times scale
    scale: int  # the lcm of the folded values' denominators
    anchor: tuple | None  # (e, q1, ((a, d, w), ...)) with p = a 2**e + d, if e >= ANCHOR_E0


class PeriodicFunction(NamedTuple("PeriodicFunction",
                                  [("period", int), ("entries", tuple[tuple[int, Fraction], ...])])):
    """Rational-valued function on the integers with a fixed period.

    Stored by its nonzero residues so that a few-point weight with a huge
    period stays cheap to build and sum over.  Its integer form, L the lcm of
    the values' denominators and the integers L*f(r), is worked out once at
    construction; the parity and mean tests and the folds read only that.
    The record compares and hashes as the pair (period, entries); the integer
    form and the folds sit in the instance dict, and no attribute can be
    assigned.
    """

    def __new__(cls, period: int, entries: tuple[tuple[int, Fraction], ...]):
        if not isinstance(period, int):
            raise ValueError(f"period must be an integer: {period!r}")
        if period < 2:
            raise ValueError("period must be at least 2")
        values: dict[int, Fraction] = {}
        for r, v in entries:
            if not isinstance(r, int):
                raise ValueError(f"support residue must be an integer: {r!r}")
            if not 0 <= r < period:
                raise ValueError("support residue out of range")
            if r in values:
                raise ValueError("duplicate support residue")
            values[r] = v if type(v) is Fraction else Fraction(v)
        kept = sorted((r, v) for r, v in values.items() if v)
        scale = lcm(*(v.denominator for _, v in kept))
        return cls._with_form(period, tuple(kept), scale,
                              {r: v.numerator * (scale // v.denominator) for r, v in kept})

    @classmethod
    def _with_form(cls, period: int, entries: tuple, scale: int, ints: dict[int, int]):
        """The weight with its integer form given, built without the checks."""
        f = tuple.__new__(cls, (period, entries))
        # L, r -> L*f(r), and sign -> _Fold filled by _fold
        f.__dict__.update(_scale=scale, _ints=ints, _folds={})
        return f

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

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


_ratio = cache(Fraction)  # the values c/den of the four-residue weights, a handful in all


def _four_residues(period: int, minus: tuple[int, int], plus: tuple[int, int],
                   den: int) -> PeriodicFunction:
    """The weight -1/den at the residues of minus and +1/den at those of plus, counted in integers.

    Its integer form comes straight from the counts c, as L = the lcm of the
    den/gcd(c, den) and L*f(r) = c*L/den, and each value c/den is a Fraction
    shared by every weight.  It skips PeriodicFunction's checks, which
    hold by construction: the residues are reduced mod the period and
    counted in a dict, and every caller's period is at least 6.
    """
    counts: dict[int, int] = {}
    for r in minus:
        counts[r % period] = counts.get(r % period, 0) - 1
    for r in plus:
        counts[r % period] = counts.get(r % period, 0) + 1
    kept = sorted((r, c) for r, c in counts.items() if c)
    scale = lcm(*(den // gcd(c, den) for _, c in kept))
    return PeriodicFunction._with_form(period, tuple((r, _ratio(c, den)) for r, c in kept), scale,
                                       {r: c * scale // den for r, c in kept})


def make_chi_t(t: int) -> PeriodicFunction:
    """Even weight of period 3*2**(t+1) supported on four residues."""
    if t < 1:
        raise ValueError("t must be at least 1")
    period = 3 << (t + 1)
    minus = ((1 << (t + 1)) - 3, (1 << (t + 2)) + 3)
    plus = ((1 << (t + 1)) + 3, (1 << (t + 2)) - 3)
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


class StrangeIdentity(NamedTuple("StrangeIdentity", [("a", int), ("b", int), ("nu", int),
                                                     ("f", PeriodicFunction)])):
    """Data (a, b, nu, f) tying a Habiro element to a partial theta series."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, nu: int, f: PeriodicFunction):
        if a < 0:
            raise ValueError("a must be nonnegative")
        if b < 1:
            raise ValueError("b must be positive")
        if nu not in (0, 1):
            raise ValueError("nu must be 0 or 1")
        if not f.mean_is_zero():
            raise ValueError("identity parameters inconsistent: weight has nonzero mean")
        period = f.period
        scan = max(lcm(period, b), isqrt(a) + 1)
        for base in range(0, scan + period - 1, period):
            for r, _ in f.entries:
                n = base + r
                if n >= scan:
                    continue
                e = n * n - a
                if e % b:
                    raise ValueError(
                        f"identity parameters inconsistent: non-integral exponent at n={n}"
                    )
                if e < 0:
                    raise ValueError(
                        f"identity parameters inconsistent: negative exponent at n={n}"
                    )
        return tuple.__new__(cls, (a, b, nu, f))


def _g_terms(f: PeriodicFunction, nu: int, k: int) -> tuple[int, dict[int, Fraction]]:
    """sqrt(M) * G as (C, terms), C = lcm(4, 2M): the sum of terms[e] * exp(2 pi i e / C)."""
    period = f.period
    conductor = lcm(4, 2 * period)
    step = conductor // period
    terms: dict[int, Fraction] = {}
    # 2cos(2 pi e / C) = z**e + z**-e
    # 2sin(2 pi e / C) = z**(e + 3C/4) - z**(-e + 3C/4)
    rot, sign = (0, 1) if nu == 1 else (3 * conductor // 4, -1)
    for m, v in f.entries:
        e = m * k * step
        for key, w in (((rot + e) % conductor, v), ((rot - e) % conductor, sign * v)):
            terms[key] = terms.get(key, Fraction(0)) + w
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


@lru_cache(maxsize=64)
def _anchor_nums(q1: int, a: int, size: int) -> tuple[int, ...]:
    """N_0(a)..N_size(a) with N_i = P_i q1**i B_i(a/q1), P_i as in bernoulli_table.

    Above size 2 the indices <= size // 2 come from the table of that size,
    so a table doubled from a cached half runs the kernel over the new half only.
    """
    lower = _anchor_nums(q1, a, size // 2) if size > 2 else ()
    nums = list(lower) + [0] * (size + 1 - len(lower))
    for first in (len(lower), len(lower) + 1):  # one kernel call per parity
        ks = list(range(first, size + 1, 2))
        for k, ([n], _) in zip(ks, bernoulli_poly(ks, [a], q1)):
            nums[k] = n
    return tuple(nums)


def _anchor_table(q1: int, a: int, top: int) -> tuple[int, ...]:
    """N_0(a)..N_size(a), size the least power of two >= max(top, 2), so a sweep builds few sizes."""
    return _anchor_nums(q1, a, 1 << max(top - 1, 1).bit_length())


def _terms_from_top(s: int, q1: int, pattern: tuple) -> Iterator[int]:
    """U_s, U_(s-1), ..., U_0 of the expansion at the anchors a/q1 of a pattern.

    B_s(x + y) = sum_i C(s,i) B_i(x) y**(s-i) at x = a/q1, y = d/q gives
    P_s q**s sum_p w_p B_s(p/q) = sum_i U_i 2**(e i) with
    U_i = C(s,i) (P_s/P_i) sum_p w_p N_i(a_p) d_p**(s-i).  Nothing here
    depends on e, so every period q1 2**e with the same pattern shares the
    terms.  Each term takes the next power of every d_p, so a caller that
    stops after a few terms never forms a high one.
    """
    groups: dict[int, list[Iterator[int]]] = {}  # a -> w_p d_p**m for m = 0, 1, ..., per point
    for a, d, w in pattern:
        groups.setdefault(a, []).append(accumulate(repeat(d), mul, initial=w))
    # per anchor a: N_0(a)..N_s(a), and sum_p w_p d_p**m for m = 0, 1, ...
    rows = [(_anchor_table(q1, a, s), map(sum, zip(*powers))) for a, powers in groups.items()]
    steps = bernoulli_table(s).steps  # P_i / P_(i-1)
    c = 1  # C(s,i) P_s/P_i at i = s, then downward
    for i in range(s, -1, -1):
        acc = 0
        for nums, moments in rows:
            moment = next(moments)
            if moment:
                acc += nums[i] * moment
        yield c * acc
        if i:
            c = c * i // (s - i + 1) * steps[i]


# The leading terms a sign test may read.  Every torus32t sign test of verify
# measured from t = 63, over t = 63..800, 1000, 1400 and 2000, is decided
# within 4 terms (of the 38,701 at t = 63..400, 38% read 2, 38% read 3 and
# 24% read 4), so those tests never take bernoulli_sign's exact exit.
_TOP_TERMS = 4


@lru_cache(maxsize=1024)
def _top_terms(s: int, q1: int, pattern: tuple) -> tuple[tuple[int, ...], int]:
    """bernoulli_sign's memo: U_s, U_(s-1), ... up to _TOP_TERMS of them, and b.

    Every |U_i| is below 2**b, b the bit length of
    K = 2**s P_s q1**s 4 max(1, s!/6**s) sum_p |w_p| max(1, |d_p|)**s:
    C(s,i) <= 2**s, (P_s/P_i) N_i(a) = P_s q1**i B_i(a/q1) with 0 <= a/q1 <= 1,
    and on [0, 1] |B_0| = 1, |B_1| <= 1/2 and, from the Fourier series of B_i
    (DLMF 24.8), |B_i| <= 2 zeta(i) i!/(2 pi)**i < 4 i!/6**i for i >= 2,
    where i!/6**i falls up to i = 5 and then rises.  A sweep needs one entry
    per index and parity.
    """
    terms = tuple(islice(_terms_from_top(s, q1, pattern), _TOP_TERMS))
    k = (bernoulli_table(s).denominators[s] * q1**s * (factorial(s) // 6**s + 1)
         * sum(abs(w) * max(1, abs(d)) ** s for _, d, w in pattern)) << (s + 2)
    return terms, k.bit_length()


def bernoulli_sign(f: PeriodicFunction, s: int) -> int:
    """Sign of sum_(m=1..M) f(m) B_s(m/M), that of bernoulli_sum(f, [s])'s numerator.

    Above 2**ANCHOR_E0 in M, the leading terms of the expansion
    sum_i U_i 2**(e i) of _terms_from_top are summed from the top by
    Horner's rule, T = U_s, then T 2**e + U_(s-1), and so on.  It stops as
    soon as T != 0 and |T| 2**e >= 2**(b+1), b from _top_terms: the terms
    not yet added are then worth less than sum_(m>=1) 2**(b - e m)
    < 2**(b+1-e) <= |T| at T's scale, so the whole sum has T's sign.  A sum
    the leading terms leave undecided, such as an exact zero, and every sum
    below 2**ANCHOR_E0 take the sign of bernoulli_sum's exact value.
    """
    check_indices([s])
    anchor = f._fold(-1 if s % 2 else 1).anchor
    if anchor is not None:
        e, q1, pattern = anchor
        terms, bits = _top_terms(s, q1, pattern)
        total = 0
        for term in terms:
            total = (total << e) + term
            if total and total.bit_length() + e > bits + 1:
                return (total > 0) - (total < 0)
    [(num, _)] = bernoulli_sum(f, [s])
    return (num > 0) - (num < 0)


def bernoulli_sum(f: PeriodicFunction, ss: list[int]) -> list[tuple[int, int]]:
    """sum_(m=1..M) f(m) B_s(m/M) for each s in ss, as unreduced (num, den), den > 0.

    The s ascend strictly and share one parity.  B_s(1 - x) = (-1)**s B_s(x)
    lets each residue share the Bernoulli value of its mirror, so the weight
    is folded once per parity, and kept with the weight.  The weights go
    over their lcm L, and each sum is returned over L D, D = P_s M**s, never
    reduced.  Residue 0 contributes at the right endpoint x = 1 of the
    period window.

    Below 2**ANCHOR_E0 in M, one kernel call gives the values over D for
    every s.  Above it, each sum is the polynomial in 2**e of all s + 1
    terms of its expansion at the anchors a/q1 (see _terms_from_top),
    summed by shifts and adds in pairs.  The terms are not memoized: a run
    asks each index once.  A sign test needs no full value: bernoulli_sign
    reads it from the leading terms.
    """
    check_indices(ss)
    period = f.period
    fold = f._fold(-1 if ss[0] % 2 else 1)
    if fold.anchor is None:
        return [(sum(w * b for w, b in zip(fold.weights, values)), fold.scale * den)
                for values, den in bernoulli_poly(ss, fold.points, period)]
    e, q1, pattern = fold.anchor
    out = []
    for s in ss:
        terms = tuple(_terms_from_top(s, q1, pattern))[::-1]  # U_0..U_s
        shift = e
        while len(terms) > 1:  # U_2j + U_(2j+1) 2**e, then those in pairs by 2**(2e), ...
            terms = [lo + (hi << shift) for lo, hi in zip_longest(terms[::2], terms[1::2],
                                                                  fillvalue=0)]
            shift *= 2
        top = bernoulli_table(s).denominators[s]  # P_s
        out.append((terms[0], (fold.scale * top * q1**s) << (e * s)))  # L P_s M**s
    return out


def c_sequence(ident: StrangeIdentity, N: int) -> tuple[Fraction, ...]:
    """L-value rationals C_0..C_N, scaled Bernoulli sums of the weight.

    C_n = (-1)**(n+1) M**(s-1) / s * sum_(m=1..M) f(m) B_s(m/M), s = 2n + nu + 1.
    """
    if N < 0:
        raise ValueError("need a nonnegative count")
    period = ident.f.period
    ss = list(range(ident.nu + 1, 2 * N + ident.nu + 2, 2))
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
    if N < 0:
        raise ValueError("need a nonnegative count")
    if len(values) <= N:
        raise ValueError("values do not cover the requested range")
    # Let L be the lcm denominator of values[0..N] and W_n[i] the image of
    # x**i (x+a) ... (x+a+(n-1)b) under x**k -> L values[k].  Then
    # W_n[i] = W_(n-1)[i+1] + (a+(n-1)b) W_(n-1)[i] and W_n[0] = L n! b**n xi_n:
    # the Stirling recurrence runs implicitly, multiplying by a small integer only.
    # The divisor L n! b**n is kept as odd * 2**twos: a head whose low twos bits
    # are not all zero is not a multiple of it, and the rest is shifted out
    # before the division by the odd part.
    row, den = _over_common_denominator(values[: N + 1])
    odd, twos = 1, 0
    out: list[int] = []
    for n, head in enumerate(_pascal_heads(row, range(a, a + N * b, b))):
        step = n * b if n else den  # L, then the factors n b of L n! b**n
        v = (step & -step).bit_length() - 1
        odd *= step >> v
        twos += v
        val, rem = divmod(head >> twos, odd)
        if rem or head & ((1 << twos) - 1):
            raise ValueError("strange-identity data inconsistent with integrality")
        out.append(val)
    return TruncatedSeries(out)
