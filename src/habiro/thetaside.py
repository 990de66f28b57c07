"""Periodic weights, strange-identity data, and the L-value coefficient route.

The route runs C -> B -> xi: exact special-value rationals from Bernoulli
polynomials, a binomial change of expansion point, then a Stirling-weighted
sum that must land on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from habiro.exact import DEFAULT_PRECISION, IntervalReal, bernoulli_poly, root_sum_is_zero
from habiro.qseries import TruncatedSeries, _pascal_heads


@dataclass(frozen=True)
class PeriodicFunction:
    """Rational-valued function on the integers with a fixed period.

    Stored by its nonzero residues so that a few-point weight with a huge
    period stays cheap to build and sum over.
    """

    period: int
    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if self.period < 2:
            raise ValueError("period must be at least 2")
        kept = []
        seen = set()
        for r, v in self.entries:
            if not 0 <= r < self.period:
                raise ValueError("support residue out of range")
            if r in seen:
                raise ValueError("duplicate support residue")
            seen.add(r)
            v = Fraction(v)
            if v:
                kept.append((int(r), v))
        kept.sort()
        object.__setattr__(self, "entries", tuple(kept))
        object.__setattr__(self, "_map", dict(kept))

    def __call__(self, n: int) -> Fraction:
        return self._map.get(n % self.period, Fraction(0))

    def mean_is_zero(self) -> bool:
        return sum(v for _, v in self.entries) == 0

    def is_even(self) -> bool:
        return all(self(-r) == v for r, v in self.entries)

    def is_odd(self) -> bool:
        return all(self(-r) == -v for r, v in self.entries)

    def folded(self, sign: int) -> tuple[tuple[int, Fraction], ...]:
        """Entries to sum g(r/M) against when g(1 - x) = sign * g(x).

        Each residue r above its mirror M - r is merged into the mirror with
        the factor sign; weights that cancel are dropped.  Residue 0 stands
        for the point x = 1 of the period window and has no mirror in it.
        """
        acc: dict[int, Fraction] = {}
        for r, v in self.entries:  # Fraction arithmetic only to mirror by -1 or to merge
            mirror = self.period - r
            if mirror < r:
                r, v = mirror, (v if sign == 1 else sign * v)
            acc[r] = acc[r] + v if r in acc else v
        return tuple((r, v) for r, v in sorted(acc.items()) if v)


def _four_residues(period: int, minus: tuple[int, int], plus: tuple[int, int],
                   weight: Fraction) -> PeriodicFunction:
    acc: dict[int, Fraction] = {}
    for r in minus:
        acc[r % period] = acc.get(r % period, Fraction(0)) - weight
    for r in plus:
        acc[r % period] = acc.get(r % period, Fraction(0)) + weight
    return PeriodicFunction(period, tuple(sorted(acc.items())))


def make_chi_t(t: int) -> PeriodicFunction:
    """Even weight of period 3*2**(t+1) supported on four residues."""
    if t < 1:
        raise ValueError("t must be at least 1")
    period = 3 * 2 ** (t + 1)
    minus = (2 ** (t + 1) - 3, 2 ** (t + 2) + 3)
    plus = (2 ** (t + 1) + 3, 2 ** (t + 2) - 3)
    return _four_residues(period, minus, plus, Fraction(1, 2))


def make_chi_m_ell(m: int, ell: int) -> PeriodicFunction:
    """Even weight of period 8m+4 attached to the two-parameter nested family."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 <= ell <= m - 1:
        raise ValueError("ell must lie in [0, m-1]")
    period = 8 * m + 4
    minus = (2 * m - 2 * ell - 1, 6 * m + 2 * ell + 5)
    plus = (2 * m + 2 * ell + 3, 6 * m - 2 * ell + 1)
    return _four_residues(period, minus, plus, Fraction(1, 2))


def make_chi_k(k: int) -> PeriodicFunction:
    """Odd weight of period 4k+2 with values +-1 near k and 3k+1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    period = 4 * k + 2
    return _four_residues(period, (3 * k + 1, 3 * k + 2), (k, k + 1), Fraction(1))


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


def bernoulli_sum(f: PeriodicFunction, ss: list[int]) -> list[tuple[int, int]]:
    """sum_(m=1..M) f(m) B_s(m/M) for each s in ss, as unreduced (num, den), den > 0.

    The s ascend strictly and share one parity.  B_s(1 - x) = (-1)**s B_s(x)
    lets each residue share the Bernoulli value of its mirror, so the weight
    is folded once for all of ss.  Residue 0 contributes at the right
    endpoint x = 1 of the period window.  One kernel call gives, for every s,
    the values over the one denominator D = P_s M**s; the weights go over
    their lcm L, and each sum is returned over L D, never reduced, so a sign
    test runs no gcd.
    """
    period = f.period
    entries = f.folded(-1 if ss[0] % 2 else 1)
    scale = lcm(*(v.denominator for _, v in entries))
    out = []
    for values, den in bernoulli_poly(ss, [m or period for m, _ in entries], period):
        num = sum(v.numerator * (scale // v.denominator) * b for (_, v), b in zip(entries, values))
        out.append((num, scale * den))
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
    b = tuple(Fraction(x, den * ident.b**n) for n, x in enumerate(heads))
    if len(b) and b[0] != c[0]:
        raise AssertionError("B_0 must equal C_0")
    return b


def xi_from_theta(b: tuple[Fraction, ...], N: int) -> TruncatedSeries:
    """Integer coefficient sequence from the B-expansion via Stirling weights.

    xi_n = sum_j c(n, j) B_j / n!, with c the unsigned Stirling numbers of the
    first kind, which are the coefficients of x (x+1) ... (x+n-1).
    """
    if len(b) <= N:
        raise ValueError("B-sequence does not cover the requested range")
    # Let Lam map x**j to L B_j, L the lcm denominator of B_0..B_N.  Then
    # W_n[i] = Lam(x**i x (x+1) ... (x+n-1)) satisfies
    # W_n[i] = W_(n-1)[i+1] + (n-1) W_(n-1)[i], and W_n[0] = L n! xi_n: the
    # Stirling recurrence runs implicitly, multiplying by n - 1 only.
    row, scale = _over_common_denominator(b[: N + 1])
    out: list[int] = []
    for n, head in enumerate(_pascal_heads(row, range(N))):
        scale *= max(n, 1)  # L n!
        val, rem = divmod(head, scale)
        if rem:
            raise ValueError("strange-identity data inconsistent with integrality")
        out.append(val)
    return TruncatedSeries(out)
