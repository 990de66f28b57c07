"""Periodic weights, strange-identity data, and the L-value coefficient route.

The route runs C -> B -> xi: exact special-value rationals from Bernoulli
polynomials, a binomial change of expansion point, then a Stirling-weighted
sum that must land on integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from habiro.exact import (
    DEFAULT_PRECISION,
    CyclotomicNumber,
    IntervalReal,
    bernoulli_poly,
)
from habiro.qseries import TruncatedSeries


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

    @classmethod
    def from_values(cls, values) -> "PeriodicFunction":
        """Build from one value per residue class, zeros included."""
        return cls(len(values), tuple(enumerate(values)))

    def __call__(self, n: int) -> Fraction:
        return self._map.get(n % self.period, Fraction(0))

    def support(self) -> list[int]:
        return [r for r, _ in self.entries]

    def support_size(self) -> int:
        return len(self.entries)

    def max_abs(self) -> Fraction:
        return max((abs(v) for _, v in self.entries), default=Fraction(0))

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
        for r, v in self.entries:
            mirror = self.period - r
            if mirror < r:
                acc[mirror] = acc.get(mirror, 0) + sign * v
            else:
                acc[r] = acc.get(r, 0) + v
        return tuple((r, v) for r, v in sorted(acc.items()) if v)

    def to_json(self) -> str:
        return json.dumps(
            {"M": self.period, "entries": [[r, str(v)] for r, v in self.entries]}
        )

    @classmethod
    def from_json(cls, text: str) -> "PeriodicFunction":
        data = json.loads(text)
        return cls(int(data["M"]), tuple((int(r), Fraction(s)) for r, s in data["entries"]))


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

    def exponent(self, n: int) -> int:
        return (n * n - self.a) // self.b


@dataclass(frozen=True)
class CSequence:
    values: tuple[Fraction, ...]

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class BSequence:
    values: tuple[Fraction, ...]

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def _g_exact(f: PeriodicFunction, nu: int, k: int) -> CyclotomicNumber:
    """sqrt(M) * G as an exact cyclotomic number at conductor lcm(4, 2M)."""
    period = f.period
    conductor = lcm(4, 2 * period)
    step = conductor // period
    terms: dict[int, Fraction] = {}
    if nu == 1:
        # 2cos(2 pi e / C) = z**e + z**-e
        for m in f.support():
            e = (m * k * step) % conductor
            v = f(m)
            terms[e] = terms.get(e, Fraction(0)) + v
            terms[-e % conductor] = terms.get(-e % conductor, Fraction(0)) + v
    else:
        # 2sin(2 pi e / C) = z**(e + 3C/4) - z**(-e + 3C/4)
        rot = 3 * conductor // 4
        for m in f.support():
            e = (m * k * step) % conductor
            v = f(m)
            p = (e + rot) % conductor
            q = (-e + rot) % conductor
            terms[p] = terms.get(p, Fraction(0)) + v
            terms[q] = terms.get(q, Fraction(0)) - v
    return CyclotomicNumber.from_terms(conductor, terms)


def g_value(
    f: PeriodicFunction, nu: int, k: int, prec: int = DEFAULT_PRECISION
) -> tuple[CyclotomicNumber, IntervalReal]:
    """Fourier coefficient G at frequency k: exact sqrt(M)-scaled value and enclosure."""
    if nu not in (0, 1):
        raise ValueError("nu must be 0 or 1")
    exact = _g_exact(f, nu, k)
    period = f.period
    pi = IntervalReal.pi(prec)
    total = IntervalReal.from_int(0, prec)
    for m in f.support():
        arg = pi * Fraction(2 * ((m * k) % period), period)
        wave = arg.cos() if nu == 1 else arg.sin()
        total = total + wave * f(m)
    numeric = total * 2 / IntervalReal.from_int(period, prec).sqrt()
    return exact, numeric


def find_k_nu(f: PeriodicFunction, nu: int) -> int:
    """Smallest k in 1..M with G nonzero, certified in the cyclotomic field."""
    for k in range(1, f.period + 1):
        if not _g_exact(f, nu, k).is_zero():
            return k
    raise ValueError("no nonzero Fourier coefficient")


def c_sequence(ident: StrangeIdentity, N: int) -> CSequence:
    """L-value rationals C_0..C_N from Bernoulli polynomials at support points."""
    if N < 0:
        raise ValueError("need a nonnegative count")
    period = ident.f.period
    # s = 2n + nu + 1 keeps its parity, and B_s(1 - x) = (-1)**s B_s(x) lets
    # each residue share the Bernoulli value of its mirror
    weights = ident.f.folded(1 if ident.nu else -1)
    out = []
    for n in range(N + 1):
        s = 2 * n + ident.nu + 1
        acc = Fraction(0)
        # residue 0 contributes at the right endpoint of the period window
        for m, v in weights:
            acc += v * bernoulli_poly(s, Fraction(m if m else period, period))
        sign = -1 if n % 2 == 0 else 1
        out.append(sign * Fraction(period) ** (s - 1) / s * acc)
    return CSequence(tuple(out))


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integers x_i and L with values[i] = x_i / L, L the lcm of the denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def b_sequence(ident: StrangeIdentity, c: CSequence) -> BSequence:
    """Change of expansion point: B_n = b**-n sum_k C(n,k) a**(n-k) C_k."""
    # Over the lcm denominator L of C, T_0[k] = L C_k and
    # T_n[k] = a T_(n-1)[k] + T_(n-1)[k+1] give
    # T_n[k] = L sum_i C(n,i) a**(n-i) C_(k+i), so T_n[0] = L b**n B_n.
    # Each step multiplies by the small integer a only.
    row, den = _over_common_denominator(c.values)
    out = [Fraction(row[0], den)]
    for _ in range(1, len(c)):
        row = [ident.a * x + y for x, y in zip(row, row[1:])]
        den *= ident.b
        out.append(Fraction(row[0], den))
    b = BSequence(tuple(out))
    if len(b) and b[0] != c[0]:
        raise AssertionError("B_0 must equal C_0")
    return b


def xi_from_theta(b: BSequence, N: int) -> TruncatedSeries:
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
    row, scale = _over_common_denominator(b.values[: N + 1])
    out: list[int] = []
    for n in range(N + 1):
        if n:
            row = [y + (n - 1) * x for x, y in zip(row, row[1:])]
            scale *= n
        val, rem = divmod(row[0], scale)
        if rem:
            raise ValueError("strange-identity data inconsistent with integrality")
        out.append(val)
    return TruncatedSeries(out)
