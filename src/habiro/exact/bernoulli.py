"""Bernoulli numbers and polynomials over exact rationals.

Uses the B_1 = -1/2 convention throughout.  Even-index values come from the
integer tangent-number triangle (Brent-Harvey), which avoids rational
arithmetic in the quadratic-cost part of the recurrence.

B_0..B_K are memoized as one table.  Beside the Fractions it holds integer
numerators over the prefix denominators P_j = lcm(den B_0, ..., den B_j), so
that a Bernoulli polynomial value is an integer sum over the one denominator
P_k q**k, reduced to a Fraction once.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import lcm
from typing import NamedTuple


class _Table(NamedTuple):
    values: tuple[Fraction, ...]  # B_j
    denominators: tuple[int, ...]  # P_j
    numerators: tuple[int, ...]  # P_j * B_j
    growth: tuple[int, ...]  # P_j / P_(j-2) for even j >= 2, else 1


_lock = threading.Lock()
# Replaced, never mutated, so a reader that loads it once sees the numerators
# and denominators of the same table.  Grown under _lock.
_table = _Table((Fraction(1), Fraction(-1, 2)), (1, 2), (1, -1), (1, 1))


def _tangent_numbers(n: int) -> list[int]:
    """T_1 .. T_n at indices 1 .. n; index 0 is padding."""
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _build_table(top: int) -> _Table:
    """B_0 .. B_top, with B_2h = (-1)**(h+1) 2h T_h / (2**2h (2**2h - 1))."""
    t = _tangent_numbers(top // 2)
    values = [Fraction(1), Fraction(-1, 2)]
    for k in range(2, top + 1):
        if k % 2:
            values.append(Fraction(0))
        else:
            h = k // 2
            sign = 1 if h % 2 == 1 else -1
            values.append(Fraction(sign * k * t[h], (1 << k) * ((1 << k) - 1)))
    dens = [1]
    for v in values[1:]:
        dens.append(lcm(dens[-1], v.denominator))
    nums = [v.numerator * (d // v.denominator) for v, d in zip(values, dens)]
    growth = [1, 1] + [dens[j] // dens[j - 2] if j % 2 == 0 else 1 for j in range(2, top + 1)]
    return _Table(tuple(values), tuple(dens), tuple(nums), tuple(growth))


def _table_through(k: int) -> _Table:
    """A table holding B_0 .. B_k, grown by doubling when it is too short."""
    global _table
    table = _table
    if len(table.values) <= k:
        with _lock:
            table = _table
            if len(table.values) <= k:
                table = _table = _build_table(max(k, 2 * (len(table.values) - 1)))
    return table


def bernoulli_number(k: int) -> Fraction:
    """Return B_k as a Fraction, with B_1 = -1/2."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    return _table_through(k).values[k]


def bernoulli_poly(k: int, x: Fraction | int) -> Fraction:
    """Evaluate the Bernoulli polynomial B_k(x) exactly."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    table = _table_through(k)
    nums, growth = table.numerators, table.growth
    # P_k q**k B_k(p/q) = sum_j C(k,j) (P_k B_j) q**j p**(k-j).  B_j vanishes
    # for odd j >= 3, so the even j run a Horner loop in p**2 whose
    # accumulator after step j is the sum over even i <= j of
    # C(k,i) (P_j B_i) q**i p**(j-i): each step scales it by p**2 and by
    # P_j / P_(j-2).  The binomials and the powers of q**2 are kept
    # incrementally, and the j = 1 term goes apart.
    pp, qq = p * p, q * q
    acc = 0
    binom = 1
    qpow = 1
    for j in range(0, k + 1, 2):
        acc = acc * (pp * growth[j]) + binom * nums[j] * qpow
        binom = binom * (k - j) * (k - j - 1) // ((j + 1) * (j + 2))
        qpow *= qq
    den = table.denominators[k]
    if k % 2:
        acc *= p * (den // table.denominators[k - 1])
    if k:
        acc -= k * (den // 2) * q * p ** (k - 1)
    return Fraction(acc, den * q**k)
