"""Bernoulli numbers and polynomials over exact rationals.

Uses the B_1 = -1/2 convention throughout.  Even-index values come from the
integer tangent-number triangle (Brent-Harvey), which avoids rational
arithmetic in the quadratic-cost part of the recurrence.

B_0..B_K are memoized as one table of integer numerators over the prefix
denominators P_j = lcm(den B_0, ..., den B_j), so that Bernoulli polynomial
values at several points p_i/q and several indices k come out of one integer
kernel call, for each k as numerators over the one denominator P_k q**k, never
reduced: a caller that needs only a sign, or a sum of values, runs no gcd.  Indices 2 apart, such as the s = 2n + nu + 1 of
the L-values C_0..C_N, share their terms: each index rescales the terms of
the one before by small integers, so the index-free part (P_j B_j) q**j of
each term is built once per call, not once per index.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple


class _Table(NamedTuple):
    denominators: tuple[int, ...]  # P_j
    numerators: tuple[int, ...]  # P_j * B_j
    steps: tuple[int, ...]  # P_j / P_(j-1), 1 at j = 0


# Replaced, never mutated, and each caller returns the table it loaded or built,
# so threads that race to grow it can build twice or briefly leave a smaller
# table in place, but none is handed a torn table or one too short for it.
_table = _Table((1, 2), (1, -1), (1, 2))


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
    steps = [1] + [dens[j] // dens[j - 1] for j in range(1, top + 1)]
    return _Table(tuple(dens), tuple(nums), tuple(steps))


def bernoulli_table(k: int) -> _Table:
    """The table of B_0 .. B_k or beyond: P_j, P_j B_j and P_j / P_(j-1), grown by doubling."""
    global _table
    table = _table
    if len(table.numerators) <= k:
        table = _table = _build_table(max(k, 2 * (len(table.numerators) - 1)))
    return table


def check_indices(ks: list[int]) -> None:
    """Raise ValueError unless ks is nonempty, nonnegative, strictly ascending and of one parity."""
    if not ks or ks[0] < 0 or (
        len(ks) > 1 and any(b <= a or (b - a) % 2 for a, b in zip(ks, ks[1:]))
    ):
        raise ValueError("Bernoulli indices must be nonnegative, strictly ascending, of one parity")


def bernoulli_number(k: int) -> Fraction:
    """Return B_k as a Fraction, with B_1 = -1/2."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    table = bernoulli_table(k)
    return Fraction(table.numerators[k], table.denominators[k])


def bernoulli_poly(ks: list[int], ps: list[int], q: int) -> list[tuple[list[int], int]]:
    """For each k in ks, the integers n_i and D = P_k q**k with B_k(p_i/q) = n_i / D.

    The indices must be nonnegative, strictly ascending and of one parity.
    The values come unreduced, one (n_i, D) pair per index, in the order of ks.
    """
    check_indices(ks)
    if q < 1:
        raise ValueError("denominator must be positive")
    table = bernoulli_table(ks[-1])
    # P_k q**k B_k(p/q) = sum_j C(k,j) (P_k B_j) q**j p**(k-j) is step k of a
    # Horner loop in p whose accumulator after step j is the sum over i <= j
    # of C(k,i) (P_j B_i) q**i p**(j-i); step 2 leaves 6p**2 - 3kpq + C(k,2) q**2.
    # B_j vanishes for odd j >= 3, so the even j >= 4 take two steps at once,
    # scaling by p**2 and by P_j / P_(j-2), which is the step P_j / P_(j-1)
    # since P_(j-1) = P_(j-2).  Their terms C(k,j) (P_j B_j) q**j are shared
    # by the points; with q = q1 2**e the power of 2 is a shift.
    # An index 2 above the one before it takes that index's terms times
    # C(k,j) / C(k-2,j) = k(k-1) / ((k-j)(k-j-1)), plus one new term, so a
    # run of indices builds each (P_j B_j) q1**j once.
    # Each point's Horner multipliers p**2 P_j / P_(j-2) are formed once per
    # call, and only when an index reaches 4: most sign-test calls stop at k = 2.
    nums, steps = table.numerators, table.steps[4 : ks[-1] + 1 : 2]
    mults = [[pp * g for g in steps] for pp in [p * p for p in ps]] if steps else [()] * len(ps)
    e = (q & -q).bit_length() - 1
    q1sq = (q >> e) ** 2
    out = []
    terms, qpow, prev = [], 1, 0
    for k in ks:
        qpow *= q ** (k - prev)
        gap, prev = k - prev, k
        den = table.denominators[k] * qpow
        if k < 2:  # B_0 = 1 and B_1(p/q) = (2p - q) / 2q
            out.append(([2 * p - q for p in ps] if k else [1] * len(ps), den))
            continue
        if terms and gap == 2:
            up = k * (k - 1)
            terms = [t * up // ((k - j) * (k - j - 1)) for j, t in zip(range(4, k, 2), terms)]
            j = k - k % 2  # the new term's C(k,j) is k or 1
            terms.append((nums[j] * q1pow * (k if k % 2 else 1)) << (e * j))
            q1pow *= q1sq
        else:
            terms = []
            binom = k * (k - 1) * (k - 2) * (k - 3) // 24
            q1pow = q1sq * q1sq
            for j in range(4, k + 1, 2):
                terms.append((binom * nums[j] * q1pow) << (e * j))
                binom = binom * (k - j) * (k - j - 1) // ((j + 1) * (j + 2))
                q1pow *= q1sq
        step2 = k * (k - 1) // 2 * q * q
        values = []
        for p, ms in zip(ps, mults):
            acc = 6 * p * p - 3 * k * p * q + step2
            for m, t in zip(ms, terms):
                acc = acc * m + t
            values.append(acc * p if k % 2 else acc)  # odd step k has no term; P_k = P_(k-1)
        out.append((values, den))
    return out
