"""Bernoulli numbers and polynomials over exact rationals.

Uses the B_1 = -1/2 convention throughout.  Even-index values come from the
integer tangent-number triangle (Brent-Harvey), which avoids rational
arithmetic in the quadratic-cost part of the recurrence.  The triangle is
built one column at a time, each entry over a factorial it is known to carry,
and its last column is kept, so a table grown from B_n to B_n' computes only
the new columns.

B_0..B_K are memoized as one table of integer numerators over the prefix
denominators P_j = lcm(den B_0, ..., den B_j), so that Bernoulli polynomial
values at several points p_i/q and several indices k come out of one integer
kernel call, for each k as numerators over the one denominator P_k q**k, never
reduced: a caller that needs only a sign, or a sum of values, runs no gcd.
Indices 2 apart, such as the s = 2n + nu + 1 of the L-values C_0..C_N, share
their terms.  A run of them is walked from its top index down: each step
multiplies every term by a small integer and a common scale F by another, so
the index-free part (P_j B_j) q**j of each term is built once per run, and
each value is divided exactly by F once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple


class _Table(NamedTuple):
    denominators: tuple[int, ...]  # P_j
    numerators: tuple[int, ...]  # P_j * B_j
    steps: tuple[int, ...]  # P_j / P_(j-1), 1 at j = 0
    column: tuple[int, ...]  # U_h[0..h-1] of the tangent triangle, h = top // 2 (_build_table)


# B_0, B_1, B_2 and U_1 = (T_1,) = (1,).  Replaced, never mutated, and each
# caller returns the table it loaded or built, so threads that race to grow it
# can build twice or briefly leave a smaller table in place, but none is handed
# a torn table or one too short for it.
_SEED = _Table((1, 2, 6), (1, -1, 1), (1, 2, 3), (1,))
_table = _SEED


def _build_table(top: int, table: _Table = _SEED) -> _Table:
    """B_0 .. B_top, table extended by the triangle's new columns.

    B_2h = (-1)**(h+1) 2h T_h / (2**2h (2**2h - 1)).  Pass 1 of the triangle
    sets t[h] = (h-1)!, and pass i >= 2 sets t[h] = (h-i) t[h-1] + (h-i+2) t[h]
    with t[h-1] as pass i left it; pass h leaves T_h.  After pass m + 1,
    t[h] = (h-1-m)! U_h[m], with U_h[0] = 1 and
    U_h[m] = U_(h-1)[m] + (h-m)(h-m+1) U_h[m-1], U_(h-1)[h-1] = 0,
    so column h of U follows from column h - 1 alone and ends in T_h.
    """
    dens, nums, steps = list(table.denominators), list(table.numerators), list(table.steps)
    column = table.column
    for k in range(len(nums), top + 1):
        den = dens[-1]
        if k % 2:
            dens.append(den)
            nums.append(0)
            steps.append(1)
            continue
        h = k // 2
        new = [1]
        for m in range(1, h - 1):
            new.append(column[m] + (h - m) * (h - m + 1) * new[-1])
        new.append(2 * new[-1])
        column = new
        sign = 1 if h % 2 == 1 else -1
        value = Fraction(sign * k * column[-1], (1 << k) * ((1 << k) - 1))
        dens.append(lcm(den, value.denominator))
        nums.append(value.numerator * (dens[-1] // value.denominator))
        steps.append(dens[-1] // den)
    return _Table(tuple(dens), tuple(nums), tuple(steps), tuple(column))


def bernoulli_table(k: int) -> _Table:
    """The table of B_0 .. B_k or beyond: P_j, P_j B_j and P_j / P_(j-1), grown by doubling."""
    global _table
    table = _table
    if len(table.numerators) <= k:
        table = _table = _build_table(max(k, 2 * (len(table.numerators) - 1)), table)
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


# The bits of a run's common scale F past which every term is divided by F
# exactly and F starts again at 1.  Whole runs timed on a 2-core x86-64 VM
# (CPython 3.11, medians of 3-7): at top index 259 with 2 points and a small
# period, as asym's C runs, 128-512 bits are fastest and 2,048 bits or never
# dividing are 10% slower; at 1,023 and 2,047 with 1 point, as the anchor
# tables run, 256-2,048 bits are within 10% of 512, 128 bits is 13-18%
# slower and never dividing 28-32% slower.
_SCALE_BITS = 512


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
    # The indices are walked from the top down, and q**k is divided down
    # with them.  A run of indices 2 apart keeps its terms: at the top of a
    # run, and after a gap, they are built from the binomial row, and a step
    # from k + 2 to k drops the top term and multiplies term j by
    # (k+2-j)(k+1-j).  That leaves the terms of k times a common scale F,
    # itself multiplied by (k+2)(k+1).  Term j's factor is d(d-1) with
    # d = k + 2 - j, read from one list indexed by d that serves every step
    # of a call; it is built at the first step down, since most calls have
    # one index.  Each point's Horner value starts from its j <= 2 part
    # times F and is divided by F exactly once.
    # Each point's Horner multipliers p**2 P_j / P_(j-2) are formed once per
    # call, and only when an index reaches 4: most sign-test calls stop at k = 2.
    nums, steps = table.numerators, table.steps[4 : ks[-1] + 1 : 2]
    mults = [[pp * g for g in steps] for pp in [p * p for p in ps]] if steps else [()] * len(ps)
    e = (q & -q).bit_length() - 1
    q1sq = (q >> e) ** 2
    out = []
    terms, scale, factors, above, qpow = [], 1, None, 0, 1  # above: the index walked before
    for k in reversed(ks):
        qpow = qpow // q ** (above - k) if above else q ** k
        den = table.denominators[k] * qpow
        if k < 2:  # B_0 = 1 and B_1(p/q) = (2p - q) / 2q
            out.append(([2 * p - q for p in ps] if k else [1] * len(ps), den))
            continue
        if k < 4:  # no terms, and no binomial row to start
            terms, scale = [], 1
        elif above == k + 2:
            if factors is None:
                factors = [d * (d - 1) for d in range(k)]
            terms.pop()
            terms = list(map(mul, terms, factors[k - 2 :: -2]))
            scale *= (k + 2) * (k + 1)
            if scale.bit_length() > _SCALE_BITS:
                terms = [t // scale for t in terms]
                scale = 1
        else:
            terms, scale = [], 1
            binom = k * (k - 1) * (k - 2) * (k - 3) // 24
            q1pow = q1sq * q1sq
            for j in range(4, k + 1, 2):
                terms.append((binom * nums[j] * q1pow) << (e * j))
                binom = binom * (k - j) * (k - j - 1) // ((j + 1) * (j + 2))
                q1pow *= q1sq
        above = k
        six, mid, step2 = 6 * scale, 3 * k * q * scale, k * (k - 1) // 2 * q * q * scale
        row = []
        for p, ms in zip(ps, mults):
            acc = (six * p - mid) * p + step2
            for m, t in zip(ms, terms):
                acc = acc * m + t
            if scale > 1:
                acc //= scale
            row.append(acc * p if k % 2 else acc)  # odd step k has no term; P_k = P_(k-1)
        out.append((row, den))
    out.reverse()
    return out
