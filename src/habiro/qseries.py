"""Coefficient windows of power series, integer-list kernels, and transforms.

A series is the tuple of its coefficients 0..N.  The expansion code works on
plain integer lists (exact q-polynomials, and windows in u where q = 1-u) and
makes only its final window a TruncatedSeries.
"""

from __future__ import annotations

from math import comb
from operator import add, sub
from typing import Sequence


class TruncatedSeries(tuple):
    """Coefficients 0..N of a power series, read by index and slice."""

    __slots__ = ()

    def integer_coeffs(self) -> list[int]:
        """The coefficients as ints; a non-integral Fraction raises ValueError."""
        out = [c.numerator for c in self if c.denominator == 1]
        if len(out) != len(self):
            raise ValueError("non-integer coefficient present")
        return out


# -- integer-list kernels used by the expansion code ------------------------


def mul_trunc_int(a: list[int], b: list[int], order: int) -> list[int]:
    """Truncated product of dense integer coefficient lists starting at degree 0."""
    out = [0] * (min(order, len(a) + len(b) - 2) + 1)
    top = len(out)
    for i, ca in enumerate(a):
        if not ca or i >= top:
            continue
        stop = min(len(b), top - i)
        for j in range(stop):
            cb = b[j]
            if cb:
                out[i + j] += ca * cb
    return out


def one_minus_power_int(k: int, order: int) -> list[int]:
    """Coefficients of 1 - (1-u)**k through the given order."""
    out = [0] * (order + 1)
    for j in range(1, min(k, order) + 1):
        out[j] = -comb(k, j) if j % 2 == 0 else comb(k, j)
    return out


# -- binomial changes of variable ---------------------------------------------


def _pascal_heads(row: Sequence[int], weights) -> list[int]:
    """Head of row before and after each step row <- [w*x + y for adjacent x, y].

    After k steps with weight w the head is sum_i C(k, i) w**(k-i) row[i], so
    one pass over a triangle gives every binomial sum of the row.  A step of
    weight 1 or -1 is an addition or a subtraction of adjacent entries.
    """
    row = list(row)
    heads = row[:1]
    for w in weights:
        if w == 1:
            row = list(map(add, row, row[1:]))
        elif w == -1:
            row = list(map(sub, row[1:], row))
        else:
            row = [w * x + y for x, y in zip(row, row[1:])]
        heads.append(row[0])
    return heads


def _binomial_row(xi: TruncatedSeries, tail: Sequence[int], w: int) -> TruncatedSeries:
    """xi_0, then sum_(i<n) C(n-1, i) w**(n-1-i) tail[i] for n = 1..len(tail)."""
    return TruncatedSeries(xi[:1] + tuple(_pascal_heads(tail, [w] * (len(tail) - 1))))


def transform_g(xi: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of the same element written in the variable q/(1+q).

    Alternating binomial transform: g(n) = sum_l (-1)**l C(n-1,l) xi(n-l).
    """
    return _binomial_row(xi, xi[1:], -1)


def binomial_transform(xi: TruncatedSeries) -> TruncatedSeries:
    """Unsigned binomial transform, the two-sided inverse of transform_g."""
    return _binomial_row(xi, xi[1:], 1)


def transform_h(xi: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of the same element written in the variable s with q = s/(2-s).

    Equivalently the composition of the series with 2q/(1+q), whose n-th power
    has coefficients 2**n (-1)**(m-n) C(m-1, m-n).
    """
    return _binomial_row(xi, [2**n * c for n, c in enumerate(xi[1:], 1)], -1)
