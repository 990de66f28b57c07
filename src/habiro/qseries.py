"""Coefficient windows of power series, integer-list kernels, and transforms.

A series is the window of its coefficients 0..N.  The expansion code works on
plain integer lists (exact q-polynomials, and windows in u where q = 1-u) and
wraps only its final window in a TruncatedSeries.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence, Union

Coeff = Union[int, Fraction]


def _norm(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class TruncatedSeries:
    """Coefficients 0..order of a power series, with order = len(coeffs) - 1."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[Coeff]):
        self.coeffs = tuple(_norm(c) for c in coeffs)
        self.order = len(self.coeffs) - 1

    def coefficient(self, n: int) -> Coeff:
        if n > self.order:
            raise ValueError(f"coefficient {n} lies beyond truncation order {self.order}")
        return self.coeffs[n] if n >= 0 else 0

    def integer_coeffs(self) -> list[int]:
        out = []
        for c in self.coeffs:
            if isinstance(c, Fraction):
                raise ValueError("non-integer coefficient present")
            out.append(c)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"


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


def _pascal_heads(row: Sequence[Coeff], weights) -> list[Coeff]:
    """Head of row before and after each step row <- [w*x + y for adjacent x, y].

    After k steps with weight w the head is sum_i C(k, i) w**(k-i) row[i], so
    one pass over a triangle gives every binomial sum of the row.
    """
    row = list(row)
    heads = row[:1]
    for w in weights:
        row = [w * x + y for x, y in zip(row, row[1:])]
        heads.append(row[0])
    return heads


def _binomial_row(xi: TruncatedSeries, tail: Sequence[Coeff], w: int) -> TruncatedSeries:
    """xi_0, then sum_(i<n) C(n-1, i) w**(n-1-i) tail[i] for n = 1..len(tail)."""
    return TruncatedSeries(xi.coeffs[:1] + tuple(_pascal_heads(tail, [w] * (len(tail) - 1))))


def transform_g(xi: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of the same element written in the variable q/(1+q).

    Alternating binomial transform: g(n) = sum_l (-1)**l C(n-1,l) xi(n-l).
    """
    return _binomial_row(xi, xi.coeffs[1:], -1)


def binomial_transform(xi: TruncatedSeries) -> TruncatedSeries:
    """Unsigned binomial transform, the two-sided inverse of transform_g."""
    return _binomial_row(xi, xi.coeffs[1:], 1)


def transform_h(xi: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of the same element written in the variable s with q = s/(2-s).

    Equivalently the composition of the series with 2q/(1+q), whose n-th power
    has coefficients 2**n (-1)**(m-n) C(m-1, m-n).
    """
    return _binomial_row(xi, [2**n * c for n, c in enumerate(xi.coeffs[1:], 1)], -1)
