"""Coefficient windows of power series, integer-list kernels, and transforms.

A series is the window of its coefficients 0..N.  The expansion code works on
plain integer lists (exact q-polynomials, and windows in u where q = 1-u) and
wraps only its final window in a TruncatedSeries.
"""

from __future__ import annotations

import threading
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


def mul_dense_int(a: list[int], b: list[int]) -> list[int]:
    """Exact product of dense integer coefficient lists starting at degree 0."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return out


def mul_sparse_binomial_int(a: list[int], c: int, limit: int | None = None) -> list[int]:
    """Multiply a dense integer polynomial by (1 - x**c), optionally truncated."""
    n = len(a) + c if limit is None else min(len(a) + c, limit + 1)
    out = a[:n] + [0] * (n - len(a))
    # n <= len(a) + c, so a[i - c] exists for every i
    for i in range(c, n):
        out[i] -= a[i - c]
    return out


def one_minus_power_int(k: int, order: int) -> list[int]:
    """Coefficients of 1 - (1-u)**k through the given order."""
    out = [0] * (order + 1)
    for j in range(1, min(k, order) + 1):
        out[j] = -comb(k, j) if j % 2 == 0 else comb(k, j)
    return out


def subst_one_minus_int(p: list[int], order: int) -> list[int]:
    """Evaluate a dense integer q-polynomial at q = 1-u, truncated in u."""
    acc = [0] * (order + 1)
    for e in range(len(p) - 1, -1, -1):
        # acc <- acc*(1-u) + p[e]
        for j in range(order, 0, -1):
            acc[j] -= acc[j - 1]
        acc[0] += p[e]
    return acc


_qbinom_lock = threading.Lock()
_qbinom_cache: dict[tuple[int, int], tuple[int, ...]] = {}


def _qbinom_int(n: int, k: int) -> tuple[int, ...]:
    """Dense coefficients of the Gaussian binomial, caller holds the lock."""
    if k < 0 or k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    key = (n, k)
    got = _qbinom_cache.get(key)
    if got is not None:
        return got
    a = _qbinom_int(n - 1, k - 1)
    b = _qbinom_int(n - 1, k)
    out = [0] * (k * (n - k) + 1)
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i + k] += c
    res = tuple(out)
    _qbinom_cache[key] = res
    return res


def qbinomial(n: int, k: int, base_power: int = 1) -> list[int]:
    """Dense coefficients of the Gaussian binomial as a polynomial in q**base_power."""
    if base_power not in (1, 2):
        raise ValueError("base_power must be 1 or 2")
    with _qbinom_lock:
        dense = _qbinom_int(n, k)
    if base_power == 1 or not dense:
        return list(dense)
    spread = [0] * (2 * (len(dense) - 1) + 1)
    for i, c in enumerate(dense):
        spread[2 * i] = c
    return spread


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
