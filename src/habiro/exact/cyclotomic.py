"""Exact arithmetic in cyclotomic fields, enough to certify vanishing.

Elements are stored on the power basis 1, z, ..., z**(phi(C)-1) of the C-th
cyclotomic field, so equality and zero tests are coefficient comparisons.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Iterable, Mapping

_lock = threading.Lock()
_poly_cache: dict[int, dict[int, int]] = {}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division."""
    if n < 1:
        raise ValueError("argument must be positive")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(n: int) -> int:
    """Euler's totient."""
    t = n
    for p in factorize(n):
        t = t // p * (p - 1)
    return t


def _dense_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; den is monic up to sign."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("division is not exact")
        out[i - dd] = q
        for j, dj in enumerate(den):
            num[i - dd + j] -= q * dj
    if any(num):
        raise ArithmeticError("division left a remainder")
    return out


def _cyclotomic_squarefree(s: int) -> list[int]:
    """Dense coefficients of the s-th cyclotomic polynomial, s squarefree."""
    if s == 1:
        return [-1, 1]
    poly = [0] * (s + 1)
    poly[0] = -1
    poly[s] = 1
    for d in _divisors(s):
        if d < s:
            poly = _dense_div_exact(poly, _cyclotomic_squarefree(d))
    return poly


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def cyclotomic_poly(n: int) -> dict[int, int]:
    """Sparse exponent-to-coefficient map of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("argument must be positive")
    with _lock:
        cached = _poly_cache.get(n)
        if cached is not None:
            return dict(cached)
    rad = 1
    for p in factorize(n):
        rad *= p
    dense = _cyclotomic_squarefree(rad)
    stretch = n // rad
    sparse = {i * stretch: c for i, c in enumerate(dense) if c}
    with _lock:
        _poly_cache[n] = dict(sparse)
    return sparse


class CyclotomicNumber:
    """Rational linear combination of roots of unity of a fixed conductor."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Iterable[Fraction]):
        self.conductor = conductor
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if len(self.coeffs) != totient(conductor):
            raise ValueError("coefficient vector has the wrong length")

    @classmethod
    def from_terms(
        cls, conductor: int, terms: Mapping[int, Fraction | int]
    ) -> "CyclotomicNumber":
        """Build sum of c_e * z**e from exponent-to-coefficient terms."""
        dense = [Fraction(0)] * conductor
        for e, c in terms.items():
            dense[e % conductor] += Fraction(c)
        return cls(conductor, _reduce(dense, conductor))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __repr__(self) -> str:
        nz = {i: str(c) for i, c in enumerate(self.coeffs) if c}
        return f"CyclotomicNumber(C={self.conductor}, {nz})"


def _reduce(dense: list[Fraction], conductor: int) -> list[Fraction]:
    """Reduce a degree < C polynomial in z modulo the C-th cyclotomic polynomial."""
    phi = totient(conductor)
    sparse = cyclotomic_poly(conductor)
    lower = [(e, c) for e, c in sparse.items() if e < phi]
    for e in range(len(dense) - 1, phi - 1, -1):
        c = dense[e]
        if c == 0:
            continue
        dense[e] = Fraction(0)
        for ee, cc in lower:
            dense[e - phi + ee] -= c * cc
    return dense[:phi]

