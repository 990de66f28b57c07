"""Exact vanishing test for rational sums of roots of unity.

With rad the product of the primes dividing C and s = C/rad, the C-th
cyclotomic polynomial is Phi_rad(z**s), so 1, z, ..., z**(s-1) is a basis
of Q(z) over Q(z**s) = Q(zeta_rad), z a primitive C-th root of unity.  A sum
of c_e z**e therefore vanishes exactly when, for each residue i mod s, the
polynomial sum_j c_(i+sj) x**j of degree < rad is divisible by Phi_rad.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod
from typing import Mapping


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


@cache
def _cyclotomic_squarefree(s: int) -> tuple[int, ...]:
    """Dense coefficients of the s-th cyclotomic polynomial, s squarefree."""
    poly = [-1] + [0] * (s - 1) + [1]
    for d in _divisors(s):
        if d < s:
            poly = _dense_div_exact(poly, _cyclotomic_squarefree(d))
    return tuple(poly)


@cache
def _cofactor(s: int) -> tuple[int, ...]:
    """Dense coefficients of (x**s - 1) / Phi_s, s squarefree."""
    return tuple(_dense_div_exact([-1] + [0] * (s - 1) + [1], _cyclotomic_squarefree(s)))


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def root_sum_is_zero(conductor: int, terms: Mapping[int, Fraction | int]) -> bool:
    """Whether sum c_e z**e vanishes, z a primitive conductor-th root of unity.

    x**rad - 1 = Phi_rad * Psi with coprime factors, so Phi_rad divides a
    group's polynomial P exactly when P * Psi vanishes mod x**rad - 1.  Each
    term meets the rad - phi(rad) + 1 coefficients of Psi once, so the cost is
    O(#terms * rad) whatever the size of conductor / rad.
    """
    rad = prod(factorize(conductor))
    stretch = conductor // rad
    psi = _cofactor(rad)
    groups: dict[int, dict[int, Fraction | int]] = {}
    for e, c in terms.items():
        e %= conductor
        row = groups.setdefault(e % stretch, {})
        for j, d in enumerate(psi):
            if d:
                slot = (e // stretch + j) % rad
                row[slot] = row.get(slot, 0) + c * d
    return not any(any(row.values()) for row in groups.values())
