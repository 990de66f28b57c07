"""Exact vanishing test for rational sums of roots of unity.

Its cost depends on the number of terms alone, not on the conductor C:

1. Reduce the exponents mod C and merge equal ones; k terms remain.
2. Let n be the product of the primes p <= k that divide C, and step = C/n.
   By Mann's theorem (H. B. Mann, Mathematika 12, 1965; see also T. Y. Lam
   and K. H. Leung, J. Algebra 224, 2000) a vanishing sum of k roots of
   unity with no vanishing proper subsum has all its ratios among the n-th
   roots of unity.  Such minimal relations span all relations, so the sum
   vanishes iff each class e mod step does.  A class with e = base + step*j
   is z**base * sum c_j w**j, w a primitive n-th root of unity.
3. With n = p*r, p prime, CRT gives w**j = zeta_p**(j*u) * zeta_r**(j*v),
   u = r**-1 mod p and v = p**-1 mod r.  Phi_p stays irreducible over
   Q(zeta_r), so sum_i zeta_p**i A_i vanishes iff A_0 = ... = A_(p-1): each
   present group vanishes if fewer than p are present, and otherwise each
   A_i minus the smallest does.  These are sums over zeta_r, tested the same
   way; with no prime left (n = 1) a sum vanishes iff no term is left.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping


def root_sum_is_zero(conductor: int, terms: Mapping[int, Fraction | int]) -> bool:
    """Whether sum c_e z**e vanishes, z a primitive conductor-th root of unity."""
    if conductor < 1:
        raise ValueError("conductor must be positive")
    merged: dict[int, Fraction | int] = {}
    for e, c in terms.items():
        e %= conductor
        merged[e] = merged.get(e, 0) + c
    merged = {e: c for e, c in merged.items() if c}
    n = p = 1
    for q in range(2, len(merged) + 1):
        # a composite q that divides C has its prime factors in n already
        if conductor % q == 0 and gcd(n, q) == 1:
            n, p = n * q, q
    if n == 1:
        return not merged
    step, r = conductor // n, n // p
    u, v = pow(r, -1, p), pow(p, -1, r)
    classes: dict[int, list[dict[int, Fraction | int]]] = {}
    for e, c in merged.items():
        j = e // step
        classes.setdefault(e % step, [{} for _ in range(p)])[j * u % p][j * v % r] = c
    for groups in classes.values():
        present = [g for g in groups if g]
        if len(present) < p:
            subsums = present
        else:
            low = min(groups, key=len)
            subsums = [{**g, **{x: g.get(x, 0) - c for x, c in low.items()}}
                       for g in groups if g is not low]
        if not all(root_sum_is_zero(r, s) for s in subsums):
            return False
    return True
