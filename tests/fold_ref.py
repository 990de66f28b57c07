"""The Fraction fold of a periodic weight, the reference for its integer form.

`folded` merges each residue r above its mirror M - r into the mirror with the
factor sign, in Fraction arithmetic, and drops the weights that cancel.
Residue 0 stands for the point x = 1 and has no mirror.  `fold_ref` puts the
merged values over the lcm of their denominators, as `PeriodicFunction._fold`
gives them from its integers.
"""

from fractions import Fraction
from math import lcm

from habiro.thetaside import PeriodicFunction


def folded(f: PeriodicFunction, sign: int) -> tuple[tuple[int, Fraction], ...]:
    """Entries to sum g(r/M) against when g(1 - x) = sign * g(x)."""
    acc: dict[int, Fraction] = {}
    for r, v in f.entries:
        mirror = f.period - r
        if mirror < r:
            r, v = mirror, sign * v
        acc[r] = acc[r] + v if r in acc else v
    return tuple((r, v) for r, v in sorted(acc.items()) if v)


def fold_ref(f: PeriodicFunction, sign: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(points, weights, scale): residue 0 as the point M, the values times their lcm denominator."""
    entries = folded(f, sign)
    scale = lcm(*(v.denominator for _, v in entries))
    return (tuple(m or f.period for m, _ in entries),
            tuple(v.numerator * (scale // v.denominator) for _, v in entries), scale)
