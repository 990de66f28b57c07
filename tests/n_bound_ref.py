"""Reference check counts and tail bounds, in IntervalReal arithmetic throughout.

family_n_bound_ref is the tail-bound loop as it read before its enclosures
were shared: at every n and every precision it builds pi, the angle,
sin(pi*theta) and zeta(2n+2) afresh, and compares with 1 through
IntervalReal's own coercion.  It is the reference the memoized
habiro.signcheck.family_n_bound is compared against.

n_max_ref is the general bound's loop as it read before it took the check
count's walk: bound * (zeta - 1) - 1 as an interval at every n and precision.
It is the reference habiro.signcheck.n_max is compared against.
"""

from fractions import Fraction
from functools import cache

from habiro.exact import (
    DEFAULT_PRECISION,
    PRECISION_CAP,
    IntervalReal,
    decide_sign,
    zeta_interval,
)
from habiro.signcheck import m_bound


def family_n_bound_ref(spec, precision: int = DEFAULT_PRECISION, cap: int = PRECISION_CAP) -> int:
    """Smallest n with zeta(2n + 2) - sin(pi*theta) < 1, theta the member's angle."""
    if spec.kind == "habiro-g":
        return 1
    if spec.kind in ("fishburn", "torus32t"):
        (t,) = spec.args or (1,)
        angle = Fraction(1, 2**t)
    else:
        m, ell = spec.args
        angle = Fraction(ell + 1, 2 * m + 1)

    def excess(n: int):
        def value(prec: int) -> IntervalReal:
            theta = IntervalReal.pi(prec) * angle
            return zeta_interval(2 * n + 2, prec) - theta.sin()

        return value

    n = 0
    while decide_sign(lambda p: excess(n)(p) - 1, min(precision, cap), cap,
                      f"check-count bound at n={n}") >= 0:
        n += 1
    return n


def n_max_ref(f, nu: int, cap: int = PRECISION_CAP) -> int:
    """Smallest N with bound * (zeta(2n + nu + 1) - 1) < 1 for every n >= N."""
    bound = cache(lambda prec: m_bound(f, nu, prec, cap))  # one per precision, not per n

    def excess(n: int):
        s = 2 * n + nu + 1
        return lambda prec: bound(prec) * (zeta_interval(s, prec) - 1) - 1

    n = 0 if nu == 1 else 1  # s = 1 has a divergent zeta value, so n = 0 never qualifies
    while decide_sign(excess(n), DEFAULT_PRECISION, cap, lambda: f"tail bound at n={n}") > 0:
        n += 1
    return n
