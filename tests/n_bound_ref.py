"""Reference check count for the built-in families, without any reuse.

This is the tail-bound loop as it read before its enclosures were shared: at
every n and every precision it builds pi, the angle, sin(pi*theta) and
zeta(2n+2) afresh, and compares with 1 through IntervalReal's own coercion.  It is the reference the memoized
habiro.signcheck.family_n_bound is compared against.
"""

from fractions import Fraction

from habiro.exact import (
    DEFAULT_PRECISION,
    PRECISION_CAP,
    IntervalReal,
    decide_sign,
    zeta_interval,
)


def family_n_bound_ref(spec, precision: int = DEFAULT_PRECISION, cap: int = PRECISION_CAP) -> int:
    """Smallest n with zeta(2n + 2) - sin(pi*theta) < 1, theta the member's angle."""
    if spec.kind == "habiro-g":
        return 1
    if spec.kind in ("fishburn", "torus32t"):
        t = 1 if spec.kind == "fishburn" else spec.t
        angle = Fraction(1, 2**t)
    else:
        angle = Fraction(spec.ell + 1, 2 * spec.m + 1)

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
