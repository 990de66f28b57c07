"""Exact rational and interval arithmetic, and an exact zero test for sums of roots of unity."""

from habiro.exact.bernoulli import bernoulli_number, bernoulli_poly
from habiro.exact.cyclotomic import root_sum_is_zero
from habiro.exact.intervals import (
    DEFAULT_PRECISION,
    PRECISION_CAP,
    IntervalReal,
    PrecisionCapError,
    decide_sign,
    signed_enclosure,
)
from habiro.exact.zeta import zeta_even, zeta_interval

__all__ = [
    "DEFAULT_PRECISION",
    "IntervalReal",
    "PRECISION_CAP",
    "PrecisionCapError",
    "bernoulli_number",
    "bernoulli_poly",
    "decide_sign",
    "root_sum_is_zero",
    "signed_enclosure",
    "zeta_even",
    "zeta_interval",
]
