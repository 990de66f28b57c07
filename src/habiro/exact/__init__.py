"""Exact rational, interval and cyclotomic arithmetic used by every other layer."""

from habiro.exact.bernoulli import bernoulli_number, bernoulli_poly
from habiro.exact.cyclotomic import CyclotomicNumber, cyclotomic_poly, totient
from habiro.exact.intervals import (
    DEFAULT_PRECISION,
    PRECISION_CAP,
    IntervalReal,
    PrecisionCapError,
    decide_sign,
)
from habiro.exact.stirling import stirling_first
from habiro.exact.zeta import zeta_even, zeta_interval

__all__ = [
    "CyclotomicNumber",
    "DEFAULT_PRECISION",
    "IntervalReal",
    "PRECISION_CAP",
    "PrecisionCapError",
    "bernoulli_number",
    "bernoulli_poly",
    "cyclotomic_poly",
    "decide_sign",
    "stirling_first",
    "totient",
    "zeta_even",
    "zeta_interval",
]
