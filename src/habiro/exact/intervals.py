"""Arbitrary-precision real intervals on top of mpmath's iv context.

Every value carries the binary precision it was computed at.  Mixed-precision
arithmetic is sound (endpoints are rounded outward), but operations run at the
larger of the two operand precisions so refinement is monotone.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable

from mpmath import iv
from mpmath.libmp import fnan, fninf, finf, fzero, mpf_ge, mpf_gt, mpf_le, mpf_lt

DEFAULT_PRECISION = 64
PRECISION_CAP = 4096

# The iv context is global mutable state, so every use is serialized.
_iv_lock = threading.RLock()


@contextmanager
def _at_precision(prec: int):
    with _iv_lock:
        old = iv.prec
        iv.prec = prec
        try:
            yield
        finally:
            iv.prec = old


class PrecisionCapError(ArithmeticError):
    """A decision stayed ambiguous after escalating to the precision cap."""

    def __init__(self, message: str, precision: int):
        super().__init__(message)
        self.precision = precision


def _raw_to_fraction(t) -> Fraction:
    """Exact rational value of a finite raw mpf tuple (sign, man, exp, bc)."""
    if t in (finf, fninf, fnan):
        raise OverflowError("endpoint is not finite")
    sign, man, exp, _ = t
    v = Fraction(int(man))
    v = v * Fraction(2) ** exp if exp >= 0 else v / (1 << -exp)
    return -v if sign else v


class IntervalReal:
    """Enclosure of a real number together with its working precision."""

    __slots__ = ("ival", "prec")

    def __init__(self, ival, prec: int):
        self.ival = ival
        self.prec = prec

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        with _at_precision(prec):
            return cls(iv.mpf(n), prec)

    @classmethod
    def from_rational(cls, q: Fraction | int, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        q = Fraction(q)
        with _at_precision(prec):
            return cls(iv.mpf(q.numerator) / iv.mpf(q.denominator), prec)

    @classmethod
    def pi(cls, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        with _at_precision(prec):
            return cls(+iv.pi, prec)

    @classmethod
    def from_endpoints(cls, lo: Fraction | int, hi: Fraction | int, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("endpoints out of order")
        with _at_precision(prec):
            a = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
            b = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
            return cls(iv.mpf([a.a, b.b]), prec)

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, IntervalReal):
            return other
        if isinstance(other, (int, Fraction)):
            return IntervalReal.from_rational(other, self.prec)
        return None

    def _binop(self, other, op) -> "IntervalReal":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        prec = max(self.prec, rhs.prec)
        with _at_precision(prec):
            return IntervalReal(op(self.ival, rhs.ival), prec)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __neg__(self):
        with _at_precision(self.prec):
            return IntervalReal(-self.ival, self.prec)

    def __abs__(self):
        if mpf_ge(self._lo_raw(), fzero):
            return self
        if mpf_le(self._hi_raw(), fzero):
            return -self
        lo = self.lo_fraction()
        hi = self.hi_fraction()
        return IntervalReal.from_endpoints(Fraction(0), max(-lo, hi), self.prec)

    def pow_int(self, k: int) -> "IntervalReal":
        with _at_precision(self.prec):
            return IntervalReal(self.ival ** k, self.prec)

    def _fn(self, name: str) -> "IntervalReal":
        with _at_precision(self.prec):
            return IntervalReal(getattr(iv, name)(self.ival), self.prec)

    def sqrt(self) -> "IntervalReal":
        return self._fn("sqrt")

    def log(self) -> "IntervalReal":
        return self._fn("log")

    def exp(self) -> "IntervalReal":
        return self._fn("exp")

    def sin(self) -> "IntervalReal":
        return self._fn("sin")

    def cos(self) -> "IntervalReal":
        return self._fn("cos")

    # -- inspection --------------------------------------------------------

    def _lo_raw(self):
        return self.ival._mpi_[0]

    def _hi_raw(self):
        return self.ival._mpi_[1]

    def lo_fraction(self) -> Fraction:
        return _raw_to_fraction(self._lo_raw())

    def hi_fraction(self) -> Fraction:
        return _raw_to_fraction(self._hi_raw())

    def width_fraction(self) -> Fraction:
        return self.hi_fraction() - self.lo_fraction()

    def contains_zero(self) -> bool:
        return mpf_le(self._lo_raw(), fzero) and mpf_ge(self._hi_raw(), fzero)

    def is_positive(self) -> bool:
        return mpf_gt(self._lo_raw(), fzero)

    def is_negative(self) -> bool:
        return mpf_lt(self._hi_raw(), fzero)

    def mid_float(self) -> float:
        return float((self.lo_fraction() + self.hi_fraction()) / 2)

    def __repr__(self) -> str:
        return f"IntervalReal([{self.ival.a!s}, {self.ival.b!s}], prec={self.prec})"


def decide_sign(
    fn: Callable[[int], IntervalReal],
    start: int = DEFAULT_PRECISION,
    cap: int = PRECISION_CAP,
    what: str = "quantity",
) -> int:
    """Determine the sign of a provably nonzero quantity by precision doubling.

    fn(prec) must return an enclosure that narrows as prec grows.  Raises
    PrecisionCapError if the sign is still ambiguous at the cap, which is the
    reported outcome rather than a guess.
    """
    prec = start
    while True:
        x = fn(prec)
        if x.is_negative():
            return -1
        if x.is_positive():
            return 1
        if prec >= cap:
            raise PrecisionCapError(f"sign of {what} undecided at {cap} bits", cap)
        prec = min(2 * prec, cap)
