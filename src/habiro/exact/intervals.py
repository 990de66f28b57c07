"""Arbitrary-precision real intervals on raw mpmath libmpi endpoint pairs.

An interval is a (lo, hi) pair of raw mpf tuples together with the binary
precision it was computed at.  Each operation calls the libmpi function that
mpmath's iv context wraps, at the same precision and rounding, without
entering that context.  Mixed-precision arithmetic is sound (endpoints are
rounded outward), but operations run at the larger of the two operand
precisions so refinement is monotone.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Callable, TypeVar

from mpmath.libmp import (
    fnan, fninf, finf, from_int, fzero, mpf_ge, mpf_gt, mpf_le, mpf_lt, mpf_pi,
    mpi_abs, mpi_add, mpi_cos, mpi_div, mpi_exp, mpi_log, mpi_mul, mpi_neg, mpi_pow,
    mpi_sin, mpi_sqrt, mpi_sub, mpi_to_str, repr_dps, round_ceiling, round_floor,
)

DEFAULT_PRECISION = 64
PRECISION_CAP = 4096

# mpmath memoizes pi and log 2 in two attributes, written value first and
# precision second, so a thread could read them half-updated while another
# asks for a new precision; every libmpi call is serialized.
_lock = threading.Lock()

T = TypeVar("T")


def int_endpoints(n: int, prec: int):
    """The integer n as a raw endpoint pair, rounded outward to prec bits."""
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


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


def _quotient(q: Fraction, prec: int):
    """Enclosure of q as the quotient of its two integer enclosures."""
    with _lock:
        return mpi_div(int_endpoints(q.numerator, prec), int_endpoints(q.denominator, prec), prec)


class IntervalReal:
    """Enclosure of a real number together with its working precision."""

    __slots__ = ("ival", "prec")

    def __init__(self, ival, prec: int):
        self.ival = ival
        self.prec = prec

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        return cls(int_endpoints(n, prec), prec)

    @classmethod
    def from_rational(cls, q: Fraction | int, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        return cls(_quotient(Fraction(q), prec), prec)

    @classmethod
    def pi(cls, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        with _lock:
            return cls((mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling)), prec)

    @classmethod
    def from_endpoints(cls, lo: Fraction | int, hi: Fraction | int, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("endpoints out of order")
        return cls((_quotient(lo, prec)[0], _quotient(hi, prec)[1]), prec)

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, IntervalReal):
            return other
        if isinstance(other, int):
            return IntervalReal.from_int(other, self.prec)
        if isinstance(other, Fraction):
            return IntervalReal.from_rational(other, self.prec)
        return None

    def _binop(self, other, op, reflected: bool = False) -> "IntervalReal":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        prec = max(self.prec, rhs.prec)
        a, b = (rhs.ival, self.ival) if reflected else (self.ival, rhs.ival)
        with _lock:
            return IntervalReal(op(a, b, prec), prec)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._binop(other, mpi_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, mpi_sub)

    def __rsub__(self, other):
        return self._binop(other, mpi_sub, reflected=True)

    def __mul__(self, other):
        return self._binop(other, mpi_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, mpi_div)

    def __rtruediv__(self, other):
        return self._binop(other, mpi_div, reflected=True)

    def __neg__(self):
        return self._fn(mpi_neg)

    def __abs__(self):
        return self._fn(mpi_abs)

    def pow_int(self, k: int) -> "IntervalReal":
        # Like iv's **, the exponent is an interval at the working precision;
        # mpi_pow takes mpi_pow_int exactly when that interval is the integer k.
        with _lock:
            return IntervalReal(mpi_pow(self.ival, int_endpoints(k, self.prec), self.prec), self.prec)

    def _fn(self, f) -> "IntervalReal":
        with _lock:
            return IntervalReal(f(self.ival, self.prec), self.prec)

    def sqrt(self) -> "IntervalReal":
        return self._fn(mpi_sqrt)

    def log(self) -> "IntervalReal":
        return self._fn(mpi_log)

    def exp(self) -> "IntervalReal":
        return self._fn(mpi_exp)

    def sin(self) -> "IntervalReal":
        return self._fn(mpi_sin)

    def cos(self) -> "IntervalReal":
        return self._fn(mpi_cos)

    # -- inspection --------------------------------------------------------

    def lo_fraction(self) -> Fraction:
        return _raw_to_fraction(self.ival[0])

    def hi_fraction(self) -> Fraction:
        return _raw_to_fraction(self.ival[1])

    def width_fraction(self) -> Fraction:
        return self.hi_fraction() - self.lo_fraction()

    def contains_zero(self) -> bool:
        return mpf_le(self.ival[0], fzero) and mpf_ge(self.ival[1], fzero)

    def is_positive(self) -> bool:
        return mpf_gt(self.ival[0], fzero)

    def is_negative(self) -> bool:
        return mpf_lt(self.ival[1], fzero)

    def mid_float(self) -> float:
        return float((self.lo_fraction() + self.hi_fraction()) / 2)

    def __repr__(self) -> str:
        return f"IntervalReal({mpi_to_str(self.ival, repr_dps(self.prec))}, prec={self.prec})"


def _enclosure_sign(x: IntervalReal) -> int:
    """-1 or 1 for an enclosure on one side of zero, 0 while it holds zero."""
    return -1 if x.is_negative() else int(x.is_positive())


def _first_decided(
    fn: Callable[[int], T], start: int, cap: int, message: str, sign: Callable[[T], int]
) -> tuple[T, int]:
    """First value fn(prec) with a nonzero sign(value), and that sign, doubling prec from start.

    Raises PrecisionCapError(message, cap) if the value at the cap is still
    undecided (sign 0), which is the reported outcome rather than a guess.
    """
    prec = start
    while True:
        x = fn(prec)
        s = sign(x)
        if s:
            return x, s
        if prec >= cap:
            raise PrecisionCapError(message, cap)
        prec = min(2 * prec, cap)


def signed_enclosure(
    fn: Callable[[int], IntervalReal], start: int, cap: int, message: str
) -> IntervalReal:
    """First enclosure fn(prec) that excludes zero, doubling prec from start.

    fn(prec) must return an enclosure that narrows as prec grows.  Raises
    PrecisionCapError(message, cap) if the enclosure at the cap still holds
    zero.
    """
    return _first_decided(fn, start, cap, message, _enclosure_sign)[0]


def decide_sign(
    fn: Callable[[int], T],
    start: int = DEFAULT_PRECISION,
    cap: int = PRECISION_CAP,
    what: str = "quantity",
    sign: Callable[[T], int] = _enclosure_sign,
) -> int:
    """Sign of a provably nonzero quantity, doubling prec from start as signed_enclosure does.

    By default fn(prec) is an enclosure; with sign, fn(prec) is any value
    that sign maps to -1 or 1 once decided and to 0 before.
    """
    return _first_decided(fn, start, cap, f"sign of {what} undecided at {cap} bits", sign)[1]
