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


class _Libmp:
    """Stand-in for mpmath.libmp until the first interval operation.

    Importing mpmath.libmp runs all of mpmath's package set-up, which the
    exact-only commands never need.  The first attribute read imports it and
    rebinds this module's libmp to the real module, so later reads are plain
    module-attribute lookups; the import lock makes simultaneous first reads
    safe.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        global libmp
        import mpmath.libmp as module
        libmp = module
        return getattr(module, name)


# Every caller, zeta.py included, reads libmpi names through this module's
# global, never through a copy of it.
libmp = _Libmp()

DEFAULT_PRECISION = 64
PRECISION_CAP = 4096

# mpmath memoizes pi and log 2 in two attributes, written value first and
# precision second, so a thread could read them half-updated while another
# asks for a new precision; every libmpi call is serialized.
_lock = threading.Lock()

T = TypeVar("T")


def int_endpoints(n: int, prec: int):
    """The integer n as a raw endpoint pair, rounded outward to prec bits."""
    return libmp.from_int(n, prec, libmp.round_floor), libmp.from_int(n, prec, libmp.round_ceiling)


class PrecisionCapError(ArithmeticError):
    """A decision stayed ambiguous after escalating to the precision cap."""

    def __init__(self, message: str, precision: int):
        super().__init__(message)
        self.precision = precision


def _raw_to_fraction(t) -> Fraction:
    """Exact rational value of a finite raw mpf tuple (sign, man, exp, bc)."""
    if t in (libmp.finf, libmp.fninf, libmp.fnan):
        raise OverflowError("endpoint is not finite")
    sign, man, exp, _ = t
    v = Fraction(int(man))
    v = v * Fraction(2) ** exp if exp >= 0 else v / (1 << -exp)
    return -v if sign else v


def _check_precision(prec: int) -> None:
    """Raise ValueError for a precision below 1 bit, at which mpmath's rounding and pi may never return."""
    if prec < 1:
        raise ValueError(f"precision {prec} must be at least 1 bit")


def _quotient(q: Fraction, prec: int):
    """Enclosure of q as the quotient of its two integer enclosures."""
    with _lock:
        return libmp.mpi_div(int_endpoints(q.numerator, prec), int_endpoints(q.denominator, prec), prec)


class IntervalReal:
    """Enclosure of a real number together with its working precision."""

    __slots__ = ("ival", "prec")

    def __init__(self, ival, prec: int):
        self.ival = ival
        self.prec = prec

    # -- constructors ------------------------------------------------------

    # The constructors refuse a precision below 1 bit; the operations take
    # theirs from intervals built here.

    @classmethod
    def from_int(cls, n: int, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        _check_precision(prec)
        return cls(int_endpoints(n, prec), prec)

    @classmethod
    def from_rational(cls, q: Fraction | int, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        _check_precision(prec)
        return cls(_quotient(Fraction(q), prec), prec)

    @classmethod
    def pi(cls, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        _check_precision(prec)
        with _lock:
            return cls((libmp.mpf_pi(prec, libmp.round_floor), libmp.mpf_pi(prec, libmp.round_ceiling)),
                       prec)

    @classmethod
    def from_endpoints(cls, lo: Fraction | int, hi: Fraction | int, prec: int = DEFAULT_PRECISION) -> "IntervalReal":
        _check_precision(prec)
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("endpoints out of order")
        return cls((_quotient(lo, prec)[0], _quotient(hi, prec)[1]), prec)

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, IntervalReal):
            return other
        if isinstance(other, int):
            return IntervalReal(int_endpoints(other, self.prec), self.prec)
        if isinstance(other, Fraction):
            return IntervalReal(_quotient(other, self.prec), self.prec)
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
        return self._binop(other, libmp.mpi_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, libmp.mpi_sub)

    def __rsub__(self, other):
        return self._binop(other, libmp.mpi_sub, reflected=True)

    def __mul__(self, other):
        return self._binop(other, libmp.mpi_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, libmp.mpi_div)

    def __rtruediv__(self, other):
        return self._binop(other, libmp.mpi_div, reflected=True)

    def __neg__(self):
        return self._fn(libmp.mpi_neg)

    def __abs__(self):
        return self._fn(libmp.mpi_abs)

    def pow_int(self, k: int) -> "IntervalReal":
        # Like iv's **, the exponent is an interval at the working precision;
        # mpi_pow takes mpi_pow_int exactly when that interval is the integer k.
        with _lock:
            return IntervalReal(libmp.mpi_pow(self.ival, int_endpoints(k, self.prec), self.prec), self.prec)

    def _fn(self, f) -> "IntervalReal":
        with _lock:
            return IntervalReal(f(self.ival, self.prec), self.prec)

    def sqrt(self) -> "IntervalReal":
        return self._fn(libmp.mpi_sqrt)

    def log(self) -> "IntervalReal":
        return self._fn(libmp.mpi_log)

    def exp(self) -> "IntervalReal":
        return self._fn(libmp.mpi_exp)

    def sin(self) -> "IntervalReal":
        return self._fn(libmp.mpi_sin)

    def cos(self) -> "IntervalReal":
        return self._fn(libmp.mpi_cos)

    # -- inspection --------------------------------------------------------

    def lo_fraction(self) -> Fraction:
        return _raw_to_fraction(self.ival[0])

    def hi_fraction(self) -> Fraction:
        return _raw_to_fraction(self.ival[1])

    def width_fraction(self) -> Fraction:
        return self.hi_fraction() - self.lo_fraction()

    def contains_zero(self) -> bool:
        return libmp.mpf_le(self.ival[0], libmp.fzero) and libmp.mpf_ge(self.ival[1], libmp.fzero)

    def is_positive(self) -> bool:
        return libmp.mpf_gt(self.ival[0], libmp.fzero)

    def is_negative(self) -> bool:
        return libmp.mpf_lt(self.ival[1], libmp.fzero)

    def mid_float(self) -> float:
        return float((self.lo_fraction() + self.hi_fraction()) / 2)

    def __repr__(self) -> str:
        return f"IntervalReal({libmp.mpi_to_str(self.ival, libmp.repr_dps(self.prec))}, prec={self.prec})"


def cut_points(z: IntervalReal) -> tuple:
    """z.hi - (1 - 2**-p) and z.lo - (1 + 2**(1-p)), p the enclosure's own precision, both exact."""
    (z_lo, z_hi), prec = z.ival, z.prec
    return (libmp.mpf_sub(z_hi, libmp.from_man_exp((1 << prec) - 1, -prec)),
            libmp.mpf_sub(z_lo, libmp.from_man_exp((1 << (prec - 1)) + 1, 1 - prec)))


def excess_sign(cuts_and_s: tuple) -> int:
    """Sign of the interval (z - S) - 1 IntervalReal builds at z's precision, 0 if it holds 0.

    cuts_and_s pairs cut_points(z) with S's raw endpoints.  With p bits, the
    correctly rounded subtractions give a negative upper end exactly when
    z.hi - S.lo <= 1 - 2**-p, and a positive lower end exactly when
    z.lo - S.hi >= 1 + 2**(1-p), so no interval is built.  The cuts are exact,
    so a decided sign keeps z - S - 1 at least 2**-p from 0 at any S precision.
    """
    (below, above), (s_lo, s_hi) = cuts_and_s
    if libmp.mpf_ge(s_lo, below):
        return -1
    return int(libmp.mpf_le(s_hi, above))


def _enclosure_sign(x: IntervalReal) -> int:
    """-1 or 1 for an enclosure on one side of zero, 0 while it holds zero."""
    return -1 if x.is_negative() else int(x.is_positive())


def _first_decided(
    fn: Callable[[int], T], start: int, cap: int, message: Callable[[], str],
    sign: Callable[[T], int],
) -> tuple[T, int]:
    """First value fn(prec) with a nonzero sign(value), and that sign, doubling prec from start.

    A start above the cap starts at the cap, so fn never sees more than cap
    bits.  Raises PrecisionCapError(message(), cap) if the value at the cap is
    still undecided (sign 0), which is the reported outcome rather than a
    guess; the message is built only then.  A start or cap below 1 bit raises
    ValueError before fn is called, since doubling would never reach the cap.
    """
    if start < 1 or cap < 1:
        raise ValueError(f"precision start {start} and cap {cap} must be at least 1 bit")
    prec = min(start, cap)
    while True:
        x = fn(prec)
        s = sign(x)
        if s:
            return x, s
        if prec >= cap:
            raise PrecisionCapError(message(), cap)
        prec = min(2 * prec, cap)


def signed_enclosure(
    fn: Callable[[int], IntervalReal], start: int, cap: int, message: str
) -> IntervalReal:
    """First enclosure fn(prec) that excludes zero, doubling prec from start.

    fn(prec) must return an enclosure that narrows as prec grows.  Raises
    PrecisionCapError(message, cap) if the enclosure at the cap still holds
    zero.
    """
    return _first_decided(fn, start, cap, lambda: message, _enclosure_sign)[0]


def decide_sign(
    fn: Callable[[int], T],
    start: int = DEFAULT_PRECISION,
    cap: int = PRECISION_CAP,
    what: str | Callable[[], str] = "quantity",
    sign: Callable[[T], int] = _enclosure_sign,
) -> int:
    """Sign of a provably nonzero quantity, doubling prec from start as signed_enclosure does.

    By default fn(prec) is an enclosure; with sign, fn(prec) is any value
    that sign maps to -1 or 1 once decided and to 0 before.  what names the
    quantity in the cap message; a loop passes a callable that names it, so
    the name is formatted only when the cap is reached.
    """
    def message() -> str:
        return f"sign of {what() if callable(what) else what} undecided at {cap} bits"

    return _first_decided(fn, start, cap, message, sign)[1]
