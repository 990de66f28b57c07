"""Reference interval operations through mpmath's iv context.

This is IntervalReal and the Euler-Maclaurin zeta loop as they read when
every operation entered the iv context at its working precision, under one
lock.  The Bernoulli numbers come from bernoulli_ref, so nothing here calls
habiro.exact: this is the reference the raw libmpi endpoint pairs are
compared against, endpoint tuple for endpoint tuple.
"""

import threading
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from mpmath import iv
from mpmath.libmp import fzero, mpf_ge, mpf_le

from bernoulli_ref import bernoulli_number_ref

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


class IntervalRef:
    """An iv interval and its precision; `endpoints` is the raw (lo, hi) pair."""

    __slots__ = ("ival", "prec")

    def __init__(self, ival, prec: int):
        self.ival = ival
        self.prec = prec

    @property
    def endpoints(self):
        return self.ival._mpi_

    @classmethod
    def from_int(cls, n: int, prec: int) -> "IntervalRef":
        with _at_precision(prec):
            return cls(iv.mpf(n), prec)

    @classmethod
    def from_rational(cls, q, prec: int) -> "IntervalRef":
        q = Fraction(q)
        with _at_precision(prec):
            return cls(iv.mpf(q.numerator) / iv.mpf(q.denominator), prec)

    @classmethod
    def pi(cls, prec: int) -> "IntervalRef":
        with _at_precision(prec):
            return cls(+iv.pi, prec)

    @classmethod
    def from_endpoints(cls, lo, hi, prec: int) -> "IntervalRef":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("endpoints out of order")
        with _at_precision(prec):
            a = iv.mpf(lo.numerator) / iv.mpf(lo.denominator)
            b = iv.mpf(hi.numerator) / iv.mpf(hi.denominator)
            return cls(iv.mpf([a.a, b.b]), prec)

    def _coerce(self, other):
        if isinstance(other, IntervalRef):
            return other
        if isinstance(other, (int, Fraction)):
            return IntervalRef.from_rational(other, self.prec)
        return None

    def _binop(self, other, op) -> "IntervalRef":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        prec = max(self.prec, rhs.prec)
        with _at_precision(prec):
            return IntervalRef(op(self.ival, rhs.ival), prec)

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
            return IntervalRef(-self.ival, self.prec)

    def __abs__(self):
        lo, hi = self.ival._mpi_
        if mpf_ge(lo, fzero):
            return self
        if mpf_le(hi, fzero):
            return -self
        return IntervalRef.from_endpoints(Fraction(0), max(-_value(lo), _value(hi)), self.prec)

    def pow_int(self, k: int) -> "IntervalRef":
        with _at_precision(self.prec):
            return IntervalRef(self.ival ** k, self.prec)

    def _fn(self, name: str) -> "IntervalRef":
        with _at_precision(self.prec):
            return IntervalRef(getattr(iv, name)(self.ival), self.prec)

    def sqrt(self):
        return self._fn("sqrt")

    def log(self):
        return self._fn("log")

    def exp(self):
        return self._fn("exp")

    def sin(self):
        return self._fn("sin")

    def cos(self):
        return self._fn("cos")


def _value(t) -> Fraction:
    """Exact rational value of a finite raw mpf tuple."""
    sign, man, exp, _ = t
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def _mag_exp(x) -> int:
    out = -(10**9)
    for sign, man, exp, bc in x._mpi_:
        if man:
            out = max(out, exp + bc)
    return out


def _em_attempt(s: int, cutoff: int, target_exp: int):
    partial = iv.mpf(0)
    for n in range(1, cutoff):
        partial += iv.mpf(n) ** (-s)
    kk = iv.mpf(cutoff)
    acc = partial + kk ** (1 - s) / (s - 1) + kk ** (-s) / 2
    unit = iv.mpf([0, 1])
    prev_mag = None
    j = 1
    rising = s
    while True:
        b = bernoulli_number_ref(2 * j)
        coeff = Fraction(b * rising, factorial(2 * j))
        term = (iv.mpf(coeff.numerator) / iv.mpf(coeff.denominator)) * kk ** (-s - 2 * j + 1)
        mag = _mag_exp(term)
        if mag < target_exp:
            return acc + term * unit
        if prev_mag is not None and mag > prev_mag:
            return None
        acc += term
        prev_mag = mag
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        j += 1


def zeta_odd_ref(s: int, prec: int) -> IntervalRef:
    """Enclosure of zeta(s), s odd >= 3, by the Euler-Maclaurin loop in iv."""
    work = prec + 24
    cutoff = max(8, (35 * work) // 100)
    with _at_precision(work):
        while True:
            val = _em_attempt(s, cutoff, -work)
            if val is not None:
                return IntervalRef(val, work)
            cutoff *= 2
