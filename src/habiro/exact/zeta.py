"""Riemann zeta at integer arguments: exact even values, raw libmpi enclosures otherwise."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath.libmp import fone, fzero, mpi_add, mpi_div, mpi_mul, mpi_pow

from habiro.exact.bernoulli import bernoulli_number
from habiro.exact.intervals import DEFAULT_PRECISION, IntervalReal, _lock, int_endpoints


def zeta_even(k: int) -> Fraction:
    """Return r with zeta(k) = r * pi**k for positive even k."""
    if k < 2 or k % 2 != 0:
        raise ValueError("argument must be a positive even integer; use interval evaluation otherwise")
    b = bernoulli_number(k)
    sign = 1 if (k // 2) % 2 == 1 else -1
    r = sign * b * (1 << (k - 1)) / factorial(k)
    return Fraction(r)


# Positivity sweeps ask for the same (s, prec) for every family member; the
# bound keeps a long-running process from holding every enclosure it ever made.
@lru_cache(maxsize=1024)
def zeta_interval(s: int, prec: int = DEFAULT_PRECISION) -> IntervalReal:
    """Enclosure of zeta(s) for an integer s >= 2, memoized per (s, prec).

    Callers share the returned IntervalReal, which no operation mutates.
    """
    if s < 2:
        raise ValueError("argument must be an integer >= 2")
    if s % 2 == 0:
        return IntervalReal.from_rational(zeta_even(s), prec) * IntervalReal.pi(prec).pow_int(s)
    return _zeta_euler_maclaurin(s, prec)


def _zeta_euler_maclaurin(s: int, prec: int) -> IntervalReal:
    """Tail-corrected partial sum with the remainder absorbed into the enclosure.

    For the completely monotone integrand x**(-s) the remainder after J
    correction terms has the sign of, and is no larger than, the first omitted
    term, so hulling that term with 0 yields a rigorous enclosure.
    """
    work = prec + 24
    cutoff = max(8, (35 * work) // 100)
    with _lock:
        while True:
            val = _em_attempt(s, cutoff, work)
            if val is not None:
                return IntervalReal(val, work)
            cutoff *= 2


def _mag_exp(x) -> int:
    """Upper bound on log2 of the magnitude of an interval value."""
    out = -(10**9)
    for sign, man, exp, bc in x:
        if man:
            out = max(out, exp + bc)
    return out


def _em_attempt(s: int, cutoff: int, prec: int):
    """One Euler-Maclaurin evaluation at prec bits; None if the series bottoms out too early.

    The integrand x**(-s) is completely monotone, so the remainder after J
    correction terms is bounded by the first omitted term and shares its sign;
    hulling that term with 0 (multiplication by [0, 1]) closes the enclosure.
    """
    def power(n: int, k: int):
        return mpi_pow(int_endpoints(n, prec), int_endpoints(k, prec), prec)

    partial = (fzero, fzero)
    for n in range(1, cutoff):
        partial = mpi_add(partial, power(n, -s), prec)
    acc = mpi_add(partial, mpi_div(power(cutoff, 1 - s), int_endpoints(s - 1, prec), prec), prec)
    acc = mpi_add(acc, mpi_div(power(cutoff, -s), int_endpoints(2, prec), prec), prec)
    prev_mag = None
    j = 1
    rising = s  # s * (s+1) * ... * (s + 2j - 2), updated incrementally
    while True:
        b = bernoulli_number(2 * j)
        coeff = Fraction(b * rising, factorial(2 * j))
        term = mpi_div(int_endpoints(coeff.numerator, prec), int_endpoints(coeff.denominator, prec), prec)
        term = mpi_mul(term, power(cutoff, -s - 2 * j + 1), prec)
        mag = _mag_exp(term)
        if mag < -prec:
            return mpi_add(acc, mpi_mul(term, (fzero, fone), prec), prec)
        if prev_mag is not None and mag > prev_mag:
            return None
        acc = mpi_add(acc, term, prec)
        prev_mag = mag
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        j += 1
