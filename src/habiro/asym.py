"""Log-domain evaluation of leading-order growth for the 1-q coefficients.

The n-th coefficient of a family grows like n! times an exponential in n; all
evaluation therefore happens on logarithms, with interval enclosures, and
exact big integers enter through their bit length and top limb.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from habiro.exact import DEFAULT_PRECISION, PRECISION_CAP, IntervalReal, signed_enclosure
from habiro.families import FamilySpec, identity_for
from habiro.qseries import TruncatedSeries
from habiro.thetaside import StrangeIdentity, find_k_nu, g_value


def log_positive_int(x: int, precision: int = DEFAULT_PRECISION) -> IntervalReal:
    """Enclosure of log(x) for a positive integer of any size."""
    if x <= 0:
        raise ValueError("logarithm needs a positive integer")
    shift = x.bit_length() - (precision + 16)
    if shift <= 0:
        return IntervalReal.from_int(x, precision).log()
    top = x >> shift
    window = IntervalReal.from_endpoints(top, top + 1, precision).log()
    return window + IntervalReal.from_int(2, precision).log() * shift


class AsymptoticProfile(NamedTuple("AsymptoticProfile", [
        ("period", int), ("b", int), ("nu", int), ("k_nu", int),
        ("g", IntervalReal), ("alpha1", IntervalReal)])):
    """Identity data with the Fourier coefficient and first correction enclosed."""

    __slots__ = ()

    def __new__(cls, period: int, b: int, nu: int, k_nu: int, g: IntervalReal,
                alpha1: IntervalReal):
        if k_nu < 1:
            raise ValueError("k_nu must be at least 1")
        if g.contains_zero():
            raise ValueError("Fourier coefficient enclosure must exclude zero")
        return tuple.__new__(cls, (period, b, nu, k_nu, g, alpha1))

    def sign(self) -> int:
        """Sign of the main term: the sign of (-1)**nu times the Fourier value."""
        positive = self.g.is_positive()
        return (1 if positive else -1) * (-1 if self.nu % 2 else 1)


def _alpha1(ident: StrangeIdentity, k: int, precision: int) -> IntervalReal:
    pi = IntervalReal.pi(precision)
    quad = pi * pi * IntervalReal.from_rational(
        Fraction(ident.a * k * k, ident.f.period**2), precision
    )
    shift = Fraction(2 * ident.nu + 1, 8)
    if ident.nu % 2 == 0:
        shift = -shift
    return quad + IntervalReal.from_rational(shift, precision)


def make_profile(
    ident: StrangeIdentity,
    precision: int = DEFAULT_PRECISION,
    cap: int = PRECISION_CAP,
) -> AsymptoticProfile:
    """Build the asymptotic profile of an identity, refining until G is signed."""
    k = find_k_nu(ident.f, ident.nu)
    numeric = signed_enclosure(lambda p: g_value(ident.f, ident.nu, k, p), precision, cap,
                               "Fourier coefficient enclosure kept straddling zero")
    return AsymptoticProfile(
        ident.f.period, ident.b, ident.nu, k, numeric, _alpha1(ident, k, precision)
    )


def profile_for_family(
    spec: FamilySpec, precision: int = DEFAULT_PRECISION, cap: int = PRECISION_CAP
) -> AsymptoticProfile:
    return make_profile(identity_for(spec), precision, cap)


# transform -> (slope in n of the power of 2, weight of the exponential factor x),
# keyed by the CLI's --transform names.  The one-over-one-plus-q row g inverts
# the factor of the one-minus-q row xi; the two-q-over-one-plus-q row h carries
# 2**(3n+nu) and no such factor.
_MAIN_TERMS = {"one-minus-q": (2, 1), "inv-one-plus-q": (2, -1), "ratio": (3, 0)}


def _main_term(p: AsymptoticProfile, precision: int, which: str):
    """n -> sign and log magnitude of the leading asymptotic term of transform `which`'s row at n.

    The n-free factors are built once, and each n adds them in one fixed order.
    """
    if which not in _MAIN_TERMS:
        raise ValueError("which must be 'one-minus-q', 'inv-one-plus-q' or 'ratio'")
    slope, x_weight = _MAIN_TERMS[which]
    pi = IntervalReal.pi(precision)
    M = IntervalReal.from_int(p.period, precision)
    log_scale = (M / (pi * (2 * p.k_nu))).log()
    log_g = abs(p.g).log()
    log_two = IntervalReal.from_int(2, precision).log()
    n_power = IntervalReal.from_rational(Fraction(2 * p.nu - 1, 2), precision)
    if x_weight:
        x = pi * pi * IntervalReal.from_rational(
            Fraction(p.b * p.k_nu**2, 2 * p.period**2), precision
        )
        x_term = x * x_weight
    log_b = IntervalReal.from_int(p.b, precision).log()
    half_log_pi_m = (pi * M).log() * Fraction(1, 2)
    sign = p.sign()

    def at(n: int) -> tuple[int, IntervalReal]:
        if n < 1:
            raise ValueError("n must be at least 1")
        total = log_scale * (2 * n + p.nu + 1)
        total = total + log_g
        total = total + log_two * (slope * n + p.nu)
        total = total + log_positive_int(factorial(n), precision)
        total = total + IntervalReal.from_int(n, precision).log() * n_power
        if x_weight:
            total = total + x_term
        total = total - log_b * n
        total = total - half_log_pi_m
        return sign, total

    return at


class RatioSample(NamedTuple):
    """One sampled exact-to-asymptotic ratio; ratio is None on a zero coefficient."""

    n: int
    ratio: IntervalReal | None


def ratio_diagnostics(
    exact: TruncatedSeries,
    p: AsymptoticProfile,
    ns: list[int],
    correction: bool = False,
    which: str = "one-minus-q",
) -> list[RatioSample]:
    """Ratios of exact coefficients to the asymptotic main term at sampled n.

    With correction enabled the main term is multiplied by (1 - alpha1/n),
    removing the first-order error term.  Every n must be at least 1, zero
    coefficients included, and the coefficients are integers.
    """
    main_term = _main_term(p, DEFAULT_PRECISION, which)
    out = []
    for n in ns:
        sign, log_main = main_term(n)
        if n >= len(exact):
            raise ValueError(f"coefficient {n} lies beyond truncation order {len(exact) - 1}")
        c = exact[n]
        if c == 0:
            out.append(RatioSample(n, None))
            continue
        ratio = (log_positive_int(abs(c)) - log_main).exp()
        if correction:
            n_ival = IntervalReal.from_int(n, DEFAULT_PRECISION)
            factor = IntervalReal.from_int(1, DEFAULT_PRECISION) - p.alpha1 / n_ival
            if factor.contains_zero():
                raise ValueError(f"correction factor straddles zero at n={n}")
            ratio = ratio / factor
        if (1 if c > 0 else -1) * sign < 0:
            ratio = -ratio
        out.append(RatioSample(n, ratio))
    return out
