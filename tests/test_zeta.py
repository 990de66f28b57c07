"""Zeta values: exact even closed forms and interval enclosures."""

from fractions import Fraction

import pytest
import sympy

from habiro.exact import zeta_even, zeta_interval


def _decimal_reference(s: int, digits: int = 80) -> Fraction:
    return Fraction(str(sympy.N(sympy.zeta(s), digits)))


def test_even_pinned():
    assert zeta_even(2) == Fraction(1, 6)
    assert zeta_even(4) == Fraction(1, 90)
    assert zeta_even(6) == Fraction(1, 945)


def test_even_against_sympy():
    pi = sympy.pi
    for k in range(2, 40, 2):
        r = zeta_even(k)
        ref = sympy.zeta(k) / pi**k
        assert sympy.Rational(r.numerator, r.denominator) == sympy.nsimplify(ref)


def test_odd_argument_rejected():
    with pytest.raises(ValueError, match="interval"):
        zeta_even(3)
    with pytest.raises(ValueError):
        zeta_even(0)


def test_interval_rejects_small_argument():
    with pytest.raises(ValueError):
        zeta_interval(1)


@pytest.mark.parametrize("s", [3, 5, 7, 9, 21])
def test_interval_encloses_reference_odd(s):
    ref = _decimal_reference(s)
    slack = Fraction(1, 10**70)
    for prec in (64, 128, 256):
        enc = zeta_interval(s, prec)
        assert enc.lo_fraction() - slack <= ref <= enc.hi_fraction() + slack
        assert enc.width_fraction() <= Fraction(2) ** (1 - prec)


@pytest.mark.parametrize("s", [2, 4, 12])
def test_interval_encloses_reference_even(s):
    ref = _decimal_reference(s)
    slack = Fraction(1, 10**70)
    enc = zeta_interval(s, 128)
    assert enc.lo_fraction() - slack <= ref <= enc.hi_fraction() + slack


def test_interval_width_shrinks_with_precision():
    w64 = zeta_interval(3, 64).width_fraction()
    w256 = zeta_interval(3, 256).width_fraction()
    assert w256 < w64


def test_interval_large_odd_argument():
    # Large arguments terminate quickly because the defining series already
    # converges below the target width.
    enc = zeta_interval(301, 128)
    ref_low = Fraction(1) + Fraction(1, 2**301)
    ref_high = ref_low + Fraction(2, 3**301)
    assert enc.lo_fraction() <= ref_low
    assert enc.hi_fraction() >= ref_high
    assert enc.width_fraction() <= Fraction(2) ** (1 - 128)


def test_interval_cache_is_bounded():
    assert zeta_interval.cache_info().maxsize is not None


@pytest.mark.parametrize("s", [2, 3, 12, 21])
@pytest.mark.parametrize("prec", [64, 256])
def test_cached_interval_has_the_uncached_endpoints(s, prec):
    cached = zeta_interval(s, prec)
    assert zeta_interval(s, prec) is cached
    fresh = zeta_interval.__wrapped__(s, prec)
    assert cached.prec == fresh.prec
    assert (cached.lo_fraction(), cached.hi_fraction()) == (fresh.lo_fraction(), fresh.hi_fraction())


@pytest.mark.parametrize("s", [1, 0, -3])
def test_cache_does_not_swallow_small_argument_errors(s):
    for _ in range(2):
        with pytest.raises(ValueError, match=">= 2"):
            zeta_interval(s, 64)
