"""Closed-form constants in IntervalReal arithmetic: enclosures and their widths.

The Fourier-coefficient tests state their closed forms this way, so these
check that the arithmetic they rely on encloses known values tightly.
"""

from fractions import Fraction

import pytest
import sympy

from habiro.exact import IntervalReal, zeta_interval


def _contains(enc, ref: Fraction, slack: Fraction = Fraction(0)) -> bool:
    return enc.lo_fraction() - slack <= ref <= enc.hi_fraction() + slack


def test_sin_half_pi():
    enc = (IntervalReal.pi(64) / 2).sin()
    assert _contains(enc, Fraction(1))
    assert enc.width_fraction() < Fraction(1, 2**60)


def test_negated_product_at_one():
    enc = -(1 / IntervalReal.from_int(1, 64).sqrt() * (IntervalReal.pi(64) / 2).sin())
    assert _contains(enc, Fraction(-1))


def test_zeta_node_odd():
    ref = Fraction(str(sympy.N(sympy.zeta(3), 80)))
    enc = zeta_interval(3, 128)
    assert _contains(enc, ref, Fraction(1, 10**70))


def test_zeta_node_even_matches_closed_form():
    direct = zeta_interval(2, 96)
    closed = IntervalReal.pi(96).pow_int(2) * Fraction(1, 6)
    assert direct.lo_fraction() <= closed.hi_fraction()
    assert closed.lo_fraction() <= direct.hi_fraction()


def test_zeta_node_rejects_small_argument():
    with pytest.raises(ValueError):
        zeta_interval(1)


def test_exp_and_cos():
    e_ref = Fraction(
        "2.71828182845904523536028747135266249775724709369995957496696762772407663"
    )
    enc = IntervalReal.from_int(1, 96).exp()
    assert _contains(enc, e_ref, Fraction(1, 10**60))
    enc = IntervalReal.pi(96).cos()
    assert _contains(enc, Fraction(-1))


def test_width_contract_and_monotone_refinement():
    ref = sympy.sqrt(3) * sympy.zeta(3) + sympy.pi / 7
    ref_frac = Fraction(str(sympy.N(ref, 220)))
    widths = []
    for precision in (64, 128, 256):
        enc = (IntervalReal.from_int(3, precision).sqrt() * zeta_interval(3, precision)
               + IntervalReal.pi(precision) / 7)
        assert _contains(enc, ref_frac, Fraction(1, 10**200))
        value_scale = max(Fraction(1), abs(ref_frac))
        assert enc.width_fraction() <= Fraction(2) ** (1 - precision) * value_scale
        widths.append(enc.width_fraction())
    assert widths[2] < widths[1] < widths[0]


def test_deep_expression():
    # -(2/sqrt(5)) * sin(3*pi/5) as used by closed-form comparisons.
    scale = 2 / IntervalReal.from_int(5, 128).sqrt()
    enc = -(scale * (IntervalReal.pi(128) * Fraction(3, 5)).sin())
    ref = -2 / sympy.sqrt(5) * sympy.sin(3 * sympy.pi / 5)
    ref_frac = Fraction(str(sympy.N(ref, 80)))
    assert _contains(enc, ref_frac, Fraction(1, 10**70))
