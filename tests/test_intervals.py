"""Interval arithmetic: soundness, sign decisions, and identical endpoints to mpmath's iv context."""

import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath.libmp
from mpmath.libmp import from_int, mpf_pi, mpi_div

from habiro.exact import intervals as intervals_module
from habiro.exact import PRECISION_CAP, IntervalReal, PrecisionCapError, decide_sign, zeta_interval
from interval_ref import IntervalRef, zeta_odd_ref

PI_REF = Fraction("3.14159265358979323846264338327950288419716939937510582097494459230781640628")


def test_from_rational_encloses():
    x = IntervalReal.from_rational(Fraction(1, 3), 64)
    assert x.lo_fraction() < Fraction(1, 3) < x.hi_fraction()
    assert x.width_fraction() < Fraction(1, 2**60)


def test_from_int_is_exact():
    x = IntervalReal.from_int(12345, 64)
    assert x.lo_fraction() == 12345 == x.hi_fraction()


def test_pi_encloses_reference():
    x = IntervalReal.pi(128)
    assert x.lo_fraction() < PI_REF < x.hi_fraction()
    assert x.width_fraction() < Fraction(1, 2**120)


def test_sqrt_squares_back():
    r = IntervalReal.from_int(2, 96).sqrt()
    sq = r * r
    assert sq.lo_fraction() <= 2 <= sq.hi_fraction()


def test_exp_log_roundtrip():
    x = IntervalReal.from_rational(Fraction(7, 3), 96)
    y = x.exp().log()
    assert y.lo_fraction() <= Fraction(7, 3) <= y.hi_fraction()


def test_trig_at_known_points():
    half_pi = IntervalReal.pi(96) / 2
    s = half_pi.sin()
    assert s.lo_fraction() <= 1 <= s.hi_fraction()
    c = half_pi.cos()
    assert c.contains_zero()


def test_abs_of_mixed_interval():
    x = IntervalReal.from_endpoints(Fraction(-2), Fraction(1), 64)
    a = abs(x)
    assert a.lo_fraction() == 0
    assert a.hi_fraction() >= 2


def test_mixed_precision_uses_larger():
    a = IntervalReal.from_rational(Fraction(1, 3), 64)
    b = IntervalReal.from_rational(Fraction(1, 7), 256)
    assert (a + b).prec == 256


def test_scalar_coercion():
    a = IntervalReal.from_rational(Fraction(1, 3), 64)
    b = 1 - a
    assert b.lo_fraction() < Fraction(2, 3) < b.hi_fraction()
    c = a * Fraction(3, 2)
    assert c.lo_fraction() < Fraction(1, 2) < c.hi_fraction()


def test_predicates():
    pos = IntervalReal.from_rational(Fraction(1, 10), 64)
    assert pos.is_positive() and not pos.is_negative() and not pos.contains_zero()
    neg = -pos
    assert neg.is_negative()
    zero = pos - pos
    assert zero.contains_zero()


def test_decide_sign_basic():
    gap = Fraction(1, 3) - Fraction(1, 4)
    assert decide_sign(lambda p: IntervalReal.from_rational(gap, p)) == 1
    assert decide_sign(lambda p: IntervalReal.from_rational(-gap, p)) == -1


def test_decide_sign_narrow_gap_escalates():
    # Difference of order 2**-100 needs more than the starting 64 bits.
    tiny = Fraction(1, 2**100)
    fn = lambda p: IntervalReal.from_rational(1 + tiny, p) - IntervalReal.from_rational(1, p)
    assert decide_sign(fn, start=64, cap=512) == 1


def test_decide_sign_cap_error_on_zero():
    fn = lambda p: IntervalReal.from_int(1, p) - IntervalReal.from_int(1, p)
    with pytest.raises(PrecisionCapError):
        decide_sign(fn, start=64, cap=128)


def test_decide_sign_start_above_the_cap_starts_at_the_cap():
    asked = []

    def enclosure_of(value):
        def fn(p):
            asked.append(p)
            return IntervalReal.from_rational(value, p)
        return fn

    assert decide_sign(enclosure_of(Fraction(1, 3)), start=128, cap=64) == 1
    with pytest.raises(PrecisionCapError):
        decide_sign(enclosure_of(Fraction(0)), start=128, cap=64)
    assert asked == [64, 64]


@pytest.mark.parametrize("start, cap", [(0, 128), (-3, 128), (64, 0), (64, -1)])
def test_decide_sign_refuses_a_start_or_cap_below_one_bit(start, cap):
    # doubling from 0 bits or fewer never reaches the cap
    def fn(p):
        assert p >= 1, f"asked for {p} bits"
        return IntervalReal.from_int(1, p)

    with pytest.raises(ValueError, match="at least 1 bit"):
        decide_sign(fn, start=start, cap=cap)


@pytest.mark.parametrize("prec", [0, -2])
@pytest.mark.parametrize("build", [
    lambda prec: IntervalReal.from_int(3, prec),
    lambda prec: IntervalReal.from_rational(Fraction(1, 3), prec),
    lambda prec: IntervalReal.from_endpoints(Fraction(1, 3), Fraction(1, 2), prec),
    lambda prec: IntervalReal.pi(prec),
    lambda prec: zeta_interval(2, prec),
    lambda prec: zeta_interval(3, prec),
], ids=["from_int", "from_rational", "from_endpoints", "pi", "zeta_even", "zeta_odd"])
def test_constructors_refuse_a_precision_below_one_bit(monkeypatch, build, prec):
    # mpmath's rounding, division and pi can loop forever below 1 bit;
    # stand-ins that fail there make a missing check fail fast instead.
    def refusing(fn, at):  # at: the position of fn's precision argument
        def call(*args):
            assert args[at] >= 1, f"mpmath asked for {args[at]} bits"
            return fn(*args)
        return call

    # The code reads them through intervals.libmp, which is (or, before the
    # first interval operation, resolves every name in) mpmath.libmp.
    for name, fn, at in (("from_int", from_int, 1), ("mpi_div", mpi_div, 2), ("mpf_pi", mpf_pi, 0)):
        monkeypatch.setattr(mpmath.libmp, name, refusing(fn, at))
        assert getattr(intervals_module.libmp, name) is getattr(mpmath.libmp, name)
    with pytest.raises(ValueError, match=f"precision {prec} must be at least 1 bit"):
        build(prec)


fractions_strategy = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=997
)


@settings(max_examples=50, deadline=None)
@given(a=fractions_strategy, b=fractions_strategy)
def test_product_soundness(a, b):
    x = IntervalReal.from_rational(a, 64)
    y = IntervalReal.from_rational(b, 64)
    p = x * y
    assert p.lo_fraction() <= a * b <= p.hi_fraction()


@settings(max_examples=50, deadline=None)
@given(a=fractions_strategy, b=fractions_strategy)
def test_sum_and_difference_soundness(a, b):
    x = IntervalReal.from_rational(a, 64)
    y = IntervalReal.from_rational(b, 64)
    s = x + y
    d = x - y
    assert s.lo_fraction() <= a + b <= s.hi_fraction()
    assert d.lo_fraction() <= a - b <= d.hi_fraction()


def test_repr_shows_both_endpoints_and_precision():
    assert repr(IntervalReal.from_int(3, 64)) == "IntervalReal([3.0, 3.0], prec=64)"


# -- identical endpoints to the iv context -----------------------------------

precisions = st.integers(min_value=2, max_value=1024)
# An int operand is coerced by from_int and the reference's by a division by
# an exact [1, 1]; integers wider than the precision are rounded by both.
scalars = st.one_of(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=-(2**3000), max_value=2**3000),
    st.fractions(min_value=Fraction(-(10**12)), max_value=Fraction(10**12), max_denominator=10**15),
)


@st.composite
def operands(draw):
    """The same value built by one constructor in IntervalReal and in the iv reference."""
    prec = draw(precisions)
    kind = draw(st.sampled_from(["from_int", "from_rational", "pi", "from_endpoints"]))
    if kind == "from_int":
        args = (draw(st.integers(min_value=-(10**40), max_value=10**40)),)
    elif kind == "from_rational":
        args = (draw(scalars),)
    elif kind == "pi":
        args = ()
    else:
        args = tuple(sorted((draw(scalars), draw(scalars))))
    return getattr(IntervalReal, kind)(*args, prec), getattr(IntervalRef, kind)(*args, prec)


def _outcome(compute):
    """Raw endpoints and precision of compute(), or the fact that it has no real value.

    A log or square root of a negative number raises mpmath's ComplexResult (a
    ValueError) on both sides; a power the iv context makes complex leaves the
    reference without real endpoints (AttributeError).
    """
    try:
        x = compute()
        endpoints = x.ival if isinstance(x, IntervalReal) else x.endpoints
        return endpoints, x.prec
    except (ValueError, AttributeError):
        return "no real value"


def _same(ours, ref):
    assert _outcome(ours) == _outcome(ref)


@settings(max_examples=300, deadline=None)
@given(pair=operands())
def test_constructors_match_iv(pair):
    ours, ref = pair
    assert (ours.ival, ours.prec) == (ref.endpoints, ref.prec)


binary = st.sampled_from([
    lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b,
])


@settings(max_examples=300, deadline=None)
@given(x=operands(), y=operands(), op=binary, c=scalars)
def test_operators_match_iv_at_mixed_precisions(x, y, op, c):
    _same(lambda: op(x[0], y[0]), lambda: op(x[1], y[1]))
    _same(lambda: op(x[0], c), lambda: op(x[1], c))
    _same(lambda: op(c, x[0]), lambda: op(c, x[1]))


unary = st.sampled_from([
    lambda a: -a, abs, lambda a: a.sqrt(), lambda a: a.log(), lambda a: a.exp(),
    lambda a: a.sin(), lambda a: a.cos(),
])


@settings(max_examples=300, deadline=None)
@given(x=operands(), fn=unary, k=st.integers(min_value=-40, max_value=40))
def test_functions_match_iv(x, fn, k):
    _same(lambda: fn(x[0]), lambda: fn(x[1]))
    _same(lambda: x[0].pow_int(k), lambda: x[1].pow_int(k))


@pytest.mark.parametrize("s", range(3, 42, 2))
def test_zeta_loop_matches_iv(s):
    for p in (16, 64, 128, 256):
        ours = zeta_interval(s, p)
        ref = zeta_odd_ref(s, p)
        assert (ours.ival, ours.prec) == (ref.endpoints, ref.prec)


def test_threads_get_the_serial_enclosures():
    # mpmath memoizes pi and log 2 at the highest precision asked so far.  The
    # threads ask for rising precisions above the cap, above any the package
    # uses, so the memo is rebuilt while the other threads read it.
    start = 2 * PRECISION_CAP
    arg = Fraction(10**6 + 1, 3)

    def enclosures(offset):
        out = []
        for step in range(4):
            prec = int(start * 1.1**step) + offset
            x = IntervalReal.from_rational(arg, prec)
            out.append((IntervalReal.pi(prec).ival, x.sin().ival, x.log().ival))
        return out

    results = {}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, enclosures(i)))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert all(results[i] == enclosures(i) for i in range(4))
