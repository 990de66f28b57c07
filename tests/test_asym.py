"""Asymptotic profiles, log-domain main terms, and ratio diagnostics."""

import time
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from habiro.asym import (
    _MAIN_TERMS,
    _main_term,
    log_positive_int,
    make_profile,
    profile_for_family,
    ratio_diagnostics,
)
from habiro.cli import TRANSFORM_ROWS
from habiro.exact import DEFAULT_PRECISION, IntervalReal
from habiro.families import FamilySpec, expand_fishburn, identity_for
from habiro.qseries import TruncatedSeries
from habiro.thetaside import b_sequence, c_sequence, xi_from_theta

PREC = 96


def main_term_log(p, n, precision=DEFAULT_PRECISION, which="one-minus-q"):
    """The main term at one n, its n-free factors built for that n alone."""
    return _main_term(p, precision, which)(n)


def overlaps(a: IntervalReal, b: IntervalReal) -> bool:
    return not (a.hi_fraction() < b.lo_fraction() or b.hi_fraction() < a.lo_fraction())


def tight(x: IntervalReal, bits: int = 40) -> bool:
    return x.width_fraction() < Fraction(1, 2**bits)


# -- profiles ----------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("fishburn"),
        FamilySpec("torus32t", t=2),
        FamilySpec("torus2", m=2, ell=1),
        FamilySpec("habiro-g", k=1),
    ],
    ids=lambda s: s.label(),
)
def test_profiles_of_builtin_families(spec):
    p = profile_for_family(spec)
    ident = identity_for(spec)
    assert (p.period, p.b, p.nu) == (ident.f.period, ident.b, ident.nu)
    assert p.k_nu == 1
    assert not p.g.contains_zero()
    # nu=1 weights have negative leading Fourier value, nu=0 positive; the
    # main-term sign comes out +1 either way.
    assert p.g.is_negative() if p.nu == 1 else p.g.is_positive()
    assert p.sign() == 1


def test_fishburn_alpha1_closed_form():
    p = profile_for_family(FamilySpec("fishburn"), PREC)
    pi = IntervalReal.pi(PREC)
    ref = pi * pi * IntervalReal.from_rational(Fraction(1, 144), PREC) \
        + IntervalReal.from_rational(Fraction(3, 8), PREC)
    assert overlaps(p.alpha1, ref)
    assert tight(p.alpha1)


def test_fishburn_fourier_value_is_minus_one():
    p = profile_for_family(FamilySpec("fishburn"), PREC)
    assert p.g.lo_fraction() <= -1 <= p.g.hi_fraction()
    assert tight(p.g)


# -- main term against specialized closed forms ------------------------------


@pytest.mark.parametrize("n", [5, 20, 60])
def test_main_term_matches_smallest_even_weight_closed_form(n):
    # (6/pi^2)^n n! sqrt(n) times 12 sqrt(3) pi^(-5/2) e^(pi^2/12).
    p = profile_for_family(FamilySpec("fishburn"), PREC)
    pi = IntervalReal.pi(PREC)
    half = Fraction(1, 2)
    closed = (IntervalReal.from_int(12, PREC) * IntervalReal.from_int(3, PREC).sqrt()).log() \
        - pi.log() * Fraction(5, 2) \
        + pi * pi * IntervalReal.from_rational(Fraction(1, 12), PREC) \
        + (IntervalReal.from_int(6, PREC) / (pi * pi)).log() * n \
        + log_positive_int(factorial(n), PREC) \
        + IntervalReal.from_int(n, PREC).log() * half
    sign, got = main_term_log(p, n, PREC)
    assert sign == 1
    assert overlaps(got, closed)
    assert tight(got) and tight(closed)


@pytest.mark.parametrize("k,n", [(1, 10), (2, 25), (1, 40)])
def test_main_term_matches_odd_weight_closed_form(k, n):
    # cos(pi/(2(2k+1))) 2^(2n+2) n! ((2k+1)/pi^2)^n pi^(-3/2) n^(-1/2) e^(pi^2/(8(2k+1))).
    p = profile_for_family(FamilySpec("habiro-g", k=k), PREC)
    pi = IntervalReal.pi(PREC)
    w = 2 * k + 1
    closed = (pi / (2 * w)).cos().log() \
        + IntervalReal.from_int(2, PREC).log() * (2 * n + 2) \
        + log_positive_int(factorial(n), PREC) \
        + (IntervalReal.from_int(w, PREC) / (pi * pi)).log() * n \
        - pi.log() * Fraction(3, 2) \
        - IntervalReal.from_int(n, PREC).log() * Fraction(1, 2) \
        + pi * pi * IntervalReal.from_rational(Fraction(1, 8 * w), PREC)
    sign, got = main_term_log(p, n, PREC)
    assert sign == 1
    assert overlaps(got, closed)
    assert tight(got) and tight(closed)


def test_main_term_rejects_n_zero():
    p = profile_for_family(FamilySpec("fishburn"))
    with pytest.raises(ValueError, match="at least 1"):
        main_term_log(p, 0)


# -- transformed main terms --------------------------------------------------


@pytest.mark.parametrize(
    "spec", [FamilySpec("fishburn"), FamilySpec("habiro-g", k=2)], ids=lambda s: s.label()
)
def test_transform_ratios_against_main(spec):
    p = profile_for_family(spec, PREC)
    n = 25
    pi = IntervalReal.pi(PREC)
    x = pi * pi * IntervalReal.from_rational(
        Fraction(p.b * p.k_nu**2, 2 * p.period**2), PREC
    )
    _, lm = main_term_log(p, n, PREC)
    sg, lg = main_term_log(p, n, PREC, "inv-one-plus-q")
    sh, lh = main_term_log(p, n, PREC, "ratio")
    assert sg == sh == p.sign()
    assert overlaps(lg - lm, -(x + x))
    assert overlaps(lh - lm, IntervalReal.from_int(2, PREC).log() * n - x)


def test_transform_rejects_unknown_kind():
    p = profile_for_family(FamilySpec("fishburn"))
    with pytest.raises(ValueError, match="'one-minus-q', 'inv-one-plus-q' or 'ratio'"):
        main_term_log(p, 5, which="xi")


# -- ratio diagnostics -------------------------------------------------------


def _main_term_log_ref(p, n, precision, which):
    """The main term with every factor rebuilt at n, each added in the package's order."""
    slope, x_weight = _MAIN_TERMS[which]
    pi = IntervalReal.pi(precision)
    M = IntervalReal.from_int(p.period, precision)
    total = (M / (pi * (2 * p.k_nu))).log() * (2 * n + p.nu + 1)
    total = total + abs(p.g).log()
    total = total + IntervalReal.from_int(2, precision).log() * (slope * n + p.nu)
    total = total + log_positive_int(factorial(n), precision)
    total = total + IntervalReal.from_int(n, precision).log() * Fraction(2 * p.nu - 1, 2)
    if x_weight:
        x = pi * pi * IntervalReal.from_rational(
            Fraction(p.b * p.k_nu**2, 2 * p.period**2), precision
        )
        total = total + x * x_weight
    total = total - IntervalReal.from_int(p.b, precision).log() * n
    total = total - (pi * M).log() * Fraction(1, 2)
    return p.sign(), total


@pytest.mark.parametrize(
    "spec", [FamilySpec("fishburn"), FamilySpec("torus2", m=5, ell=2), FamilySpec("habiro-g", k=4)],
    ids=lambda s: s.label(),
)
@pytest.mark.parametrize("which", list(TRANSFORM_ROWS))
def test_ratio_samples_match_the_main_term_rebuilt_at_each_n(spec, which):
    # The factors that do not depend on n are built once per call; every
    # sample must still have the endpoints of the main term built afresh at n.
    ident = identity_for(spec)
    row = TRANSFORM_ROWS[which](xi_from_theta(c_sequence(ident, 40), 40, ident.a, ident.b))
    p = profile_for_family(spec)
    ns = [1, 2, 7, 20, 33, 40]
    samples = ratio_diagnostics(row, p, ns, which=which)
    assert [s.n for s in samples] == ns
    for sample in samples:
        sign, log_main = _main_term_log_ref(p, sample.n, DEFAULT_PRECISION, which)
        assert main_term_log(p, sample.n, which=which)[1].ival == log_main.ival
        c = row[sample.n]
        assert (sample.ratio is None) == (c == 0)
        if c:
            want = (log_positive_int(abs(c)) - log_main).exp()
            if (1 if c > 0 else -1) * sign < 0:
                want = -want
            assert (sample.ratio.ival, sample.ratio.prec) == (want.ival, want.prec)


def test_fishburn_ratios_converge_and_correction_helps():
    p = profile_for_family(FamilySpec("fishburn"))
    xi = expand_fishburn(128)
    rows = ratio_diagnostics(xi, p, [32, 64, 100, 128])
    mids = {r.n: r.ratio.mid_float() for r in rows}
    assert all(r.ratio.is_positive() for r in rows)
    assert abs(mids[64] - 1) < abs(mids[32] - 1)
    assert abs(mids[128] - 1) < abs(mids[64] - 1)
    corrected = ratio_diagnostics(xi, p, [100], correction=True)[0].ratio.mid_float()
    assert abs(mids[100] - 1) > 3 * abs(corrected - 1)


def test_theta_route_ratio_converges_for_odd_weight():
    spec = FamilySpec("habiro-g", k=1)
    ident = identity_for(spec)
    xi = xi_from_theta(b_sequence(ident, c_sequence(ident, 64)), 64)
    rows = ratio_diagnostics(xi, profile_for_family(spec), [32, 64])
    assert abs(rows[1].ratio.mid_float() - 1) < abs(rows[0].ratio.mid_float() - 1)


def test_zero_coefficient_is_reported_per_sample():
    p = profile_for_family(FamilySpec("fishburn"))
    series = TruncatedSeries([1, 2, 0, 4])
    rows = ratio_diagnostics(series, p, [2, 3])
    assert rows[0].ratio is None and rows[1].ratio is not None


def test_negative_coefficient_flips_ratio_sign():
    p = profile_for_family(FamilySpec("fishburn"))
    series = TruncatedSeries([1, 1, 2, -5])
    lone = ratio_diagnostics(series, p, [3])[0]
    assert lone.ratio.is_negative()


def test_diagnostics_demand_covered_window():
    p = profile_for_family(FamilySpec("fishburn"))
    with pytest.raises(ValueError, match="beyond truncation"):
        ratio_diagnostics(expand_fishburn(10), p, [11])


def test_diagnostics_reject_unknown_term():
    p = profile_for_family(FamilySpec("fishburn"))
    with pytest.raises(ValueError, match="'one-minus-q', 'inv-one-plus-q' or 'ratio'"):
        ratio_diagnostics(expand_fishburn(5), p, [3], which="g")


# -- big-integer logarithms --------------------------------------------------


def test_log_positive_int_small_and_huge():
    log2 = IntervalReal.from_int(2, PREC).log()
    assert overlaps(log_positive_int(8, PREC), log2 * 3)
    huge = log_positive_int(10**500, PREC)
    assert overlaps(huge, IntervalReal.from_int(10, PREC).log() * 500)
    assert tight(huge, 30)


def test_log_positive_int_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        log_positive_int(0)


def test_profile_from_identity_directly():
    ident = identity_for(FamilySpec("torus32t", t=3))
    p = make_profile(ident)
    assert p.period == 48 and p.k_nu == 1 and p.sign() == 1


def test_deep_torus_profile_stays_small():
    # torus32t(t) has period 3*2**(t+1); the exact zero test behind k_nu must
    # not grow with that period.
    signs = {(p.k_nu, p.g.is_negative(), p.sign())
             for p in map(profile_for_family, (FamilySpec("torus32t", t=t) for t in range(2, 13)))}
    assert signs == {(1, True, 1)}
    tracemalloc.start()
    try:
        start = time.perf_counter()
        p = profile_for_family(FamilySpec("torus32t", t=64))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (p.k_nu, p.g.is_negative(), p.sign()) == (1, True, 1)
    assert elapsed < 1.0
    assert peak < 2**20
