"""Tail-bound constants, check counts, sign tests, and positivity verdicts."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import habiro.exact.zeta as zeta_module
import habiro.signcheck as sc
import habiro.thetaside as thetaside
from habiro.exact import IntervalReal, PrecisionCapError, decide_sign, zeta_even, zeta_interval
from habiro.exact.intervals import cut_points, excess_sign
from habiro.families import FAMILIES, FamilySpec, expand_family, identity_for
from habiro.signcheck import (
    FamilyCertificate,
    PositivityVerdict,
    family_n_bound,
    infinite_family_check,
    m_bound,
    n_max,
    verdicts_for_identities,
    verify_positivity,
)
from habiro.thetaside import (
    ANCHOR_E0,
    PeriodicFunction,
    StrangeIdentity,
    bernoulli_sum,
    c_sequence,
    g_value,
    make_chi_k,
    make_chi_m_ell,
    make_chi_t,
)
from tests.bernoulli_ref import bernoulli_at
from tests.n_bound_ref import family_n_bound_ref, n_max_ref
from tests.test_families import TABLES
from tests.test_thetaside import periodic

PREC = 96


def overlaps(a: IntervalReal, b: IntervalReal) -> bool:
    return not (a.hi_fraction() < b.lo_fraction() or b.hi_fraction() < a.lo_fraction())


def tight(x: IntervalReal, bits: int = 40) -> bool:
    return x.width_fraction() < Fraction(1, 2**bits)


# -- dominating constant -----------------------------------------------------


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_m_bound_doubled_torus_closed_form(t):
    # 4 / (sqrt(3) sin(pi/2**t))
    pi = IntervalReal.pi(PREC)
    want = IntervalReal.from_int(4, PREC) / (
        IntervalReal.from_int(3, PREC).sqrt() * (pi * Fraction(1, 2**t)).sin()
    )
    got = m_bound(make_chi_t(t), 1, PREC)
    assert overlaps(got, want)
    assert tight(got)


@pytest.mark.parametrize("m,ell", [(1, 0), (2, 0), (2, 1), (5, 2)])
def test_m_bound_nested_torus_closed_form(m, ell):
    # 2 / sin(pi (ell+1) / (2m+1))
    pi = IntervalReal.pi(PREC)
    want = IntervalReal.from_int(2, PREC) / (pi * Fraction(ell + 1, 2 * m + 1)).sin()
    got = m_bound(make_chi_m_ell(m, ell), 1, PREC)
    assert overlaps(got, want)
    assert tight(got)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_m_bound_odd_weight_closed_form(k):
    # 1 / cos(pi / (2(2k+1)))
    pi = IntervalReal.pi(PREC)
    want = IntervalReal.from_int(1, PREC) / (pi * Fraction(1, 2 * (2 * k + 1))).cos()
    got = m_bound(make_chi_k(k), 0, PREC)
    assert overlaps(got, want)
    assert tight(got)


def test_m_bound_never_below_one():
    for f, nu in [(make_chi_t(5), 1), (make_chi_m_ell(4, 2), 1), (make_chi_k(4), 0)]:
        assert m_bound(f, nu).lo_fraction() > Fraction(99, 100)


def test_m_bound_cap_raises_with_the_cap_precision():
    with pytest.raises(PrecisionCapError, match="kept straddling zero") as exc:
        m_bound(make_chi_t(3), 1, cap=4)
    assert exc.value.precision == 4


# -- check-count bounds ------------------------------------------------------


def test_n_max_smallest_even_weight():
    f = make_chi_t(1)
    assert n_max(f, 1) == 1
    # defining property: the tail bound holds at N and fails below it
    bound = m_bound(f, 1, PREC)
    z2 = IntervalReal.pi(PREC).pow_int(2) * Fraction(1, 6)
    z4 = IntervalReal.pi(PREC).pow_int(4) * Fraction(1, 90)
    assert (bound * (z2 - 1)).lo_fraction() >= 1
    assert (bound * (z4 - 1)).hi_fraction() < 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_n_max_odd_weight_is_one(k):
    # the s = 1 zeta value diverges, so n = 0 can never qualify
    assert n_max(make_chi_k(k), 0) == 1


def test_n_max_zero_for_tame_weight():
    assert n_max(periodic((1, -1)), 1) == 0


def test_n_max_builds_the_bound_once_per_precision(monkeypatch):
    calls, precs = [], set()
    real_find, real_bound = sc.find_k_nu, sc.m_bound

    def counting_find(*args):
        calls.append(args)
        return real_find(*args)

    def noting_bound(f, nu, precision, cap):
        precs.add(precision)
        return real_bound(f, nu, precision, cap)

    monkeypatch.setattr(sc, "find_k_nu", counting_find)
    monkeypatch.setattr(sc, "m_bound", noting_bound)
    assert n_max(make_chi_t(50), 1) == 24
    assert len(calls) == len(precs)


def _n_max_outcome(fn, f, nu):
    try:
        return fn(f, nu)
    except (ValueError, PrecisionCapError) as err:
        return type(err), str(err)


def test_n_max_matches_the_interval_reference_on_the_gate_members():
    # criterion 5's members, whose identities the gate bounds with n_max
    specs = [FamilySpec("torus32t", t=t) for t in range(1, 51)]
    specs += [FamilySpec("torus2", m=m, ell=ell) for m in range(1, 21) for ell in range(m)]
    specs += [FamilySpec("habiro-g", k=k) for k in range(1, 51)]
    assert len(specs) == 310
    for spec in specs:
        ident = identity_for(spec)
        assert n_max(ident.f, ident.nu) == n_max_ref(ident.f, ident.nu), spec


@st.composite
def zero_mean_weights(draw):
    """A zero-mean weight and its nu: even with nu = 1, or odd with nu = 0."""
    period = draw(st.integers(2, 24))
    value = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    values = dict.fromkeys(range(period), Fraction(0))
    nu = draw(st.sampled_from([0, 1]))
    for r in range(1, (period + 1) // 2):  # r and its mirror M - r
        v = draw(value)
        values[r], values[period - r] = v, (v if nu else -v)
    if nu:  # residues 0 and M/2 are their own mirrors; 0 takes up the mean
        if period % 2 == 0:
            values[period // 2] = draw(value)
        values[0] = -sum(values.values())
    return periodic([values[r] for r in range(period)]), nu


@settings(max_examples=100, deadline=None)
@given(weight=zero_mean_weights())
def test_n_max_matches_the_interval_reference(weight):
    f, nu = weight
    assert f.mean_is_zero() and (f.is_even() if nu else f.is_odd())
    assert _n_max_outcome(n_max, f, nu) == _n_max_outcome(n_max_ref, f, nu)


def test_family_n_bound_matches_reference_tables():
    table = TABLES["n_bound_torus32t"]
    lo, hi = table["t_range"]
    for t, want in zip(range(lo, hi + 1), table["values"]):
        assert family_n_bound(FamilySpec("torus32t", t=t)) == want
    for m_key, row in TABLES["n_bound_torus2"].items():
        m = int(m_key)
        for ell, want in enumerate(row):
            assert family_n_bound(FamilySpec("torus2", m=m, ell=ell)) == want


def test_family_n_bound_fixed_cases():
    assert family_n_bound(FamilySpec("fishburn")) == 0
    for k in (1, 7, 50):
        assert family_n_bound(FamilySpec("habiro-g", k=k)) == 1


# A few members of every FAMILIES row, as the row's parameter tuples.
ROW_MEMBERS = [("fishburn", ()), ("torus32t", (1,)), ("torus32t", (2,)), ("torus32t", (7,)),
               ("torus2", (1, 0)), ("torus2", (3, 1)), ("torus2", (6, 5)),
               ("habiro-g", (1,)), ("habiro-g", (4,))]
# c**2 in |G(1)| sqrt(M) / 2 = c sin(pi*theta), criterion 7's closed forms
LEADING_C_SQUARED = {"fishburn": 3, "torus32t": 3, "torus2": 4}


def test_row_members_cover_every_family():
    assert {kind for kind, _ in ROW_MEMBERS} == set(FAMILIES)


@pytest.mark.parametrize("kind,args", ROW_MEMBERS)
def test_family_angle_is_the_leading_fourier_coefficient(kind, args):
    row = FAMILIES[kind]
    spec = FamilySpec(kind, **dict(zip(row.params, args)))
    theta = row.angle(*args)
    if kind == "habiro-g":
        assert theta is None
        assert family_n_bound(spec) == 1
        return
    f = identity_for(spec).f
    got = abs(g_value(f, 1, 1, PREC)) * IntervalReal.from_int(f.period, PREC).sqrt() / 2
    c = IntervalReal.from_int(LEADING_C_SQUARED[kind], PREC).sqrt()
    want = c * (IntervalReal.pi(PREC) * theta).sin()
    assert overlaps(got, want)
    assert tight(got) and tight(want)


def _n_bound_outcome(fn, spec, cap):
    try:
        return fn(spec, cap=cap)
    except PrecisionCapError as err:
        return str(err), err.precision


def _capped_outcomes_in_both_orders(specs, caps):
    """Compare every outcome with the reference; return how many end at the cap.

    The caps run upward and then downward, each from an empty check-count
    memo, so members that share theta read the memo's count or walk again to
    the same cap failure, whichever cap ran before.
    """
    capped = 0
    for ordered in (caps, caps[::-1]):
        sc._check_count.cache_clear()
        for cap in ordered:
            for spec in specs:
                want = _n_bound_outcome(family_n_bound_ref, spec, cap)
                assert _n_bound_outcome(family_n_bound, spec, cap) == want, (spec, cap)
                capped += isinstance(want, tuple)
    return capped


def test_family_n_bound_matches_unshared_reference_at_every_cap():
    # A step the exact bounds decide has the sign the reference's ladder
    # reaches, the walk's sin enclosures are the intervals the reference builds
    # afresh, and the cut points decide as its difference with 1 does, so every
    # check count and every cap failure is the same.
    specs = [FamilySpec("fishburn"),
             *(FamilySpec("torus32t", t=t) for t in range(1, 41)),
             *(FamilySpec("torus2", m=m, ell=ell) for m in range(1, 13) for ell in range(m))]
    # the low caps do reach the PrecisionCapError path
    assert _capped_outcomes_in_both_orders(specs, (4, 8, 16, 32, 64, 128, 4096)) > 0
    # verify sweeps reach these members, whose ladders escalate past 64 bits
    specs = [FamilySpec("torus32t", t=t) for t in (62, 64, 65, 100, 126, 127, 150)]
    assert _capped_outcomes_in_both_orders(specs, (64, 96, 128, 256, 4096)) == 2 * 14


def test_cut_points_classify_as_the_interval_difference():
    # (zeta - S) - 1 built with IntervalReal, against the two exact cut points,
    # at precisions low enough for the rounding of each subtraction to matter.
    angles = {Fraction(ell + 1, 2 * m + 1) for m in range(1, 9) for ell in range(m)}
    angles |= {Fraction(1, 2**t) for t in range(1, 21)}
    seen = Counter()
    for prec in (4, 5, 7, 8, 16, 32, 53, 64, 100):
        for angle in sorted(angles):
            sin = (IntervalReal.pi(prec) * angle).sin()
            for n in range(31):
                zeta = zeta_interval(2 * n + 2, prec)
                diff = zeta - sin - IntervalReal.from_int(1, prec)
                want = -1 if diff.is_negative() else int(diff.is_positive())
                assert excess_sign((cut_points(zeta), sin.ival)) == want, (prec, angle, n)
                seen[want] += 1
    assert set(seen) == {-1, 0, 1}
    # Point enclosures with zeta - S = 1 - k * 2**-prec land on and next to
    # both cut points, where an off-by-one cut or a strict comparison errs.
    for prec in (4, 8, 53):
        for j in (1, 2, 3, 4):
            z = 1 + Fraction(j, 2 ** (prec - 1))
            zeta = IntervalReal.from_rational(z, prec)
            for k in range(-4, 5):
                s = IntervalReal.from_rational(z - 1 + Fraction(k, 2**prec), prec)
                diff = zeta - s - IntervalReal.from_int(1, prec)
                want = -1 if diff.is_negative() else int(diff.is_positive())
                assert want == (-1 if k >= 1 else int(k <= -2)), (prec, j, k)
                assert excess_sign((cut_points(zeta), s.ival)) == want, (prec, j, k)
    # n_max's S = 1/bound may carry more bits than zeta.  With S at twice
    # zeta's precision, a decided sign must still be that of the exact
    # endpoint differences, by the margin the cut points promise.
    seen.clear()
    for prec in (4, 8, 53):
        for j in (1, 2, 3, 4):
            zeta = IntervalReal.from_rational(1 + Fraction(j, 2 ** (prec - 1)), prec)
            z_lo, z_hi = zeta.lo_fraction(), zeta.hi_fraction()
            for k in range(-6, 7):
                for i in (-2, -1, 0, 1, 2):
                    target = z_lo - 1 + Fraction(k, 2 ** (prec + 1)) + Fraction(i, 4**prec)
                    s = IntervalReal.from_rational(target, 2 * prec)
                    got = excess_sign((cut_points(zeta), s.ival))
                    if got < 0:
                        assert z_hi - s.lo_fraction() - 1 <= -Fraction(1, 2**prec), (prec, j, k, i)
                    elif got > 0:
                        assert z_lo - s.hi_fraction() - 1 >= Fraction(2, 2**prec), (prec, j, k, i)
                    seen[got] += 1
    assert set(seen) == {-1, 0, 1}


# theta = 9149130877/41006313065 puts sin(pi*theta) within 2**-70 of
# zeta(2) - 1, far closer than the exact bounds resolve, so the check count's
# first step runs the ladder, which escalates from 64 to 128 bits.
# NEAR_TIE_TWIN has the same reduced angle.
NEAR_TIE = FamilySpec("torus2", m=20503156532, ell=9149130876)
NEAR_TIE_TWIN = FamilySpec("torus2", m=61509469597, ell=27447392630)


def _interval_traffic(monkeypatch) -> tuple[list, list]:
    """The precisions of the sines and the (s, prec) of the zeta enclosures the walks build."""
    real_sin, real_zeta = IntervalReal.sin, sc.zeta_interval
    sines, zetas = [], []

    def counting_sin(self):
        sines.append(self.prec)
        return real_sin(self)

    def counting_zeta(s, prec):
        zetas.append((s, prec))
        return real_zeta(s, prec)

    monkeypatch.setattr(IntervalReal, "sin", counting_sin)
    monkeypatch.setattr(sc, "zeta_interval", counting_zeta)
    sc._check_count.cache_clear()
    return sines, zetas


def test_family_n_bound_builds_sin_once_per_precision(monkeypatch):
    want = family_n_bound_ref(NEAR_TIE)
    sines, zetas = _interval_traffic(monkeypatch)
    assert family_n_bound(NEAR_TIE) == want
    assert sorted(sines) == sorted(p for _, p in zetas) == [64, 128]
    assert {s for s, _ in zetas} == {2}  # only the tied step runs the ladder
    # The count is memoized per (theta, cap), so a member bounded again, or
    # another member with the same reduced theta, builds no sin at all.
    sines.clear()
    assert family_n_bound(NEAR_TIE) == family_n_bound(NEAR_TIE_TWIN) == want
    assert sines == []


def test_check_count_requests_every_zeta_enclosure(monkeypatch):
    # A cold walk asks zeta_interval once per rung of each step the exact
    # bounds leave open, and a warm one never.  Under a cap below the
    # bounds' 32-bit floor every step is open: torus2(1, 0) has theta = 1/3
    # and count 0, decided at the cap's one rung.
    _, zetas = _interval_traffic(monkeypatch)
    for asked in ([(2, 64), (2, 128)], []):
        zetas.clear()
        family_n_bound(NEAR_TIE)
        assert zetas == asked
    for asked in ([(2, 16)], []):
        zetas.clear()
        assert family_n_bound(FamilySpec("torus2", m=1, ell=0), cap=16) == 0
        assert zetas == asked


def test_members_decided_by_the_exact_bounds_build_no_enclosure(monkeypatch):
    # The verify sweeps' members, the deep ones included, and a cap at the
    # bounds' 32-bit floor.
    sines, zetas = _interval_traffic(monkeypatch)
    counts = [family_n_bound(FamilySpec("torus32t", t=t)) for t in (2, 100, 1000, 3000)]
    assert counts == [0, 49, 499, 1499]
    for m in range(1, 41):
        for ell in range(m):
            family_n_bound(FamilySpec("torus2", m=m, ell=ell))
    assert family_n_bound(FamilySpec("torus32t", t=10), cap=32) == 4
    assert sines == zetas == []


def test_zeta_body_runs_once_per_distinct_argument_pair(monkeypatch):
    # The exact bounds bracket zeta(s) - 1 through r_s pi**s below s = 20 and
    # keep each bracket, so a sweep builds r_s once per s there; the ladder
    # builds one enclosure, and so one r_s, per (s, prec) it asks.
    exact_args, interval_args = Counter(), Counter()
    real_even = zeta_module.zeta_even

    def exact_even(k):
        exact_args[k] += 1
        return real_even(k)

    def interval_even(k):
        interval_args[k] += 1
        return real_even(k)

    monkeypatch.setattr(sc, "zeta_even", exact_even)
    monkeypatch.setattr(zeta_module, "zeta_even", interval_even)
    _, zetas = _interval_traffic(monkeypatch)
    sc._pi_power_bracket.cache_clear()
    for m in range(1, 13):
        for ell in range(m):
            family_n_bound(FamilySpec("torus2", m=m, ell=ell))
    family_n_bound(NEAR_TIE)
    assert exact_args and set(exact_args.values()) == {1}
    assert interval_args == Counter(s for s, _ in zetas) == Counter({2: 2})


def test_members_sharing_theta_walk_once(monkeypatch):
    # torus2(1, 0), (4, 2) and (7, 4) all have theta = 1/3, so only the first
    # walks, and the exact bounds decide its walk without an enclosure.
    real_walk = sc._walk
    walks = []

    def counting_walk(*args):
        walks.append(args[-1])
        return real_walk(*args)

    monkeypatch.setattr(sc, "_walk", counting_walk)
    sines, zetas = _interval_traffic(monkeypatch)
    counts = []
    for m, ell in ((1, 0), (4, 2), (7, 4)):
        walks.clear()
        counts.append(family_n_bound(FamilySpec("torus2", m=m, ell=ell)))
        assert walks == ([(1, 3)] if m == 1 else []), (m, ell)
    assert counts == [0, 0, 0]
    assert sines == zetas == []


def _cold_walk(angle: Fraction, cap: int) -> tuple[list[int], tuple | None]:
    """The cold ladder's signs of the steps n = 0, 1, ... up to the first negative one.

    Each step builds its enclosures afresh, as family_n_bound_ref does; a
    cap failure ends the list early and comes back as (message, precision).
    """
    signs = []
    while True:
        n = len(signs)

        def value(prec: int) -> IntervalReal:
            return zeta_interval(2 * n + 2, prec) - (IntervalReal.pi(prec) * angle).sin() - 1

        try:
            signs.append(decide_sign(value, min(64, cap), cap, f"check-count bound at n={n}"))
        except PrecisionCapError as err:
            return signs, (str(err), err.precision)
        if signs[-1] < 0:
            return signs, None


TORUS2_MEMBERS = st.integers(1, 300).flatmap(
    lambda m: st.integers(0, m - 1).map(lambda ell: FamilySpec("torus2", m=m, ell=ell)))
TORUS32T_MEMBERS = st.integers(1, 100).map(lambda t: FamilySpec("torus32t", t=t))
FRACTIONS = st.integers(2, 2**64).flatmap(
    lambda b: st.integers(1, b // 2).map(lambda a: Fraction(a, b)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(TORUS2_MEMBERS, TORUS32T_MEMBERS, FRACTIONS), st.integers(1, 4096))
def test_exact_steps_take_the_cold_ladders_signs(member, cap):
    if isinstance(member, FamilySpec):
        angle = FAMILIES[member.kind].angle(*member.args)
        sc._check_count.cache_clear()
        want = _n_bound_outcome(family_n_bound_ref, member, cap)
        assert _n_bound_outcome(family_n_bound, member, cap) == want
    else:
        angle = member
    signs, failure = _cold_walk(angle, cap)
    sc._check_count.cache_clear()
    try:
        got = sc._check_count(angle.numerator, angle.denominator, cap)
    except PrecisionCapError as err:
        got = str(err), err.precision
    assert got == (failure or len(signs) - 1)
    exact = sc._exact_steps(angle.numerator, angle.denominator, cap)
    if exact is None:
        assert cap < 32
        return
    prefix, sign = exact
    # the step a cap failure stops at must be one the bounds leave open
    for n in range(len(signs) + bool(failure)):
        decided = 1 if n < prefix else sign(n)
        assert decided in (0, signs[n] if n < len(signs) else 0), (n, decided)


# The ladder's rungs from 64 bits up, and caps the bounds may decide at.
RUNGS = (32, 33, 47, 64, 100, 128, 256, 512, 1000, 1024, 2048, 3001, 4096)


def _mpf(ctx, q: Fraction):
    return ctx.mpf(q.numerator) / q.denominator


@pytest.mark.parametrize("s_range", [
    pytest.param((2, 400), id="s=2..400"),
    pytest.param((402, 3100), id="s=402..3100", marks=pytest.mark.slow),
])
def test_zeta_enclosures_stay_within_the_proved_error(s_range):
    # _walk's docstring: at p >= max(32, bitlen(s) + 8) each endpoint of
    # zeta_interval(s, p) lies within (0.66 s + 5.2) 2**(1-p) zeta(s) of
    # zeta(s), and within (s + 13) 2**(1-p).  zeta(s) is r_s pi**s with pi
    # 80 bits beyond the widest rung.
    import mpmath

    lo, hi = s_range
    ctx = mpmath.mp.clone()
    ctx.prec = RUNGS[-1] + 80
    pi = ctx.pi
    worst = 0.0
    for s in range(lo, hi + 1, 2):
        r = zeta_even(s)
        zeta = ctx.mpf(r.numerator) / r.denominator * pi**s
        for p in RUNGS:
            if p < s.bit_length() + 8:
                continue
            z = zeta_interval(s, p)
            u = ctx.ldexp(1, 1 - p)
            dev = max(abs(_mpf(ctx, z.lo_fraction()) - zeta), abs(_mpf(ctx, z.hi_fraction()) - zeta))
            assert dev <= (ctx.mpf(66) / 100 * s + ctx.mpf(52) / 10) * u * zeta, (s, p)
            assert dev <= (s + 13) * u, (s, p)
            worst = max(worst, float(dev / (s * u * zeta)))
    assert worst > 0.1  # the check reads real deviations, not exact endpoints


def test_sine_enclosures_stay_within_the_proved_error():
    # _walk's docstring: at p >= 32 each endpoint of the walk's sin(pi*theta)
    # enclosure lies within 5.8 2**(1-p) pi theta of it, so within 10 2**(1-p)
    # for theta <= 1/2.
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.prec = RUNGS[-1] + 80
    angles = {Fraction(ell + 1, 2 * m + 1) for m in (*range(1, 13), 40, 67, 1000) for ell in range(m)
              if m < 13 or ell % 7 == 0}
    angles |= {Fraction(1, 2**t) for t in (1, 2, 3, 5, 8, 13, 64, 100, 1000, 3100)}
    angles |= {Fraction(15, 67), Fraction(1, 2), Fraction(12345678901, 2**36), Fraction(3, 2**70 + 1)}
    worst = 0.0
    for angle in sorted(angles):
        x = ctx.pi * angle.numerator / angle.denominator
        sine = ctx.sin(x)
        for p in RUNGS:
            enc = (IntervalReal.pi(p) * angle).sin()
            u = ctx.ldexp(1, 1 - p)
            dev = max(abs(_mpf(ctx, enc.lo_fraction()) - sine), abs(_mpf(ctx, enc.hi_fraction()) - sine))
            assert dev <= ctx.mpf(58) / 10 * u * x, (angle, p)
            assert dev <= 10 * u, (angle, p)
            worst = max(worst, float(dev / (u * x)))
    assert worst > 0.1


def test_sine_and_zeta_brackets_hold_the_true_values():
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.prec = 400
    pl, ql = sc._PI_BELOW
    ph, qh = sc._PI_ABOVE
    assert ctx.mpf(pl) / ql < ctx.pi < ctx.mpf(ph) / qh
    for angle in (Fraction(1, 2), Fraction(1, 3), Fraction(15, 67), Fraction(2, 11), Fraction(1, 2**40)):
        (lo_n, lo_d), (hi_n, hi_d) = sc._sine_bracket(angle.numerator, angle.denominator)
        sine = ctx.sin(ctx.pi * angle.numerator / angle.denominator)
        assert ctx.mpf(lo_n) / lo_d <= sine <= ctx.mpf(hi_n) / hi_d
        assert (ctx.mpf(hi_n) / hi_d - ctx.mpf(lo_n) / lo_d) / sine < 2**-55
    for s in range(2, 202, 2):
        (lo_n, lo_d), (hi_n, hi_d) = sc._zeta_excess_bracket(s)
        excess = ctx.zeta(s) - 1
        assert ctx.mpf(lo_n) / lo_d < excess < ctx.mpf(hi_n) / hi_d
        assert (ctx.mpf(hi_n) / hi_d - ctx.mpf(lo_n) / lo_d) / excess < 2**-22


def test_cap_failure_walks_again_with_the_same_error():
    spec, cap = FamilySpec("torus32t", t=2), 4
    sc._check_count.cache_clear()
    errors = []
    for _ in range(2):  # the memo keeps no cap failure, so both calls walk
        with pytest.raises(PrecisionCapError) as caught:
            family_n_bound(spec, cap=cap)
        errors.append((str(caught.value), caught.value.precision))
    assert sc._check_count.cache_info().currsize == 0
    assert errors[0] == errors[1] == _n_bound_outcome(family_n_bound_ref, spec, cap)
    assert errors[0] == ("sign of check-count bound at n=0 undecided at 4 bits", 4)


def test_cap_below_one_bit_raises_and_is_not_memoized():
    before = sc._check_count.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="at least 1 bit"):
            verify_positivity([FamilySpec("torus2", m=3, ell=1)], cap=0)
    assert sc._check_count.cache_info().currsize == before


def test_check_count_memo_is_bounded():
    assert sc._check_count.cache_info().maxsize is not None


def test_decide_sign_names_the_quantity_only_at_the_cap():
    named = []

    def what():
        named.append(1)
        return "the gap"

    assert sc.decide_sign(lambda p: IntervalReal.from_int(1, p), 64, 128, what) == 1
    assert named == []
    with pytest.raises(PrecisionCapError) as caught:
        sc.decide_sign(lambda p: IntervalReal.from_int(0, p), 64, 128, what)
    assert named == [1]
    assert str(caught.value) == "sign of the gap undecided at 128 bits"
    assert caught.value.precision == 128


# -- exact sign tests --------------------------------------------------------


def signs_of(ident: StrangeIdentity, n_used: int) -> tuple[int, ...]:
    """The signs of one member's leading n_used sign tests, run alone."""
    [v] = verdicts_for_identities([(ident, n_used)])
    return v.signs


def test_sign_test_doubled_torus_t3():
    # B_2(13/48) > B_2(19/48), so the n = 0 quantity is positive
    ident = identity_for(FamilySpec("torus32t", t=3))
    assert signs_of(ident, 1) == (1,)
    gap = bernoulli_at(2, Fraction(13, 48)) - bernoulli_at(2, Fraction(19, 48))
    assert gap > 0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_sign_test_odd_weight_first_moment(k):
    ident = identity_for(FamilySpec("habiro-g", k=k))
    inner = sum(
        v * bernoulli_at(1, Fraction(m, ident.f.period)) for m, v in ident.f.entries
    )
    assert inner == -1
    assert signs_of(ident, 1) == (1,)


def test_sign_test_rejects_negative_index():
    with pytest.raises(ValueError, match="nonnegative"):
        verdicts_for_identities([(identity_for(FamilySpec("fishburn")), -1)])


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("fishburn"),
        FamilySpec("torus32t", t=2),
        FamilySpec("torus2", m=2, ell=1),
        FamilySpec("habiro-g", k=2),
        FamilySpec("torus32t", t=60),
        FamilySpec("torus32t", t=63),
    ],
    ids=lambda s: s.label(),
)
def test_sign_test_agrees_with_l_value_signs(spec):
    # same quantity up to the positive factor M**(2n+nu) / (2n+nu+1); t = 63
    # has an anchored fold, so its tests read the leading terms
    ident = identity_for(spec)
    c = c_sequence(ident, 20)
    want = tuple(1 if c[n] > 0 else -1 if c[n] < 0 else 0 for n in range(21))
    assert signs_of(ident, 21) == want


def _signs_alone(ident: StrangeIdentity, n_used: int) -> tuple[int, ...]:
    """Each test's sign from bernoulli_sum run on the member's weight alone."""
    out = []
    for n in range(n_used):
        [(num, den)] = bernoulli_sum(ident.f, [2 * n + ident.nu + 1])
        assert den > 0
        sign = (num > 0) - (num < 0)
        out.append(sign if n % 2 else -sign)
    return tuple(out)


@st.composite
def shared_period_members(draw):
    """(identity, check count) members whose zero-mean weights share one period.

    Each draws its own nu and count.  Some weights cancel in the fold their nu
    reads (odd for nu = 1, even for nu = 0), so every test they run is zero;
    the anchored period 3 2**ANCHOR_E0 sends its members to the leading-term route.
    """
    period = draw(st.one_of(st.integers(2, 40), st.just(3 << ANCHOR_E0)))
    value = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    residue = st.integers(0, period - 1)
    members = []
    for _ in range(draw(st.integers(1, 5))):
        nu = draw(st.sampled_from([0, 1]))
        if period > 2 and draw(st.booleans()):  # f(M - r) = -sigma f(r), sigma the fold's sign
            sigma = 1 if nu else -1
            half = draw(st.lists(st.integers(1, (period - 1) // 2), max_size=3, unique=True))
            g = {r: draw(value) for r in half}
            if not nu and g:  # an even weight has mean zero when g sums to zero
                g[half[-1]] -= sum(g.values())
            entries = {**g, **{period - r: -sigma * v for r, v in g.items()}}
        else:
            entries = {r: draw(value) for r in draw(st.lists(residue, max_size=4, unique=True))}
            last = draw(residue)
            entries[last] = entries.get(last, 0) - sum(entries.values())
        f = PeriodicFunction(period, tuple(entries.items()))
        members.append((StrangeIdentity(0, 1, nu, f), draw(st.integers(0, 5))))
    return members


_ANCHORED_PERIOD = 3 << ANCHOR_E0


def _nu_one_member(period: int, entries: dict[int, int], n_used: int) -> tuple[StrangeIdentity, int]:
    """A nu = 1 member, whose sign tests read the fold f(r) + f(M - r)."""
    return StrangeIdentity(0, 1, 1, PeriodicFunction(period, tuple(entries.items()))), n_used


# An odd weight cancels in its fold, so it has no points and no anchor even at
# an anchored period; it still reads the run's kernel values, which the
# anchored member beside it does not.
_CANCELLED = _nu_one_member(_ANCHORED_PERIOD, {1: 1, _ANCHORED_PERIOD - 1: -1}, 3)
_ANCHORED = _nu_one_member(_ANCHORED_PERIOD, {1: 1, _ANCHORED_PERIOD - 1: 1, 5: -2}, 2)
_ANCHORED_TOO = _nu_one_member(_ANCHORED_PERIOD, {3: 1, _ANCHORED_PERIOD - 7: -1}, 4)


@settings(max_examples=150, deadline=None)
@given(members=shared_period_members())
@example(members=[_CANCELLED, _ANCHORED])
def test_grouped_signs_equal_each_weight_alone(members):
    verdicts = verdicts_for_identities(members)
    assert [v.signs for v in verdicts] == [_signs_alone(i, n) for i, n in members]


def _recorded_kernel_periods(monkeypatch) -> list[int]:
    """The period of each bernoulli_poly call that signcheck makes from here on."""
    calls, real = [], sc.bernoulli_poly

    def recorded(ks, ps, q):
        calls.append(q)
        return real(ks, ps, q)

    monkeypatch.setattr(sc, "bernoulli_poly", recorded)
    return calls


def test_an_anchored_run_makes_no_kernel_call(monkeypatch):
    calls = _recorded_kernel_periods(monkeypatch)
    members = [_ANCHORED, _ANCHORED_TOO, (_ANCHORED[0], 0)]
    assert all(i.f._fold(1).anchor is not None for i, _ in members)
    verdicts = verdicts_for_identities(members)
    assert [v.signs for v in verdicts] == [_signs_alone(i, n) for i, n in members]
    assert calls == []


def test_runs_are_cut_where_the_period_changes(monkeypatch):
    # P, Q, P is three runs, one kernel call each, and the verdicts keep the order.
    calls = _recorded_kernel_periods(monkeypatch)
    members = [(identity_for(FamilySpec("torus2", m=m, ell=ell)), n)
               for m, ell, n in [(2, 0, 2), (2, 1, 1), (3, 1, 3), (2, 1, 2)]]
    verdicts = verdicts_for_identities(members)
    assert calls == [20, 28, 20]
    assert [v.signs for v in verdicts] == [_signs_alone(i, n) for i, n in members]


def test_verify_positivity_takes_a_one_shot_generator():
    specs = [FamilySpec("torus2", m=m, ell=ell) for m in range(1, 9) for ell in range(m)]
    specs += [FamilySpec("torus32t", t=t) for t in range(60, 65)]
    assert verify_positivity(spec for spec in specs) == verify_positivity(specs)
    assert verify_positivity([]) == []


def test_a_sweep_makes_one_kernel_call_per_period(monkeypatch):
    # torus2 m = 1..12 has one period 8m + 4 per m; members of an m with
    # tests share one call, and no test goes through bernoulli_sum.
    calls = _recorded_kernel_periods(monkeypatch)
    monkeypatch.setattr(thetaside, "bernoulli_sum", None)
    specs = [FamilySpec("torus2", m=m, ell=ell) for m in range(1, 13) for ell in range(m)]
    verdicts = verify_positivity(specs)
    tested = sorted({8 * s.args[0] + 4 for s, v in zip(specs, verdicts) if v.n_used})
    assert calls == tested and len(tested) == 11


def test_members_keep_their_order_across_groups():
    # Runs of one period are grouped; the verdicts still follow the specs.
    specs = [FamilySpec("torus2", m=m, ell=ell) for m in range(2, 9) for ell in range(m)]
    specs += [FamilySpec("torus32t", t=t) for t in (3, 40, 63, 64)]
    specs += [FamilySpec("habiro-g", k=k) for k in (1, 2)]
    shuffled = [specs[(7 * i) % len(specs)] for i in range(len(specs))]
    assert len(set(shuffled)) == len(specs)
    alone = [verify_positivity([spec])[0] for spec in shuffled]
    assert verify_positivity(shuffled) == alone


# -- verdicts ----------------------------------------------------------------


def test_verdict_shapes():
    [v] = verify_positivity([FamilySpec("torus32t", t=3)])
    assert isinstance(v, PositivityVerdict)
    assert v.n_used == 1
    assert v.signs == (1,)
    assert v.verdict == "proved-positive"


def test_verdict_with_no_checks_needed():
    [v] = verify_positivity([FamilySpec("fishburn")])
    assert v.n_used == 0 and v.signs == () and v.verdict == "proved-positive"


def test_identity_is_built_only_when_a_sign_test_runs(monkeypatch):
    built = []

    def noting_identity(spec):
        built.append(spec)
        return identity_for(spec)

    monkeypatch.setattr(sc, "identity_for", noting_identity)
    specs = [FamilySpec("fishburn"), FamilySpec("torus2", m=1, ell=0),
             FamilySpec("torus32t", t=2)]
    for v in verify_positivity(specs):
        assert v.n_used == 0 and v.verdict == "proved-positive"
    assert built == []
    [v] = verify_positivity([FamilySpec("torus32t", t=3)])
    assert v.n_used == 1 and v.signs == (1,)
    assert built == [FamilySpec("torus32t", t=3)]


def test_members_share_their_check_records():
    # Members of a sweep pass the same leading tests alike.
    a, b = verify_positivity([FamilySpec("torus32t", t=t) for t in (40, 42)])
    assert a.signs == (1,) * a.n_used
    assert b.signs[:a.n_used] == a.signs and b.n_used > a.n_used


def test_verdict_sweeps():
    specs = [FamilySpec("torus32t", t=t) for t in range(1, 13)]
    specs += [FamilySpec("torus2", m=m, ell=ell) for m in range(1, 7) for ell in range(m)]
    specs += [FamilySpec("habiro-g", k=k) for k in range(1, 7)]
    assert [v.verdict for v in verify_positivity(specs)] == ["proved-positive"] * len(specs)


def test_verdict_soundness_against_expansions():
    specs = [FamilySpec("torus32t", t=2), FamilySpec("torus2", m=2, ell=0),
             FamilySpec("habiro-g", k=2)]
    for spec, v in zip(specs, verify_positivity(specs), strict=True):
        assert v.verdict == "proved-positive"
        assert all(c > 0 for c in expand_family(spec, 40).integer_coeffs())


def test_condition_failed_for_flipped_weight():
    base = identity_for(FamilySpec("habiro-g", k=1))
    flipped = StrangeIdentity(
        base.a, base.b, base.nu,
        PeriodicFunction(base.f.period, tuple((r, -v) for r, v in base.f.entries)),
    )
    [v] = verdicts_for_identities([(flipped, 1)])
    assert v.verdict == "condition-failed"
    assert v.signs == (-1,)


def test_zero_sign_test_counts_as_nonnegative(monkeypatch):
    # mean zero and vanishing first moment make the n = 0 quantity exactly zero;
    # the test itself returns that zero, which the benchmark's tracer counts
    returned, real = [], sc.bernoulli_sign_test

    def recorded(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(sc, "bernoulli_sign_test", recorded)
    zero_ident = StrangeIdentity(0, 1, 0, periodic((0, 1, -2, 1)))
    [lax] = verdicts_for_identities([(zero_ident, 1)])
    assert returned == [0]
    assert lax.signs == (0,) and lax.verdict == "proved-positive"
    assert "zero" in lax.note


def test_precision_cap_becomes_undecided_verdict(monkeypatch):
    def boom(spec, cap):
        raise PrecisionCapError("sign of check-count bound undecided", cap)

    monkeypatch.setattr(sc, "family_n_bound", boom)
    [v] = sc.verify_positivity([FamilySpec("torus32t", t=2)])
    assert v.verdict == "undecided-at-precision-cap"
    assert v.signs == () and v.n_used == 0
    assert v.note == "sign of check-count bound undecided"


# -- residue-class certificates ----------------------------------------------


def test_certificate_full_slope():
    r = infinite_family_check(1, -1, 1)
    assert isinstance(r, FamilyCertificate)
    assert r.certified and r.m0 == 1 and r.modulus == 1
    assert r.members(4) == [(1, 0), (2, 1), (3, 2), (4, 3)]


def test_certificate_half_slope():
    r = infinite_family_check(1, -1, 2)
    assert r.certified and r.m0 == 1 and r.modulus == 2
    assert r.members(4) == [(1, 0), (3, 1), (5, 2), (7, 3)]


def test_certificate_rejects_small_slope():
    r = infinite_family_check(1, 0, 4)
    assert not r.certified
    assert "not certified by this remark" in r.reason
    with pytest.raises(ValueError, match="not certified"):
        r.members(1)


def test_certificate_rejects_unsolvable_congruence():
    r = infinite_family_check(2, 1, 4)
    assert not r.certified
    assert "congruence" in r.reason


def test_certificate_input_guards():
    with pytest.raises(ValueError, match="q1 must be positive"):
        infinite_family_check(1, -1, 0)
    with pytest.raises(ValueError, match="common factor"):
        infinite_family_check(2, -2, 4)


def test_certified_members_are_valid_parameters():
    specs = [FamilySpec("torus2", m=m, ell=ell)
             for m, ell in infinite_family_check(1, -1, 2).members(5)]
    assert [v.verdict for v in verify_positivity(specs)] == ["proved-positive"] * 5
