"""Periodic weights and the C -> B -> xi route, against independent oracles."""

import hashlib
import json
import sys
import threading
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
import sympy
from bernoulli_ref import bernoulli_at
from fold_ref import fold_ref, folded
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import stirling

from habiro import thetaside
from habiro.exact import IntervalReal, bernoulli_poly, root_sum_is_zero
from habiro.families import FamilySpec, identity_for
from habiro.thetaside import (
    ANCHOR_E0,
    PeriodicFunction,
    StrangeIdentity,
    _anchor_nums,
    _anchor_pattern,
    _anchor_table,
    _g_terms,
    _top_terms,
    b_sequence,
    bernoulli_sign,
    bernoulli_sum,
    c_sequence,
    find_k_nu,
    g_value,
    make_chi_k,
    make_chi_m_ell,
    make_chi_t,
    xi_from_theta,
)

H = Fraction(1, 2)


def periodic(values) -> PeriodicFunction:
    """The weight with one value per residue class, zeros included."""
    return PeriodicFunction(len(values), tuple(enumerate(values)))


def test_chi_t_pinned_residues():
    f = make_chi_t(1)
    assert f.period == 12
    assert dict(f.entries) == {1: -H, 11: -H, 5: H, 7: H}
    f = make_chi_t(2)
    assert f.period == 24
    assert dict(f.entries) == {5: -H, 19: -H, 11: H, 13: H}


def test_chi_m_ell_pinned_residues():
    assert make_chi_m_ell(1, 0) == make_chi_t(1)
    f = make_chi_m_ell(2, 0)
    assert f.period == 20
    assert dict(f.entries) == {3: -H, 17: -H, 7: H, 13: H}


def test_chi_k_pinned_residues():
    f = make_chi_k(1)
    assert f.period == 6
    assert dict(f.entries) == {1: 1, 2: 1, 4: -1, 5: -1}


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_chi_t(0)
    with pytest.raises(ValueError):
        make_chi_m_ell(2, 2)
    with pytest.raises(ValueError):
        make_chi_m_ell(2, -1)
    with pytest.raises(ValueError):
        make_chi_k(0)


@pytest.mark.parametrize("period, entries, message", [
    (1, (), "period must be at least 2"),
    (4.0, ((1, 1),), "period must be an integer: 4.0"),
    (4, ((1.5, 1), (3, -1)), "support residue must be an integer: 1.5"),
    (4, ((4, 1),), "support residue out of range"),
    (4, ((1, 1), (1, -1)), "duplicate support residue"),
])
def test_periodic_function_rejects_bad_data(period, entries, message):
    with pytest.raises(ValueError) as err:
        PeriodicFunction(period, entries)
    assert str(err.value) == message


def four_residue_weights():
    yield from (make_chi_t(t) for t in range(1, 201))
    yield from (make_chi_m_ell(m, ell) for m in range(1, 41) for ell in range(m))
    yield from (make_chi_k(k) for k in range(1, 61))


def test_four_residue_weights_match_the_validated_constructor():
    # The family weights skip the checks: the validated constructor must
    # accept their entries and give the same integer form and folds.
    for f in four_residue_weights():
        ref = PeriodicFunction(f.period, f.entries)
        assert f == ref and f.entries == ref.entries
        assert (f._scale, f._ints) == (ref._scale, ref._ints)
        assert all(f._fold(sign) == ref._fold(sign) for sign in (1, -1))


def test_mean_zero_and_parity_sweep():
    for t in range(1, 7):
        f = make_chi_t(t)
        assert f.mean_is_zero() and f.is_even()
    for m in range(1, 7):
        for ell in range(m):
            f = make_chi_m_ell(m, ell)
            assert f.mean_is_zero() and f.is_even()
    for k in range(1, 9):
        f = make_chi_k(k)
        assert f.mean_is_zero() and f.is_odd()


@pytest.mark.parametrize("sign, degrees", [(1, (2, 4, 10)), (-1, (1, 3, 9))])
def test_folded_weights_give_the_same_bernoulli_sums(sign, degrees):
    # B_s(1 - x) = (-1)**s B_s(x).  Residues 0 and 6 are their own mirrors
    # here, and 3 and 9 cancel for sign = -1.
    f = periodic(
        (Fraction(2), Fraction(1, 3), 0, Fraction(5), 0, Fraction(-7, 2), Fraction(4),
         0, 0, Fraction(5), 0, Fraction(-1, 6)))
    merged = folded(f, sign)
    assert len(merged) == (5 if sign == 1 else 4)
    for s in degrees:
        def total(entries):
            return sum(v * bernoulli_at(s, Fraction(m or 12, 12)) for m, v in entries)

        assert total(merged) == total(f.entries)


@st.composite
def periodic_weights(draw):
    """A weight with residues 0 and M/2 among its draws, denominators up to 12, and
    for some draws mirror pairs (equal or opposite) that cancel in one of the folds.

    Periods include q1 2**e with e >= ANCHOR_E0, so the anchor pattern is exercised.
    """
    period = draw(st.one_of(st.integers(2, 48),
                            st.builds(lambda q1, e: q1 << e, st.integers(1, 9),
                                      st.integers(ANCHOR_E0, ANCHOR_E0 + 8))))
    value = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
    residue = st.one_of(st.just(0), st.just(period // 2), st.integers(0, period - 1))
    entries = {r: draw(value) for r in draw(st.lists(residue, min_size=1, max_size=6, unique=True))}
    shape = draw(st.sampled_from(["free", "even", "odd", "mean zero"]))
    if shape in ("even", "odd"):
        mirrored = {}
        for r, v in entries.items():
            mirror = -r % period
            if mirror in mirrored:
                continue
            if mirror != r:
                mirrored[mirror] = v if shape == "even" else -v
            if mirror != r or shape == "even":
                mirrored[r] = v
        entries = mirrored
    elif shape == "mean zero":
        r = draw(residue)
        if r not in entries and sum(entries.values()):
            entries[r] = -sum(entries.values())
    return PeriodicFunction(period, tuple(entries.items()))


@settings(max_examples=300, deadline=None)
@given(f=periodic_weights())
def test_integer_form_matches_the_fraction_definitions(f):
    values = dict(f.entries)
    assert f.mean_is_zero() == (sum(values.values()) == 0)
    assert f.is_even() == all(values.get(-r % f.period, 0) == v for r, v in values.items())
    assert f.is_odd() == all(values.get(-r % f.period, 0) == -v for r, v in values.items())
    for sign in (1, -1):
        fold = f._fold(sign)
        points, weights, scale = fold_ref(f, sign)
        assert (fold.points, fold.weights, fold.scale) == (points, weights, scale)
        assert fold.anchor == _anchor_pattern(f.period, points, weights)
    assert all(f(r + 3 * f.period) == v for r, v in values.items())


def horner_bernoulli_sum(f: PeriodicFunction, ss: list[int]) -> list[tuple[int, int]]:
    """bernoulli_sum's pairs from the Horner kernel: sum_m v_m B_s(m/M) over the folded
    weight, the values over L P_s M**s, L the lcm of the weights' denominators."""
    points, weights, scale = fold_ref(f, -1 if ss[0] % 2 else 1)
    return [(sum(w * b for w, b in zip(weights, values)), scale * den)
            for values, den in bernoulli_poly(ss, list(points), f.period)]


@st.composite
def anchored_sums(draw):
    """A weight of period q1 2**e, e on either side of ANCHOR_E0, and a run of indices.

    Its residues mix 0 (the point x = 1), points below 2**(e-1) (anchor a = 0),
    points near a multiple a 2**e, and arbitrary ones.
    """
    q1 = draw(st.sampled_from(range(1, 16, 2)))
    e = draw(st.one_of(st.integers(max(1, ANCHOR_E0 - 8), ANCHOR_E0 - 1),
                       st.integers(ANCHOR_E0, 200)))
    period = q1 << e
    near = st.builds(lambda a, d: (a << e) + d, st.integers(0, q1), st.integers(-50, 50))
    residues = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, (1 << (e - 1)) - 1), near,
                  st.integers(0, period - 1)).map(lambda r: r % period),
        min_size=1, max_size=6, unique=True))
    values = draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12)
                           .filter(bool), min_size=len(residues), max_size=len(residues)))
    start = draw(st.integers(0, 40))
    ss = list(range(start, start + 2 * draw(st.integers(1, 6)), 2))
    return PeriodicFunction(period, tuple(zip(residues, values))), ss


@settings(max_examples=40, deadline=None)
@given(case=anchored_sums())
def test_anchor_route_gives_the_horner_kernels_sums(case):
    f, ss = case
    sign = -1 if ss[0] % 2 else 1
    e = (f.period & -f.period).bit_length() - 1
    anchor = f._fold(sign).anchor
    assert (anchor is not None) == (e >= ANCHOR_E0 and bool(folded(f, sign)))
    assert bernoulli_sum(f, ss) == horner_bernoulli_sum(f, ss)
    # Each residue a 2**e + d moved to a 2**(e+1) + d keeps the pattern (a, d, w),
    # so above ANCHOR_E0 the doubled period reads the anchor tables just built.
    half = 1 << (e - 1)
    lifted = PeriodicFunction(2 * f.period, tuple(
        (r + (((r + half) >> e) << e), v) for r, v in f.entries))
    if anchor is not None:
        assert lifted._fold(sign).anchor[1:] == anchor[1:]
    assert bernoulli_sum(lifted, ss) == horner_bernoulli_sum(lifted, ss)


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


def top_terms(f: PeriodicFunction, s: int) -> tuple[int, ...]:
    """The leading anchor terms the sign tests of index s read, from their memo."""
    _, q1, pattern = f._fold(-1 if s % 2 else 1).anchor
    return _top_terms(s, q1, pattern)[0]


@settings(max_examples=60, deadline=None)
@given(case=anchored_sums())
def test_sign_route_gives_the_sign_of_the_full_sum(case):
    f, ss = case
    for s in ss:
        [(num, _)] = bernoulli_sum(f, [s])
        [(ref, _)] = horner_bernoulli_sum(f, [s])
        assert bernoulli_sign(f, s) == sign(num) == sign(ref)


@st.composite
def cancelling_sums(draw):
    """A weight of period q1 2**e, e >= ANCHOR_E0, whose points near each anchor
    carry weights (w, w, -2w) at a 2**e + d, a 2**e - d and a 2**e, so that U_s
    and U_(s-1) cancel and the sign test has to read on."""
    q1 = draw(st.sampled_from(range(3, 16, 2)))
    e = draw(st.integers(ANCHOR_E0, 160))
    anchors = draw(st.lists(st.integers(1, q1 - 1), min_size=1, max_size=3, unique=True))
    entries = {}
    for a in anchors:
        d = draw(st.integers(1, 2**20))
        w = Fraction(draw(st.integers(1, 9)), draw(st.sampled_from([1, 2, 3])))
        for r, v in (((a << e) + d, w), ((a << e) - d, w), (a << e, -2 * w)):
            entries[r] = v
    s = draw(st.integers(2, 60))
    return PeriodicFunction(q1 << e, tuple(entries.items())), s


@settings(max_examples=60, deadline=None)
@given(case=cancelling_sums())
def test_sign_route_reads_past_cancelling_top_terms(case):
    f, s = case
    [(ref, _)] = horner_bernoulli_sum(f, [s])
    assert bernoulli_sign(f, s) == sign(ref)
    if f._fold(-1 if s % 2 else 1).anchor is not None:
        terms = top_terms(f, s)
        assert len(terms) == min(4, s + 1)
        assert terms[:2] == (0, 0)  # U_s and U_(s-1) cancel, so the test reads on


def test_sign_route_stops_early_on_a_torus32t_member(exact_exits):
    # verify's checks for this member run up to s = 2n + 2 = 68
    ident = identity_for(FamilySpec("torus32t", t=ANCHOR_E0 + 6))
    for s in (10, 40, 68):
        [(num, _)] = bernoulli_sum(ident.f, [s])
        assert bernoulli_sign(ident.f, s) == sign(num) != 0
        assert len(top_terms(ident.f, s)) == 4 < s + 1
    assert exact_exits == []


def exact_zero_weights(e: int, s: int):
    """Anchored weights whose Bernoulli sum at index s is exactly 0."""
    q = 3 << e
    r = (1 << e) + 5
    # B_s(2x) = 2**(s-1) (B_s(x) + B_s(x + 1/2)), at x = r/q
    yield PeriodicFunction(q, ((r, Fraction(2 ** (s - 1))), (r + q // 2, Fraction(2 ** (s - 1))),
                               (2 * r, Fraction(-1))))
    if s % 2:  # B_s(1/2) = 0 for odd s
        yield PeriodicFunction(q, ((q // 2, Fraction(1)),))


@pytest.mark.parametrize("e", [ANCHOR_E0, 100])
@pytest.mark.parametrize("s", [1, 2, 7, 30])
def test_sign_route_falls_back_to_the_exact_sum(e, s, exact_exits):
    zeros = list(exact_zero_weights(e, s))
    # residues far from their anchors, |d| within 2**10 of 2**(e-1)
    far = PeriodicFunction(3 << e, (((1 << (e - 1)) - 999, Fraction(3)),
                                    ((5 << (e - 1)) + 77, Fraction(-2, 3))))
    # The far residues' sums are decided only by their last term U_0, so the
    # exact exit runs once the s + 1 terms outnumber the four kept.
    for f, undecided in [*((zero, True) for zero in zeros), (far, s + 1 > 4)]:
        [(num, _)] = bernoulli_sum(f, [s])
        [(ref, _)] = horner_bernoulli_sum(f, [s])
        assert f._fold(-1 if s % 2 else 1).anchor is not None
        exact_exits.clear()
        assert bernoulli_sign(f, s) == sign(num) == sign(ref)
        assert exact_exits == ([[s]] if undecided else [])
        assert len(top_terms(f, s)) == min(4, s + 1)
    assert all(bernoulli_sign(f, s) == 0 for f in zeros)


def test_sign_memo_shared_by_threads():
    # Threads read and extend the same memo entries at once; far residues make
    # every test run to U_0, so the threads race through whole expansions.
    e = ANCHOR_E0 + 3
    weights = [PeriodicFunction(3 << e, (((1 << (e - 1)) - 999 - j, Fraction(3)),
                                         ((5 << (e - 1)) + 77 + j, Fraction(-2, 3))))
               for j in range(3)] + [make_chi_t(e - 1)]
    cases = [(f, s) for s in range(1, 41) for f in weights]
    want = [sign(horner_bernoulli_sum(f, [s])[0][0]) for f, s in cases]
    _top_terms.cache_clear()
    results, errors = [None] * 4, []

    def worker(i):
        try:
            results[i] = [bernoulli_sign(f, s) for f, s in cases]
        except Exception as err:  # reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and results == [want] * 4


def test_anchored_sum_leaves_the_sign_memo_alone():
    f = make_chi_t(70)
    ss = [1, 3, 5, 7]
    before = _top_terms.cache_info()
    assert bernoulli_sum(f, ss) == horner_bernoulli_sum(f, ss)
    assert _top_terms.cache_info() == before


def build_anchor_tables(top: int) -> list:
    """The anchor tables of q1 = 139 at a = 1..70 through index top, built in that order."""
    return [_anchor_table(139, a, top) for a in range(1, 71)]


def check_anchor_tables_after_70_builds(first: list, top: int) -> None:
    info = _anchor_nums.cache_info()
    assert info.maxsize == info.currsize == 64
    # kept or evicted, every table reads as it was first built
    assert build_anchor_tables(top) == first


def test_anchor_tables_evict_the_least_recently_used():
    # A table of size 2 is built by the kernel alone, one cache entry each.
    _anchor_nums.cache_clear()
    first = build_anchor_tables(2)
    assert _anchor_nums.cache_info()[:2] == (0, 70)  # (hits, misses): a = 1..6 are gone
    assert _anchor_table(139, 7, 2) == first[6]  # a hit, so a = 8 is now the least recently used
    assert len(_anchor_table(139, 71, 2)) == 3  # through N_2, and a = 8 is evicted
    assert _anchor_nums.cache_info()[:2] == (1, 71)
    kept = [7, *range(9, 71)]
    assert [_anchor_table(139, a, 2) for a in kept] == [first[a - 1] for a in kept]
    assert _anchor_nums.cache_info()[:2] == (64, 71)  # kept beside a = 71
    assert _anchor_table(139, 8, 2) == first[7]  # rebuilt as it was first built
    assert _anchor_nums.cache_info()[:2] == (64, 72)
    check_anchor_tables_after_70_builds(first, 2)


def test_anchor_tables_double_from_their_cached_half(monkeypatch):
    calls, real = [], thetaside.bernoulli_poly

    def recorded(ks, ps, q):
        calls.append(ks)
        return real(ks, ps, q)

    _anchor_nums.cache_clear()
    monkeypatch.setattr(thetaside, "bernoulli_poly", recorded)
    assert _anchor_table(5, 2, 5) == tuple(  # size 8, from the halves 4 and 2
        bernoulli_poly([k], [2], 5)[0][0][0] for k in range(9))
    assert calls == [[0, 2], [1], [3], [4], [5, 7], [6, 8]]
    assert _anchor_nums.cache_info()[:2] == (0, 3)
    calls.clear()
    assert len(_anchor_table(5, 2, 9)) == 17
    assert calls == [list(range(9, 17, 2)), list(range(10, 17, 2))]  # the new half only
    assert _anchor_nums.cache_info()[:2] == (1, 4)


def test_anchor_tables_evict_safely_from_threads():
    # Tables of size 8 read their halves from the cache the threads evict from.
    _anchor_nums.cache_clear()
    want = build_anchor_tables(5)
    _anchor_nums.cache_clear()
    results, errors = [None] * 4, []

    def worker(i):  # forty rounds each, so that the threads' evictions overlap
        try:
            for _ in range(40):
                results[i] = build_anchor_tables(5)
        except Exception as err:  # reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and results == [want] * 4
    # which of the tables survive depends on how the threads interleave
    check_anchor_tables_after_70_builds(want, 5)


def test_bernoulli_sign_rejects_a_negative_index():
    for t in (2, 70):
        with pytest.raises(ValueError, match="nonnegative"):
            bernoulli_sign(make_chi_t(t), -2)


@pytest.mark.parametrize("t", [2, 70])  # period 3*2**4 on the kernel, 3*2**72 on the anchors
@pytest.mark.parametrize("ss", [[], [1, 2], [2, 5], [4, 2], [-2, 0]])
def test_bernoulli_sum_rejects_a_bad_index_list_on_both_routes(t, ss):
    f = make_chi_t(t)
    assert (f._fold(1).anchor is None) == (t == 2)
    with pytest.raises(ValueError, match="nonnegative, strictly ascending, of one parity"):
        bernoulli_sum(f, ss)


def test_c_sequence_above_anchor_e0_matches_the_horner_kernel():
    t, n_max = ANCHOR_E0 + 6, 30
    ident = identity_for(FamilySpec("torus32t", t=t))
    period = ident.f.period
    assert period % 2**ANCHOR_E0 == 0
    ss = [2 * n + 2 for n in range(n_max + 1)]
    values = bernoulli_poly(ss, [m for m, _ in ident.f.entries], period)
    want = tuple(
        Fraction((-1) ** (n + 1) * period ** (s - 1), s)
        * sum(v * Fraction(b, den) for (_, v), b in zip(ident.f.entries, nums))
        for n, (s, (nums, den)) in enumerate(zip(ss, values)))
    assert c_sequence(ident, n_max) == want


def test_identity_validation():
    StrangeIdentity(1, 24, 1, make_chi_t(1))
    StrangeIdentity(1, 3, 0, make_chi_k(1))
    with pytest.raises(ValueError, match="non-integral exponent"):
        StrangeIdentity(2, 24, 1, make_chi_t(1))
    with pytest.raises(ValueError, match="nonzero mean"):
        StrangeIdentity(0, 1, 0, periodic((Fraction(1), Fraction(0))))
    neg = periodic((Fraction(1, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError, match="negative exponent"):
        StrangeIdentity(4, 1, 0, neg)


def test_g_value_exact_t1():
    conductor, terms = _g_terms(make_chi_t(1), 1, 1)
    # sqrt(12)*G = -2*sqrt(3), written via 24th roots of unity.
    assert conductor == 24
    expect = {2: -2, 22: -2}
    difference = dict(terms)
    for e, c in expect.items():
        difference[e] = difference.get(e, 0) - c
    assert root_sum_is_zero(conductor, difference)
    assert not root_sum_is_zero(conductor, terms)
    numeric = g_value(make_chi_t(1), 1, 1)
    assert numeric.lo_fraction() <= -1 <= numeric.hi_fraction()
    assert numeric.width_fraction() < Fraction(1, 2**50)


def test_g_value_closed_form_chi_t():
    pi = IntervalReal.pi(128)
    for t in range(1, 5):
        numeric = g_value(make_chi_t(t), 1, 1, prec=128)
        ref = -((pi / 2**t).sin() / IntervalReal.from_int(2 ** (t - 1), 128).sqrt())
        gap = numeric - ref
        assert gap.lo_fraction() <= 0 <= gap.hi_fraction()
        assert abs(gap).hi_fraction() < Fraction(1, 10**20)


def test_g_value_closed_form_chi_m_ell():
    pi = IntervalReal.pi(128)
    for m, ell in ((1, 0), (2, 0), (2, 1), (3, 2)):
        numeric = g_value(make_chi_m_ell(m, ell), 1, 1, prec=128)
        scale = 2 / IntervalReal.from_int(2 * m + 1, 128).sqrt()
        ref = -(scale * (pi * Fraction(ell + 1, 2 * m + 1)).sin())
        gap = numeric - ref
        assert gap.lo_fraction() <= 0 <= gap.hi_fraction()
        assert abs(gap).hi_fraction() < Fraction(1, 10**20)


def test_g_value_closed_form_chi_k():
    # (8/sqrt(4k+2)) sin(pi l/2) cos(pi l/(2(2k+1))) vanishes at even l and
    # alternates in sign through odd l.
    pi = IntervalReal.pi(128)
    for k in (1, 2, 3):
        f = make_chi_k(k)
        for freq in (2, 4, 6):
            assert root_sum_is_zero(*_g_terms(f, 0, freq))
        numeric = g_value(f, 0, 1, prec=128)
        scale = 8 / IntervalReal.from_int(4 * k + 2, 128).sqrt()
        ref = scale * (pi / (2 * (2 * k + 1))).cos()
        gap = numeric - ref
        assert gap.lo_fraction() <= 0 <= gap.hi_fraction()


def test_wrong_parity_vanishes_identically():
    for t in (1, 2):
        f = make_chi_t(t)
        for k in range(1, f.period + 1):
            assert root_sum_is_zero(*_g_terms(f, 0, k))
    f = make_chi_k(2)
    for k in range(1, f.period + 1):
        assert root_sum_is_zero(*_g_terms(f, 1, k))


def test_find_k_nu():
    for t in range(1, 6):
        assert find_k_nu(make_chi_t(t), 1) == 1
    for m, ell in ((2, 0), (3, 1), (5, 4)):
        assert find_k_nu(make_chi_m_ell(m, ell), 1) == 1
    for k in range(1, 6):
        assert find_k_nu(make_chi_k(k), 0) == 1
    with pytest.raises(ValueError, match="no nonzero Fourier coefficient"):
        find_k_nu(periodic((0, 0, 0, 0)), 1)


def test_wrong_parity_is_reported_without_a_scan(monkeypatch):
    import habiro.thetaside as thetaside

    calls = []

    def counting(conductor, terms):
        calls.append(conductor)
        return root_sum_is_zero(conductor, terms)

    monkeypatch.setattr(thetaside, "root_sum_is_zero", counting)
    wrong = [(make_chi_t(t), 0) for t in (1, 6, 12)] + [(make_chi_k(k), 1) for k in (1, 2, 5)]
    for f, nu in wrong:
        with pytest.raises(ValueError, match="no nonzero Fourier coefficient"):
            find_k_nu(f, nu)
    assert calls == []
    # the matching parity still goes through the exact zero test
    assert find_k_nu(make_chi_t(12), 1) == 1
    assert find_k_nu(make_chi_k(5), 0) == 1
    assert len(calls) == 2


FISHBURN_C = (1, 23, 1681, 257543, 67637281, 27138236663)
FISHBURN_B = (1, 1, 3, 19, 207, 3451, 81663, 2602699)
FISHBURN_XI = (1, 1, 2, 5, 15, 53, 217, 1014)


def fishburn_identity() -> StrangeIdentity:
    return StrangeIdentity(1, 24, 1, make_chi_t(1))


def test_c_sequence_fishburn():
    c = c_sequence(fishburn_identity(), 5)
    assert c == tuple(Fraction(v) for v in FISHBURN_C)


def test_c_sequence_matches_sympy_oracle():
    ident = StrangeIdentity(1, 3, 0, make_chi_k(1))
    c = c_sequence(ident, 4)
    for n in range(5):
        s = 2 * n + 1
        acc = sum(
            sympy.Rational(ident.f(m)) * sympy.bernoulli(s, sympy.Rational(m, 6))
            for m in range(1, 7)
        )
        ref = sympy.nsimplify((-1) ** (n + 1) * sympy.Integer(6) ** (s - 1) / s * acc)
        assert c[n] == Fraction(str(ref))


def test_b_sequence_fishburn():
    ident = fishburn_identity()
    b = b_sequence(ident, c_sequence(ident, 7))
    assert b == tuple(Fraction(v) for v in FISHBURN_B)


def test_b_sequence_zero_a_reduces_to_scaling():
    f = periodic((Fraction(-1), Fraction(1)))
    ident = StrangeIdentity(0, 1, 0, f)
    c = c_sequence(ident, 5)
    b = b_sequence(ident, c)
    assert b == c


def test_xi_fishburn():
    ident = fishburn_identity()
    xi = xi_from_theta(b_sequence(ident, c_sequence(ident, 7)), 7)
    assert tuple(xi.integer_coeffs()) == FISHBURN_XI


def test_xi_habiro_g_families():
    g1 = StrangeIdentity(1, 3, 0, make_chi_k(1))
    xi = xi_from_theta(b_sequence(g1, c_sequence(g1, 8)), 8)
    assert xi.integer_coeffs() == [1, 1, 2, 6, 25, 135, 896, 7048, 64064]
    g2 = StrangeIdentity(4, 5, 0, make_chi_k(2))
    xi = xi_from_theta(b_sequence(g2, c_sequence(g2, 8)), 8)
    assert xi.integer_coeffs() == [1, 2, 6, 28, 189, 1680, 18452, 240744, 3634317]


def test_xi_torus_two_parameter():
    x20 = StrangeIdentity(9, 40, 1, make_chi_m_ell(2, 0))
    xi = xi_from_theta(b_sequence(x20, c_sequence(x20, 8)), 8)
    assert xi.integer_coeffs() == [1, 2, 6, 23, 109, 621, 4149, 31851, 276408]
    x21 = StrangeIdentity(1, 40, 1, make_chi_m_ell(2, 1))
    xi = xi_from_theta(b_sequence(x21, c_sequence(x21, 8)), 8)
    assert xi.integer_coeffs() == [2, 3, 9, 35, 168, 966, 6496, 50103, 436338]


def test_b_and_xi_match_their_defining_sums():
    ident = StrangeIdentity(9, 56, 1, make_chi_m_ell(3, 1))
    c = tuple(Fraction((-1) ** n * (n * n + 3), 7 * n + 2) for n in range(12))
    b = b_sequence(ident, c)
    for n in range(12):
        want = sum(comb(n, k) * Fraction(9) ** (n - k) * c[k] for k in range(n + 1)) / 56**n
        assert b[n] == want
    b = b_sequence(ident, c_sequence(ident, 30))
    xi = xi_from_theta(b, 30)
    for n in range(31):
        want = sum(int(stirling(n, j, kind=1, signed=False)) * b[j] for j in range(n + 1))
        assert xi[n] == want / factorial(n)


def test_xi_integrality_guard():
    bad = (Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError, match="integrality"):
        xi_from_theta(bad, 1)
    with pytest.raises(ValueError, match="integrality"):
        xi_from_theta((Fraction(1, 2),), 0)
    with pytest.raises(ValueError, match="cover"):
        xi_from_theta(bad, 5)


@pytest.mark.parametrize("N", [-1, -5])
def test_xi_from_theta_refuses_a_negative_count(N):
    c = c_sequence(identity_for(FamilySpec("fishburn")), 4)
    with pytest.raises(ValueError, match="need a nonnegative count"):
        xi_from_theta(c, N)


MEMBERS = st.one_of(
    st.just(FamilySpec("fishburn")),
    st.integers(1, ANCHOR_E0 + 8).map(lambda t: FamilySpec("torus32t", t=t)),
    st.integers(1, 40).flatmap(
        lambda m: st.integers(0, m - 1).map(lambda ell: FamilySpec("torus2", m=m, ell=ell))),
    st.integers(1, 40).map(lambda k: FamilySpec("habiro-g", k=k)),
)


@settings(max_examples=80, deadline=None)
@given(spec=MEMBERS, n=st.integers(0, 60))
def test_one_pass_xi_matches_the_route_through_b(spec, n):
    ident = identity_for(spec)
    c = c_sequence(ident, n)
    assert xi_from_theta(c, n, ident.a, ident.b) == xi_from_theta(b_sequence(ident, c), n)


def _c_from_xi(xi: list[int], a: int, b: int) -> tuple[Fraction, ...]:
    """The C whose xi at the expansion point (a, b) is xi, by inverting both steps.

    x**j = sum_n (-1)**(j-n) S(j, n) x (x+1) ... (x+n-1), S the Stirling numbers of
    the second kind, gives B_j; C_k = sum_i C(k, i) (-a)**(k-i) b**i B_i inverts
    b**n B_n = sum_k C(n, k) a**(n-k) C_k.
    """
    bs = [sum((-1) ** (j - n) * int(stirling(j, n, kind=2)) * factorial(n) * xi[n]
              for n in range(j + 1)) for j in range(len(xi))]
    return tuple(Fraction(sum(comb(k, i) * (-a) ** (k - i) * b**i * bs[i] for i in range(k + 1)))
                 for k in range(len(xi)))


# Identities with a = 0: no family has one, so these are built to the checks
# StrangeIdentity makes; their own C are not integral.
ZERO_A = (StrangeIdentity(0, 1, 0, periodic((Fraction(-1), Fraction(1)))),
          StrangeIdentity(0, 4, 1, periodic((Fraction(-1), 0, Fraction(1), 0))))


@settings(max_examples=60, deadline=None)
@given(ident=st.sampled_from(ZERO_A),
       xi=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=25))
def test_one_pass_xi_at_a_zero_matches_the_route_through_b(ident, xi):
    n = len(xi) - 1
    c = _c_from_xi(xi, ident.a, ident.b)
    assert xi_from_theta(c, n, ident.a, ident.b).integer_coeffs() == xi
    assert xi_from_theta(b_sequence(ident, c), n).integer_coeffs() == xi
    own = c_sequence(ident, 12)
    for route in (lambda: xi_from_theta(own, 12, ident.a, ident.b),
                  lambda: xi_from_theta(b_sequence(ident, own), 12)):
        with pytest.raises(ValueError, match="integrality"):
            route()


@settings(max_examples=60, deadline=None)
@given(spec=MEMBERS, n=st.integers(0, 60), data=st.data(),
       p=st.sampled_from([1_000_003, 2**61 - 1, 2**127 - 1]))
def test_one_pass_xi_rejects_c_off_by_one_over_a_large_prime(spec, n, data, p):
    ident = identity_for(spec)
    c = list(c_sequence(ident, n))
    k = data.draw(st.integers(0, n))
    c[k] += Fraction(1, p)
    with pytest.raises(ValueError, match="integrality"):
        xi_from_theta(tuple(c), n, ident.a, ident.b)


@settings(max_examples=60, deadline=None)
@given(spec=MEMBERS, n=st.integers(0, 60), data=st.data())
def test_one_pass_xi_rejects_c_off_by_a_power_of_two(spec, n, data):
    # The power of two in L n! b**n is shifted out before the division, so a
    # head that is no multiple of it must be caught by its low bits.
    ident = identity_for(spec)
    c = list(c_sequence(ident, n))
    k = data.draw(st.integers(0, n))
    j = data.draw(st.integers(1, 3 * n + 80))
    c[k] += data.draw(st.sampled_from([1, -1])) * Fraction(1, 2**j)
    with pytest.raises(ValueError, match="integrality"):
        xi_from_theta(tuple(c), n, ident.a, ident.b)


def test_c_sign_stabilization_fishburn():
    # Required sign (-1)**nu * G = +1 here, and the bound module later pins
    # the threshold at 0, so every C value must already be positive.
    c = c_sequence(fishburn_identity(), 12)
    assert all(v > 0 for v in c)


DIGESTS = json.loads((Path(__file__).parent / "data" / "theta_digests.json").read_text())


def _digest(values) -> str:
    return hashlib.sha256("\n".join(str(v) for v in values).encode()).hexdigest()


@pytest.mark.parametrize(
    "member", DIGESTS["members"], ids=lambda m: FamilySpec(m["family"], **m["params"]).label()
)
def test_theta_route_matches_frozen_digests(member):
    n = DIGESTS["N"]
    ident = identity_for(FamilySpec(member["family"], **member["params"]))
    c = c_sequence(ident, n)
    b = b_sequence(ident, c)
    xi = xi_from_theta(b, n)
    assert _digest(c) == member["C"]
    assert _digest(b) == member["B"]
    assert _digest(xi.integer_coeffs()) == member["xi"]
    assert xi_from_theta(c, n, ident.a, ident.b) == xi


def test_deep_c_sequence_matches_frozen_digest():
    deep = DIGESTS["deep_C"]
    ident = identity_for(FamilySpec(deep["family"], **deep["params"]))
    c = c_sequence(ident, deep["N"])
    assert len(c) == deep["N"] + 1
    assert _digest(c) == deep["C"]
