"""Tail-bound constants, check counts, sign tests, and positivity verdicts."""

from collections import Counter
from fractions import Fraction

import pytest

import habiro.exact.zeta as zeta_module
import habiro.signcheck as sc
from habiro.exact import IntervalReal, PrecisionCapError, zeta_interval
from habiro.families import FAMILIES, FamilySpec, expand_family, identity_for
from habiro.signcheck import (
    FamilyCertificate,
    PositivityVerdict,
    bernoulli_sign_test,
    family_n_bound,
    infinite_family_check,
    m_bound,
    n_max,
    verdict_for_identity,
    verify_positivity,
)
from habiro.thetaside import (
    PeriodicFunction,
    StrangeIdentity,
    c_sequence,
    g_value,
    make_chi_k,
    make_chi_m_ell,
    make_chi_t,
)
from tests.bernoulli_ref import bernoulli_at
from tests.n_bound_ref import family_n_bound_ref
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


def test_family_n_bound_matches_reference_tables():
    table = TABLES["n_bound_torus32t"]
    lo, hi = table["t_range"]
    for t, want in zip(range(lo, hi + 1), table["values"]):
        assert family_n_bound(FamilySpec.torus32t(t)) == want
    for m_key, row in TABLES["n_bound_torus2"].items():
        m = int(m_key)
        for ell, want in enumerate(row):
            assert family_n_bound(FamilySpec.torus2(m, ell)) == want


def test_family_n_bound_fixed_cases():
    assert family_n_bound(FamilySpec.fishburn()) == 0
    for k in (1, 7, 50):
        assert family_n_bound(FamilySpec.habiro_g(k)) == 1


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

    The caps run upward and then downward, each from an empty sin memo, so a
    low cap also runs with higher-precision enclosures already memoized.
    """
    capped = 0
    for ordered in (caps, caps[::-1]):
        sc._sin_pi.cache_clear()
        for cap in ordered:
            for spec in specs:
                want = _n_bound_outcome(family_n_bound_ref, spec, cap)
                assert _n_bound_outcome(family_n_bound, spec, cap) == want, (spec, cap)
                capped += isinstance(want, tuple)
    return capped


def test_family_n_bound_matches_unshared_reference_at_every_cap():
    # The shared zeta and sin enclosures are the intervals the reference builds
    # afresh, and the cut points decide as its difference with 1 does, so every
    # check count and every cap failure is the same.
    specs = [FamilySpec.fishburn(),
             *(FamilySpec.torus32t(t) for t in range(1, 41)),
             *(FamilySpec.torus2(m, ell) for m in range(1, 13) for ell in range(m))]
    # the low caps do reach the PrecisionCapError path
    assert _capped_outcomes_in_both_orders(specs, (4, 8, 16, 32, 64, 128, 4096)) > 0
    # verify sweeps reach these members, whose ladders escalate past 64 bits
    specs = [FamilySpec.torus32t(t) for t in (62, 64, 65, 100, 126, 127, 150)]
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
                assert sc._zeta_cuts(2 * n + 2, prec) == sc._cuts(zeta)
                diff = zeta - sin - IntervalReal.from_int(1, prec)
                want = -1 if diff.is_negative() else int(diff.is_positive())
                assert sc._excess_sign((sc._cuts(zeta), sin.ival)) == want, (prec, angle, n)
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
                assert sc._excess_sign((sc._cuts(zeta), s.ival)) == want, (prec, j, k)


def test_family_n_bound_builds_sin_once_per_precision(monkeypatch):
    real_sin = IntervalReal.sin
    real_zeta = sc.zeta_interval
    sin_precs, zeta_precs = [], set()

    def counting_sin(self):
        sin_precs.append(self.prec)
        return real_sin(self)

    def noting_zeta(s, prec):
        zeta_precs.add(prec)
        return real_zeta(s, prec)

    monkeypatch.setattr(IntervalReal, "sin", counting_sin)
    monkeypatch.setattr(sc, "zeta_interval", noting_zeta)
    sc._sin_pi.cache_clear()
    sc._zeta_cuts.cache_clear()
    assert family_n_bound(FamilySpec.torus32t(100)) == 49
    assert len(zeta_precs) > 1  # the loop escalates past the start precision
    assert sorted(sin_precs) == sorted(zeta_precs)
    # The memo is per (theta, precision), so a member bounded again, or another
    # member with the same reduced theta (3/9 = 1/3), builds no sin at all.
    sin_precs.clear()
    assert family_n_bound(FamilySpec.torus32t(100)) == 49
    assert sin_precs == []
    family_n_bound(FamilySpec.torus2(1, 0))
    assert sin_precs  # theta = 1/3 is new to the memo
    sin_precs.clear()
    family_n_bound(FamilySpec.torus2(4, 2))
    assert sin_precs == []


def test_cut_point_memo_is_bounded():
    assert sc._zeta_cuts.cache_info().maxsize is not None


def test_check_count_requests_every_zeta_enclosure(monkeypatch):
    # The cut points are memoized per (s, prec), so a cold walk asks
    # zeta_interval once per step and precision, 71 times, and a warm one never.
    real_zeta = sc.zeta_interval
    requests = []

    def noting_zeta(s, prec):
        requests.append((s, prec))
        return real_zeta(s, prec)

    monkeypatch.setattr(sc, "zeta_interval", noting_zeta)
    sc._zeta_cuts.cache_clear()
    for asked in (71, 0):
        requests.clear()
        assert family_n_bound(FamilySpec.torus32t(100)) == 49
        assert len(requests) == asked


def test_wide_sweep_members_find_every_enclosure_memoized():
    # torus32t(600) walks 1,035 (n, prec) keys, more than a 1,024-entry memo
    # holds.  The next member of its sweep walks the same keys from n = 0, so
    # it finds every cut pair built, or rebuilds them all.
    sc._zeta_cuts.cache_clear()
    assert family_n_bound(FamilySpec.torus32t(600)) == 299
    built = sc._zeta_cuts.cache_info().misses
    assert built > 1024
    assert family_n_bound(FamilySpec.torus32t(601)) == 299
    assert sc._zeta_cuts.cache_info().misses == built


def test_zeta_body_runs_once_per_distinct_argument_pair(monkeypatch):
    real_even = zeta_module.zeta_even
    real_cuts = sc._zeta_cuts
    body_args, requested = Counter(), Counter()

    def counting_even(k):
        body_args[k] += 1
        return real_even(k)

    def noting_cuts(s, prec):
        requested[s, prec] += 1
        return real_cuts(s, prec)

    monkeypatch.setattr(zeta_module, "zeta_even", counting_even)
    monkeypatch.setattr(sc, "_zeta_cuts", noting_cuts)
    real_cuts.cache_clear()
    for t in (100, 101):  # two members of one verify window
        family_n_bound(FamilySpec.torus32t(t))
    assert sum(requested.values()) > len(requested)  # the members share arguments
    assert body_args == Counter(s for s, _ in requested)


# -- exact sign tests --------------------------------------------------------


def test_sign_test_doubled_torus_t3():
    # B_2(13/48) > B_2(19/48), so the n = 0 quantity is positive
    ident = identity_for(FamilySpec.torus32t(3))
    assert bernoulli_sign_test(ident, 0) == 1
    gap = bernoulli_at(2, Fraction(13, 48)) - bernoulli_at(2, Fraction(19, 48))
    assert gap > 0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_sign_test_odd_weight_first_moment(k):
    ident = identity_for(FamilySpec.habiro_g(k))
    inner = sum(
        v * bernoulli_at(1, Fraction(m, ident.f.period)) for m, v in ident.f.entries
    )
    assert inner == -1
    assert bernoulli_sign_test(ident, 0) == 1


def test_sign_test_rejects_negative_index():
    with pytest.raises(ValueError, match="nonnegative"):
        bernoulli_sign_test(identity_for(FamilySpec.fishburn()), -1)


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec.fishburn(),
        FamilySpec.torus32t(2),
        FamilySpec.torus2(2, 1),
        FamilySpec.habiro_g(2),
        FamilySpec.torus32t(60),
    ],
    ids=lambda s: s.label(),
)
def test_sign_test_agrees_with_l_value_signs(spec):
    # same quantity up to the positive factor M**(2n+nu) / (2n+nu+1)
    ident = identity_for(spec)
    c = c_sequence(ident, 20)
    for n in range(21):
        want = 1 if c[n] > 0 else -1 if c[n] < 0 else 0
        assert bernoulli_sign_test(ident, n) == want


# -- verdicts ----------------------------------------------------------------


def test_verdict_shapes():
    v = verify_positivity(FamilySpec.torus32t(3))
    assert isinstance(v, PositivityVerdict)
    assert v.n_used == 1
    assert v.signs == (1,)
    assert v.verdict == "proved-positive"


def test_verdict_with_no_checks_needed():
    v = verify_positivity(FamilySpec.fishburn())
    assert v.n_used == 0 and v.signs == () and v.verdict == "proved-positive"


def test_identity_is_built_only_when_a_sign_test_runs(monkeypatch):
    built = []

    def noting_identity(spec):
        built.append(spec)
        return identity_for(spec)

    monkeypatch.setattr(sc, "identity_for", noting_identity)
    for spec in (FamilySpec.fishburn(), FamilySpec.torus2(1, 0), FamilySpec.torus32t(2)):
        v = verify_positivity(spec)
        assert v.n_used == 0 and v.verdict == "proved-positive"
    assert built == []
    v = verify_positivity(FamilySpec.torus32t(3))
    assert v.n_used == 1 and v.signs == (1,)
    assert built == [FamilySpec.torus32t(3)]


def test_members_share_their_check_records():
    # Members of a sweep pass the same leading tests alike.
    a, b = (verify_positivity(FamilySpec.torus32t(t)) for t in (40, 42))
    assert a.signs == (1,) * a.n_used
    assert b.signs[:a.n_used] == a.signs and b.n_used > a.n_used


def test_verdict_sweeps():
    for t in range(1, 13):
        assert verify_positivity(FamilySpec.torus32t(t)).verdict == "proved-positive"
    for m in range(1, 7):
        for ell in range(m):
            assert verify_positivity(FamilySpec.torus2(m, ell)).verdict == "proved-positive"
    for k in range(1, 7):
        assert verify_positivity(FamilySpec.habiro_g(k)).verdict == "proved-positive"


def test_verdict_soundness_against_expansions():
    for spec in (FamilySpec.torus32t(2), FamilySpec.torus2(2, 0), FamilySpec.habiro_g(2)):
        assert verify_positivity(spec).verdict == "proved-positive"
        assert all(c > 0 for c in expand_family(spec, 40).integer_coeffs())


def test_condition_failed_for_flipped_weight():
    base = identity_for(FamilySpec.habiro_g(1))
    flipped = StrangeIdentity(
        base.a, base.b, base.nu,
        PeriodicFunction(base.f.period, tuple((r, -v) for r, v in base.f.entries)),
    )
    v = verdict_for_identity(flipped, 1)
    assert v.verdict == "condition-failed"
    assert v.signs == (-1,)


def test_zero_sign_test_counts_as_nonnegative():
    # mean zero and vanishing first moment make the n = 0 quantity exactly zero
    zero_ident = StrangeIdentity(0, 1, 0, periodic((0, 1, -2, 1)))
    assert bernoulli_sign_test(zero_ident, 0) == 0
    lax = verdict_for_identity(zero_ident, 1)
    assert lax.signs == (0,) and lax.verdict == "proved-positive"
    assert "zero" in lax.note


def test_precision_cap_becomes_undecided_verdict(monkeypatch):
    def boom(spec, cap):
        raise PrecisionCapError("sign of check-count bound undecided", cap)

    monkeypatch.setattr(sc, "family_n_bound", boom)
    v = sc.verify_positivity(FamilySpec.torus32t(2))
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
    for m, ell in infinite_family_check(1, -1, 2).members(5):
        spec = FamilySpec.torus2(m, ell)
        assert verify_positivity(spec).verdict == "proved-positive"
