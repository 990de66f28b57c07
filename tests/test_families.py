"""Family expansions: nested-sum routes, reductions, invariants, disk cache."""

import hashlib
import json
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from laurent import add, mul, poly, qbinomial, shift, subst_one_minus

import habiro.families as families
from habiro.families import (
    FamilySpec,
    cached_expansion,
    expand_family,
    expand_fishburn,
    expand_habiro_g,
    expand_habiro_g_qseries,
    expand_torus2,
    expand_torus32t,
    identity_for,
    theta_q_expansion,
)
from habiro.qseries import binomial_transform, transform_g, transform_h
from habiro.thetaside import b_sequence, c_sequence, make_chi_t, xi_from_theta

TABLES = json.loads(
    (Path(__file__).parent / "data" / "reference_tables.json").read_text()
)


# -- parameter handling ------------------------------------------------------


def test_spec_constructors_and_labels():
    assert FamilySpec("fishburn").label() == "fishburn"
    assert FamilySpec("torus32t", t=3).label() == "torus32t(t=3)"
    assert FamilySpec("torus2", m=5, ell=2).label() == "torus2(m=5, ell=2)"
    assert FamilySpec("habiro-g", k=4).label() == "habiro-g(k=4)"
    assert FamilySpec("torus2", m=5, ell=2).cache_key() == "torus2-m5-ell2"
    assert FamilySpec("fishburn").cache_key() == "fishburn"
    assert FamilySpec("habiro-g", k=4).params() == {"k": 4}


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError, match="unknown family kind"):
        FamilySpec("torus")
    with pytest.raises(ValueError, match="needs parameter t"):
        FamilySpec("torus32t")
    with pytest.raises(ValueError, match="does not take parameter k"):
        FamilySpec("fishburn", k=1)
    with pytest.raises(ValueError, match="t must be at least 1"):
        FamilySpec("torus32t", t=0)
    with pytest.raises(ValueError, match=r"ell must lie in \[0, 4\]"):
        FamilySpec("torus2", m=5, ell=5)
    with pytest.raises(ValueError, match=r"ell must lie in \[0, 0\]"):
        FamilySpec("torus2", m=1, ell=-1)
    with pytest.raises(ValueError, match="k must be at least 1"):
        FamilySpec("habiro-g", k=0)


@pytest.mark.parametrize("kind,params,message", [
    ("torus", {}, "unknown family kind: 'torus'"),
    ("torus", {"t": 0}, "unknown family kind: 'torus'"),
    ("torus32t", {}, "family torus32t needs parameter t"),
    ("torus32t", {"t": 0, "k": 1}, "family torus32t does not take parameter k"),
    ("fishburn", {"k": 1}, "family fishburn does not take parameter k"),
    ("fishburn", {"ell": 0, "t": 1}, "family fishburn does not take parameter t"),
    ("torus2", {"ell": 0}, "family torus2 needs parameter m"),
    ("torus2", {"m": 2}, "family torus2 needs parameter ell"),
    ("torus2", {"t": 1}, "family torus2 does not take parameter t"),
    ("torus2", {"m": 2, "ell": 0, "k": 1}, "family torus2 does not take parameter k"),
    ("habiro-g", {"m": 1}, "family habiro-g does not take parameter m"),
    ("habiro-g", {"k": None}, "family habiro-g needs parameter k"),
    ("torus32t", {"t": 0}, "t must be at least 1"),
    ("torus2", {"m": 0, "ell": 5}, "m must be at least 1"),
    ("torus2", {"m": 5, "ell": 5}, "ell must lie in [0, 4]"),
    ("torus2", {"m": 1, "ell": -1}, "ell must lie in [0, 0]"),
    ("habiro-g", {"k": -2}, "k must be at least 1"),
])
def test_spec_error_messages_and_their_order(kind, params, message):
    with pytest.raises(ValueError) as err:
        FamilySpec(kind, **params)
    assert str(err.value) == message


def _first_spec_error(kind: str, values: dict) -> str | None:
    """The message of the first check a spec fails, each parameter field in turn."""
    if kind not in families.FAMILIES:
        return f"unknown family kind: {kind!r}"
    want = families.FAMILIES[kind].params
    for name in ("t", "m", "ell", "k"):
        if name in want and values[name] is None:
            return f"family {kind} needs parameter {name}"
        if name not in want and values[name] is not None:
            return f"family {kind} does not take parameter {name}"
    for name in want:
        if name == "ell" and not 0 <= values["ell"] <= values["m"] - 1:
            return f"ell must lie in [0, {values['m'] - 1}]"
        if name != "ell" and values[name] < 1:
            return f"{name} must be at least 1"
    return None


def test_spec_reports_the_first_failed_check_for_every_pattern():
    for kind in (*families.FAMILIES, "torus"):
        for combo in product((None, -1, 0, 1, 2), repeat=4):
            values = dict(zip(("t", "m", "ell", "k"), combo))
            want = _first_spec_error(kind, values)
            try:
                spec = FamilySpec(kind, **values)
            except ValueError as err:
                assert str(err) == want, (kind, values)
            else:
                assert want is None, (kind, values)
                assert spec.args == tuple(values[n] for n in families.FAMILIES[kind].params)


def test_expand_rejects_bad_parameters():
    with pytest.raises(ValueError, match=r"ell must lie in \[0, 1\]"):
        expand_torus2(2, 2, 5)
    with pytest.raises(ValueError, match="t must be at least 1"):
        expand_torus32t(0, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        expand_fishburn(-1)


def test_identity_table():
    fish = identity_for(FamilySpec("fishburn"))
    assert (fish.a, fish.b, fish.nu) == (1, 24, 1)
    assert fish.f == make_chi_t(1)
    assert identity_for(FamilySpec("torus32t", t=1)) == fish
    assert identity_for(FamilySpec("torus2", m=1, ell=0)) == fish
    t3 = identity_for(FamilySpec("torus32t", t=3))
    assert (t3.a, t3.b, t3.nu) == (169, 96, 1)
    x52 = identity_for(FamilySpec("torus2", m=5, ell=2))
    assert (x52.a, x52.b, x52.nu) == (25, 88, 1)
    g4 = identity_for(FamilySpec("habiro-g", k=4))
    assert (g4.a, g4.b, g4.nu) == (16, 9, 0)


@pytest.mark.parametrize(
    "spec",
    [FamilySpec("torus32t", t=t) for t in range(1, 7)]
    + [FamilySpec("torus2", m=m, ell=ell) for m in range(1, 6) for ell in range(m)]
    + [FamilySpec("habiro-g", k=k) for k in range(1, 7)],
)
def test_identity_constructs_for_parameter_sweep(spec):
    # StrangeIdentity validates integrality and sign of every exponent.
    identity_for(spec)


# -- direct expansions -------------------------------------------------------


def test_fishburn_matches_pochhammer_sum():
    N = 12
    total, poch = {}, poly(1)
    for n in range(N + 1):
        if n:
            poch = mul(poch, poly(1, *[0] * (n - 1), -1))
        total = add(total, poch)
    assert expand_fishburn(N).integer_coeffs() == subst_one_minus(total, N)
    assert expand_fishburn(5).integer_coeffs() == [1, 1, 2, 5, 15, 53]


def _torus32t_literal(t, N):
    """Depth-first multi-index enumeration, kept as a reference for the fast path."""
    m = 2 ** (t - 1)
    if t % 2 == 0:
        hpp, hp, a = (2**t - 1) // 3, (2**t - 4) // 3, (2 ** (t - 1) + 1) // 3
    else:
        hpp, hp, a = (2**t - 2) // 3, (2**t - 5) // 3, (2**t + 1) // 3
    total, poch = {}, poly(1)
    for n in range(N + 1):
        if n:
            poch = mul(poch, poly(1, *[0] * (n - 1), -1))
        for js in product(range(n + 2), repeat=m - 1):
            weighted = sum(l * j for l, j in zip(range(1, m), js))
            if (3 * weighted) % m != 1:
                continue
            num = weighted - a
            assert num % m == 0, "congruence filter violated"
            e = num // m + sum(comb(j, 2) for j in js)
            inner = {}
            for kk in range(m):
                prod = poly(1)
                for l in range(1, m):
                    prod = mul(prod, qbinomial(n + (1 if l <= kk else 0), js[l - 1]))
                inner = add(inner, prod)
            term = shift(mul(poch, inner), e)
            sign = -1 if sum(js) % 2 else 1
            total = add(total, term if sign == 1 else mul(term, poly(-1)))
    out = subst_one_minus(shift(total, -hp), N)
    return [-c for c in out] if hpp % 2 else out


# N = 0 is the Horner sum's base alone and N = 1 its first step and the first
# trims of the class windows; the literal reference takes 1 s at (4, 2).
@pytest.mark.parametrize("t,N", [(2, 0), (2, 1), (2, 6), (3, 0), (3, 1), (3, 4), (4, 0), (4, 1)])
def test_torus32t_fast_path_matches_literal_enumeration(t, N):
    assert expand_torus32t(t, N).integer_coeffs() == _torus32t_literal(t, N)


def test_torus32t_pinned_prefixes():
    assert expand_torus32t(2, 6).integer_coeffs() == [1, 3, 11, 50, 280, 1890, 15008]
    assert expand_torus32t(3, 4).integer_coeffs() == [1, 7, 49, 420, 4515]


TORUS32T_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "torus32t_digests.json").read_text()
)


@pytest.mark.parametrize(
    "member", TORUS32T_DIGESTS["members"], ids=lambda m: f"t{m['t']}-N{m['N']}"
)
def test_torus32t_matches_frozen_digests(member):
    coeffs = expand_torus32t(member["t"], member["N"]).integer_coeffs()
    assert len(coeffs) == member["N"] + 1
    digest = hashlib.sha256("\n".join(str(c) for c in coeffs).encode()).hexdigest()
    assert digest == member["digest"]


def test_torus32t_over_budget_raises_before_expanding(monkeypatch):
    def forbidden(*args):
        raise AssertionError("expansion started")

    for name in ("mul_trunc_int", "_q_power", "_times_q_power", "_times_q_power_classes", "comb"):
        monkeypatch.setattr(families, name, forbidden)
    for t, N in [(20, 10), (13, 0), (2, 1000), (10**6, 0)]:
        with pytest.raises(ValueError, match=f"t={t}, N={N} exceeds its cost budget"):
            expand_torus32t(t, N)


def _window(p, order):
    return (p + [0] * (order + 1))[:order + 1]


@settings(max_examples=150, deadline=None)
@given(
    e=st.integers(0, 40),
    order=st.integers(0, 16),
    zeros=st.integers(0, 20),
    tail=st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=24),
)
@example(e=0, order=3, zeros=0, tail=[1, 2, 3, 4])
@example(e=0, order=0, zeros=0, tail=[7, 8, 9])
@example(e=5, order=0, zeros=0, tail=[7, 8, 9])
@example(e=4, order=4, zeros=2, tail=[3, -1])
@example(e=5, order=4, zeros=2, tail=[3, -1])
@example(e=3, order=6, zeros=9, tail=[1])
def test_times_q_power_matches_the_dense_product(e, order, zeros, tail):
    # e = 0, e on both sides of the crossover (e <= order), leading zeros,
    # order 0, and p longer than order + 1
    p = [0] * zeros + tail
    before = list(p)
    got = families._times_q_power(e, p, order)
    assert got == families.mul_trunc_int(families._q_power(e, order), p, order)
    assert families._times_q_monomial(e, p, order) == _window([0] * e + p, order)
    assert p == before


@settings(max_examples=100, deadline=None)
@given(
    e=st.integers(0, 12),
    width=st.integers(2, 9),
    windows=st.lists(st.lists(st.integers(-(10**20), 10**20), min_size=9, max_size=9),
                     min_size=1, max_size=5),
)
def test_times_q_power_classes_matches_each_window(e, width, windows):
    order = width - 2
    w = [x for p in windows for x in [0] + p[:width - 1]]
    got = families._times_q_power_classes(w, e, width)
    want = [x for p in windows
            for x in [0] + families.mul_trunc_int(families._q_power(e, order), p, order)]
    assert got == want


def test_torus2_pinned_prefixes():
    assert expand_torus2(2, 0, 7).integer_coeffs() == [1, 2, 6, 23, 109, 621, 4149, 31851]
    assert expand_torus2(2, 1, 7).integer_coeffs() == [2, 3, 9, 35, 168, 966, 6496, 50103]


@pytest.mark.parametrize("m", range(1, 5))
def test_torus2_constant_terms(m):
    for ell in range(m):
        assert expand_torus2(m, ell, 0).integer_coeffs() == [ell + 1]
    assert expand_torus2(5, 2, 0).integer_coeffs() == [3]


def test_habiro_g_pinned_prefixes():
    assert expand_habiro_g(1, 8).integer_coeffs() == [1, 1, 2, 6, 25, 135, 896, 7048, 64064]
    assert expand_habiro_g(2, 8).integer_coeffs() == [1, 2, 6, 28, 189, 1680, 18452, 240744, 3634317]
    assert expand_habiro_g(3, 4).integer_coeffs() == [1, 3, 12, 76, 710]


def test_reductions_to_fishburn():
    assert expand_torus32t(1, 12) == expand_fishburn(12)
    assert expand_torus2(1, 0, 12) == expand_fishburn(12)


# -- published tables --------------------------------------------------------


@pytest.mark.parametrize("t", range(1, 6))
def test_torus32t_reference_rows(t):
    grow = TABLES["torus32t_g"][str(t)]
    hrow = TABLES["torus32t_h"][str(t)]
    xi = expand_torus32t(t, max(len(grow), len(hrow)) - 1)
    assert transform_g(xi).integer_coeffs()[: len(grow)] == grow
    assert transform_h(xi).integer_coeffs()[: len(hrow)] == hrow


@pytest.mark.parametrize("ell", range(5))
def test_torus2_reference_rows(ell):
    grow = TABLES["torus2_m5_g"][str(ell)]
    hrow = TABLES["torus2_m5_h"][str(ell)]
    xi = expand_torus2(5, ell, max(len(grow), len(hrow)) - 1)
    assert transform_g(xi).integer_coeffs()[: len(grow)] == grow
    assert transform_h(xi).integer_coeffs()[: len(hrow)] == hrow


@pytest.mark.parametrize("k", range(1, 6))
def test_habiro_g_reference_rows(k):
    # The published one-over-one-plus-q rows for this family follow the
    # unsigned binomial convention.
    brow = TABLES["habiro_g_binomial"][str(k)]
    hrow = TABLES["habiro_g_h"][str(k)]
    xi = expand_habiro_g(k, max(len(brow), len(hrow)) - 1)
    assert binomial_transform(xi).integer_coeffs()[: len(brow)] == brow
    assert transform_h(xi).integer_coeffs()[: len(hrow)] == hrow


# -- dual routes -------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("fishburn"),
        FamilySpec("torus32t", t=2),
        FamilySpec("torus32t", t=3),
        FamilySpec("torus2", m=2, ell=0),
        FamilySpec("torus2", m=2, ell=1),
        FamilySpec("torus2", m=3, ell=2),
        FamilySpec("habiro-g", k=1),
        FamilySpec("habiro-g", k=2),
        FamilySpec("habiro-g", k=3),
    ],
    ids=lambda s: s.label(),
)
def test_direct_route_matches_theta_route(spec):
    N = 12
    ident = identity_for(spec)
    via_theta = xi_from_theta(b_sequence(ident, c_sequence(ident, N)), N)
    assert expand_family(spec, N) == via_theta


@pytest.mark.parametrize("k", range(1, 6))
def test_habiro_g_q_expansion_matches_partial_theta(k):
    ident = identity_for(FamilySpec("habiro-g", k=k))
    assert expand_habiro_g_qseries(k, 60) == theta_q_expansion(ident, 60)


def test_theta_q_expansion_exponents_for_smallest_odd_weight():
    # Support residues 1, 2, 4, 5 mod 6 give exponents (n*n-1)/3 = 0, 1, 5, 8, 16, ...
    th = theta_q_expansion(identity_for(FamilySpec("habiro-g", k=1)), 16)
    assert list(th) == [1, 1] + [0] * 3 + [-1, 0, 0, -1] + [0] * 7 + [1]


# -- invariants --------------------------------------------------------------

SWEEP = [
    FamilySpec("fishburn"),
    FamilySpec("torus32t", t=2),
    FamilySpec("torus32t", t=3),
    FamilySpec("torus2", m=2, ell=1),
    FamilySpec("torus2", m=3, ell=0),
    FamilySpec("torus2", m=3, ell=1),
    FamilySpec("habiro-g", k=2),
    FamilySpec("habiro-g", k=3),
]


@pytest.mark.parametrize("spec", SWEEP, ids=lambda s: s.label())
def test_coefficients_stabilize_as_order_grows(spec):
    short = expand_family(spec, 18).integer_coeffs()
    long = expand_family(spec, 30).integer_coeffs()
    assert long[:19] == short


@pytest.mark.parametrize("spec", SWEEP, ids=lambda s: s.label())
def test_expansion_and_transforms_stay_positive(spec):
    xi = expand_family(spec, 40)
    assert all(c > 0 for c in xi.integer_coeffs())
    assert all(c > 0 for c in transform_g(xi).integer_coeffs())
    assert all(c > 0 for c in binomial_transform(xi).integer_coeffs())
    assert all(c > 0 for c in transform_h(xi).integer_coeffs())


# -- disk cache --------------------------------------------------------------


def test_cache_round_trip_and_format(tmp_path):
    spec = FamilySpec("torus32t", t=2)
    got = cached_expansion(spec, 6, tmp_path)
    assert got == expand_torus32t(2, 6)
    data = json.loads((tmp_path / "torus32t-t2.json").read_text())
    assert data["format"] == families.CACHE_FORMAT
    assert data["family"] == "torus32t"
    assert data["params"] == {"t": 2}
    assert data["N"] == 6
    assert data["coefficients"] == [str(c) for c in got.integer_coeffs()]


def test_cache_hit_skips_recomputation(tmp_path, monkeypatch):
    spec = FamilySpec("habiro-g", k=2)
    full = cached_expansion(spec, 8, tmp_path)

    def boom(*args):
        raise AssertionError("cache should have been used")

    monkeypatch.setattr(families, "expand_family", boom)
    assert cached_expansion(spec, 8, tmp_path) == full
    sliced = cached_expansion(spec, 5, tmp_path)
    assert sliced == full[:6]


def test_cache_extends_and_rewrites(tmp_path):
    spec = FamilySpec("fishburn")
    cached_expansion(spec, 4, tmp_path)
    got = cached_expansion(spec, 9, tmp_path)
    assert got == expand_fishburn(9)
    assert json.loads((tmp_path / "fishburn.json").read_text())["N"] == 9


def test_cache_detects_tampered_coefficients(tmp_path):
    spec = FamilySpec("fishburn")
    cached_expansion(spec, 4, tmp_path)
    path = tmp_path / "fishburn.json"
    data = json.loads(path.read_text())
    data["coefficients"][2] = "999"
    path.write_text(json.dumps(data))
    with pytest.raises(RuntimeError, match="disagrees"):
        cached_expansion(spec, 8, tmp_path)


def test_cache_heals_unreadable_or_stale_files(tmp_path):
    spec = FamilySpec("torus2", m=2, ell=0)
    path = tmp_path / "torus2-m2-ell0.json"
    path.write_text("not json")
    assert cached_expansion(spec, 5, tmp_path) == expand_torus2(2, 0, 5)
    assert json.loads(path.read_text())["N"] == 5
    # A file recorded for different parameters under this name is stale data.
    wrong = {"family": "torus2", "params": {"m": 9, "ell": 0}, "N": 1,
             "coefficients": ["7", "7"]}
    path.write_text(json.dumps(wrong))
    assert cached_expansion(spec, 3, tmp_path) == expand_torus2(2, 0, 3)
    assert json.loads(path.read_text())["params"] == {"m": 2, "ell": 0}


def test_cache_rows_of_another_format_are_recomputed(tmp_path):
    spec = FamilySpec("fishburn")
    path = tmp_path / "fishburn.json"
    for version in ({}, {"format": families.CACHE_FORMAT + 1}):
        # Disagreeing coefficients count as absent, not as a disagreement.
        path.write_text(json.dumps({**version, "family": "fishburn", "params": {},
                                    "N": 9, "coefficients": ["7"] * 10}))
        assert cached_expansion(spec, 6, tmp_path) == expand_fishburn(6)
        data = json.loads(path.read_text())
        assert data["format"] == families.CACHE_FORMAT and data["N"] == 6
