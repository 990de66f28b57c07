"""Acceptance gate: every shipped guarantee as one timed check per test."""

import json
import time
from fractions import Fraction
from pathlib import Path

from habiro.asym import profile_for_family, ratio_diagnostics
from habiro.exact import root_sum_is_zero
from habiro.exact.intervals import IntervalReal
from habiro.families import (
    FamilySpec,
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
from habiro.signcheck import family_n_bound, infinite_family_check, n_max, verify_positivity
from habiro.thetaside import (
    _g_terms,
    b_sequence,
    c_sequence,
    g_value,
    make_chi_k,
    make_chi_m_ell,
    make_chi_t,
    xi_from_theta,
)

TABLES = json.loads(
    (Path(__file__).parent / "data" / "reference_tables.json").read_text()
)


def report(number: int, message: str) -> None:
    print(f"criterion {number} pass: {message}")


def test_criterion_1_fishburn_rows():
    start = time.perf_counter()
    xi = expand_fishburn(10)
    assert xi.integer_coeffs()[:6] == [1, 1, 2, 5, 15, 53]
    assert transform_g(xi).integer_coeffs()[:9] == [1, 1, 1, 2, 5, 16, 61, 271, 1372]
    assert transform_h(xi).integer_coeffs()[:9] == [
        1, 2, 6, 26, 142, 946, 7446, 67658, 697118,
    ]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"fishburn xi/g/h rows exact in {elapsed:.2f}s")


def test_criterion_2_published_tables():
    start = time.perf_counter()
    rows = 0
    for t in range(1, 6):
        grow = TABLES["torus32t_g"][str(t)]
        hrow = TABLES["torus32t_h"][str(t)]
        xi = expand_torus32t(t, max(len(grow), len(hrow)) - 1)
        assert transform_g(xi).integer_coeffs()[: len(grow)] == grow
        assert transform_h(xi).integer_coeffs()[: len(hrow)] == hrow
        rows += 2
    for ell in range(5):
        grow = TABLES["torus2_m5_g"][str(ell)]
        hrow = TABLES["torus2_m5_h"][str(ell)]
        xi = expand_torus2(5, ell, max(len(grow), len(hrow)) - 1)
        assert transform_g(xi).integer_coeffs()[: len(grow)] == grow
        assert transform_h(xi).integer_coeffs()[: len(hrow)] == hrow
        rows += 2
    for k in range(1, 6):
        brow = TABLES["habiro_g_binomial"][str(k)]
        hrow = TABLES["habiro_g_h"][str(k)]
        xi = expand_habiro_g(k, max(len(brow), len(hrow)) - 1)
        assert binomial_transform(xi).integer_coeffs()[: len(brow)] == brow
        assert transform_h(xi).integer_coeffs()[: len(hrow)] == hrow
        rows += 2
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(2, f"{rows} published coefficient rows bit-exact in {elapsed:.2f}s")


def test_criterion_3_dual_routes():
    start = time.perf_counter()
    specs = [FamilySpec.torus32t(t) for t in (1, 2, 3)]
    specs += [FamilySpec.torus2(m, ell) for m in (1, 2, 3) for ell in range(m)]
    specs += [FamilySpec.habiro_g(k) for k in (1, 2, 3)]
    for spec in specs:
        ident = identity_for(spec)
        theta = xi_from_theta(b_sequence(ident, c_sequence(ident, 20)), 20)
        assert expand_family(spec, 20).integer_coeffs() == theta.integer_coeffs()
    elapsed = time.perf_counter() - start
    report(3, f"direct and theta routes agree through n=20 for {len(specs)} families in {elapsed:.2f}s")


def test_criterion_3_dual_routes_at_n60():
    start = time.perf_counter()
    specs = [FamilySpec.torus2(m, ell) for m in (2, 3) for ell in range(m)]
    specs += [FamilySpec.habiro_g(k) for k in (2, 3)]
    specs += [FamilySpec.torus32t(t) for t in (2, 3, 4)]
    for spec in specs:
        ident = identity_for(spec)
        theta = xi_from_theta(b_sequence(ident, c_sequence(ident, 60)), 60)
        assert expand_family(spec, 60).integer_coeffs() == theta.integer_coeffs()
    elapsed = time.perf_counter() - start
    report(3, f"direct and theta routes agree through n=60 for {len(specs)} families in {elapsed:.2f}s")


def test_criterion_4_bernoulli_spot_values():
    ident = identity_for(FamilySpec.fishburn())
    c = c_sequence(ident, 2)
    assert c == (Fraction(1), Fraction(23), Fraction(1681))
    report(4, "fishburn C-sequence spot values 1, 23, 1681 exact")


def test_criterion_5_bound_tables_and_sweeps():
    start = time.perf_counter()
    t_lo, t_hi = TABLES["n_bound_torus32t"]["t_range"]
    for t, want in zip(range(t_lo, t_hi + 1), TABLES["n_bound_torus32t"]["values"]):
        assert family_n_bound(FamilySpec.torus32t(t)) == want
    for m in range(1, 6):
        row = TABLES["n_bound_torus2"][str(m)]
        for ell, want in enumerate(row):
            assert family_n_bound(FamilySpec.torus2(m, ell)) == want
    specs = [FamilySpec.torus32t(t) for t in range(1, 51)]
    specs += [FamilySpec.torus2(m, ell) for m in range(1, 21) for ell in range(m)]
    specs += [FamilySpec.habiro_g(k) for k in range(1, 51)]
    for spec in specs:
        assert verify_positivity(spec).verdict == "proved-positive"
        # the family's sharpened check count never exceeds the general bound
        ident = identity_for(spec)
        assert family_n_bound(spec) <= n_max(ident.f, ident.nu)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(5, f"bound tables exact, {len(specs)} positivity verdicts proved and "
              f"within the general bound in {elapsed:.2f}s")


def test_criterion_6_nested_vs_theta_expansion():
    start = time.perf_counter()
    for k in (1, 2, 3):
        ident = identity_for(FamilySpec.habiro_g(k))
        assert expand_habiro_g_qseries(k, 200) == theta_q_expansion(ident, 200)
    elapsed = time.perf_counter() - start
    report(6, f"nested q-expansion equals partial-theta expansion through q^200 in {elapsed:.2f}s")


def test_criterion_7_fourier_closed_forms():
    prec = 192
    tol = Fraction(1, 10**30)
    pi = IntervalReal.pi(prec)
    checked = 0
    for t in range(1, 11):
        f = make_chi_t(t)
        scale = 2 / IntervalReal.from_int(f.period, prec).sqrt()
        want = -(IntervalReal.from_int(3, prec).sqrt() * (pi * Fraction(1, 2**t)).sin()) * scale
        diff = g_value(f, 1, 1, prec) - want
        assert diff.contains_zero() and diff.width_fraction() < tol
        checked += 1
    for m in range(1, 11):
        for ell in range(m):
            f = make_chi_m_ell(m, ell)
            scale = 2 / IntervalReal.from_int(f.period, prec).sqrt()
            want = -((pi * Fraction(ell + 1, 2 * m + 1)).sin()) * 2 * scale
            diff = g_value(f, 1, 1, prec) - want
            assert diff.contains_zero() and diff.width_fraction() < tol
            checked += 1
    zeros = 0
    for k in (1, 2, 3):
        f = make_chi_k(k)
        for freq in (0, 2, 4, 6, 8):
            assert root_sum_is_zero(*_g_terms(f, 0, freq))
            zeros += 1
    report(7, f"{checked} Fourier closed forms within 1e-30 and {zeros} exact even-frequency zeros")


def test_criterion_8_asymptotic_convergence():
    start = time.perf_counter()
    fish = expand_fishburn(150)
    profile = profile_for_family(FamilySpec.fishburn())
    plain = ratio_diagnostics(fish, profile, [64, 100, 128, 150])
    err = {r.n: abs(r.ratio.mid_float() - 1) for r in plain}
    assert err[150] < 0.03
    assert err[128] < 0.7 * err[64]
    corrected = ratio_diagnostics(fish, profile, [100], correction=True)[0]
    gain = err[100] / abs(corrected.ratio.mid_float() - 1)
    assert gain >= 3.0
    for spec in (FamilySpec.torus32t(2), FamilySpec.torus2(2, 1), FamilySpec.habiro_g(1)):
        ident = identity_for(spec)
        xi = xi_from_theta(b_sequence(ident, c_sequence(ident, 128)), 128)
        rows = ratio_diagnostics(xi, profile_for_family(spec), [64, 128])
        e64, e128 = (abs(r.ratio.mid_float() - 1) for r in rows)
        assert e128 < e64
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(8, f"ratio errors shrink as required (correction gain {gain:.1f}x) in {elapsed:.2f}s")


def test_criterion_9_family_certificates():
    full = infinite_family_check(1, -1, 1)
    assert full.certified
    assert full.members(4) == [(1, 0), (2, 1), (3, 2), (4, 3)]
    half = infinite_family_check(1, -1, 2)
    assert half.certified
    assert half.members(4) == [(1, 0), (3, 1), (5, 2), (7, 3)]
    steep = infinite_family_check(1, 0, 4)
    assert not steep.certified
    assert "slope lies outside" in steep.reason
    report(9, "slope-1 and slope-1/2 families certified, slope 1/4 rejected")
