"""Cyclotomic field elements and the exact vanishing test."""

import sympy
from mpmath import mp

from habiro.exact import CyclotomicNumber, cyclotomic_poly, totient
from habiro.exact.cyclotomic import factorize


def test_factorize_and_totient():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    for n in range(1, 200):
        assert totient(n) == int(sympy.totient(n))


def test_cyclotomic_poly_against_sympy():
    x = sympy.Symbol("x")
    for n in list(range(1, 40)) + [48, 49, 60, 104, 105, 128]:
        ours = cyclotomic_poly(n)
        ref = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        dense = [0] * (totient(n) + 1)
        for e, c in ours.items():
            dense[e] = c
        assert dense == [int(c) for c in ref]


def test_cyclotomic_poly_three_times_power_of_two():
    # Conductors 3*2**k reduce to a trinomial, which keeps large cases cheap.
    for k in range(2, 13):
        n = 3 * 2**k
        half = 2 ** (k - 1)
        assert cyclotomic_poly(n) == {0: 1, half: -1, 2 * half: 1}


def test_zero_element():
    assert CyclotomicNumber.from_terms(12, {}).is_zero()


def test_basis_element_is_not_zero():
    z = CyclotomicNumber.from_terms(12, {1: 1})
    assert not z.is_zero()


def test_sqrt3_two_representations_agree():
    # 2cos(pi/6) minus 2sin(pi/3), both in exponents of the 12th root of unity.
    difference = CyclotomicNumber.from_terms(12, {1: 1, -1: 1, 11: -1, 7: 1})
    assert difference.is_zero()
    assert not CyclotomicNumber.from_terms(12, {1: 1, -1: 1}).is_zero()


def _embed(x: CyclotomicNumber) -> complex:
    mp.dps = 40
    z = mp.expjpi(mp.mpf(2) / x.conductor)
    total = mp.mpc(0)
    for j, c in enumerate(x.coeffs):
        total += mp.mpf(c.numerator) / mp.mpf(c.denominator) * z**j
    return total


def test_zero_test_agrees_with_numeric_embedding():
    vanishing = CyclotomicNumber.from_terms(12, {1: 1, -1: 1, 11: -1, 7: 1})
    assert vanishing.is_zero()
    assert abs(_embed(vanishing)) < 1e-30
    nonvanishing = CyclotomicNumber.from_terms(12, {1: 1, -1: 1})
    assert abs(_embed(nonvanishing) - mp.sqrt(3)) < 1e-30


def test_high_conductor_reduction():
    # Random exponent clouds reduce consistently with exponent arithmetic mod C.
    c = 96
    x = CyclotomicNumber.from_terms(c, {5: 1, 5 + c: -1})
    assert x.is_zero()
    y = CyclotomicNumber.from_terms(c, {95: 3, -1: -3})
    assert y.is_zero()
