"""The exact vanishing test for sums of roots of unity."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from habiro.exact import root_sum_is_zero


def test_cyclotomic_polynomial_vanishes_at_its_conductor():
    # Phi_n(z) = 0 at a primitive n-th root z; a constant term off by one is 1.
    x = sympy.Symbol("x")
    for n in list(range(1, 40)) + [48, 49, 60, 104, 105, 128, 210, 2310]:
        ref = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        terms = {e: int(c) for e, c in enumerate(ref) if c}
        assert root_sum_is_zero(n, terms), n
        assert not root_sum_is_zero(n, {**terms, 0: terms[0] + 1}), n


def test_three_times_power_of_two_trinomial():
    # Phi_(3*2**k)(z) = z**(2**k) - z**(2**(k-1)) + 1, the torus32t conductors.
    for k in list(range(2, 13)) + [64, 151, 400]:
        assert root_sum_is_zero(3 * 2**k, {0: 1, 2 ** (k - 1): -1, 2**k: 1})
        assert not root_sum_is_zero(3 * 2**k, {0: 1, 2 ** (k - 1): 1, 2**k: 1})


def test_zero_element():
    assert root_sum_is_zero(12, {})


def test_basis_element_is_not_zero():
    assert not root_sum_is_zero(12, {1: 1})


def test_conductor_must_be_positive():
    with pytest.raises(ValueError):
        root_sum_is_zero(0, {1: 1})


def test_sqrt3_two_representations_agree():
    # 2cos(pi/6) minus 2sin(pi/3), both in exponents of the 12th root of unity.
    assert root_sum_is_zero(12, {1: 1, -1: 1, 11: -1, 7: 1})
    assert not root_sum_is_zero(12, {1: 1, -1: 1})


@pytest.mark.parametrize("conductor", [15, 30, 15 * 10**12])
def test_mixed_minimal_sum(conductor):
    # zeta_5 + zeta_5**2 + zeta_5**3 + zeta_5**4 - zeta_3 - zeta_3**2 = -1 + 1:
    # no proper subsum vanishes, and no single prime's cosets cancel it.
    fifth, third = conductor // 5, conductor // 3
    terms = {**{a * fifth: 1 for a in range(1, 5)}, **{b * third: -1 for b in (1, 2)}}
    assert root_sum_is_zero(conductor, terms)
    assert not root_sum_is_zero(conductor, {**terms, fifth: 2})
    assert not root_sum_is_zero(conductor, {**terms, third: 1})


def _embed(conductor: int, terms) -> complex:
    """sum c_e z**e at z = exp(2 pi i / conductor), to 50 digits."""
    with mp.workdps(50):
        total = mp.mpc(0)
        for e, c in terms.items():
            c = Fraction(c)
            total += mp.mpf(c.numerator) / c.denominator * mp.expjpi(mp.mpf(2 * e) / conductor)
        return total


def test_zero_test_agrees_with_numeric_embedding():
    vanishing = {1: 1, -1: 1, 11: -1, 7: 1}
    assert root_sum_is_zero(12, vanishing)
    assert abs(_embed(12, vanishing)) < 1e-40
    nonvanishing = {1: 1, -1: 1}
    assert not root_sum_is_zero(12, nonvanishing)
    with mp.workdps(50):
        assert abs(_embed(12, nonvanishing) - mp.sqrt(3)) < 1e-40


def test_high_conductor_reduction():
    # Exponents are read mod C, so these terms cancel pairwise.
    c = 96
    assert root_sum_is_zero(c, {5: 1, 5 + c: -1})
    assert root_sum_is_zero(c, {95: 3, -1: -3})
    # A full coset of p-th roots of unity cancels; one more term does not.
    for c in (96, 3 * 2**10, 504, 540, 30, 105, 210, 8 * 9 * 25 * 7, 30030):
        for p in sympy.primefactors(c):
            coset = {1 + j * c // p: Fraction(1, 2) for j in range(p)}
            assert root_sum_is_zero(c, coset)
            assert not root_sum_is_zero(c, {**coset, 1: Fraction(1)})


@pytest.mark.parametrize("odd", [10**12 + 39, 3**60, 5**43 * 7, 10**30 + 57])
def test_huge_odd_conductor_by_construction(odd):
    # Small relations carried up by z -> z**(C/c) and a shift stay exact
    # relations at C; a nonzero sum there can be smaller than any fixed
    # precision, so nothing here is checked numerically.
    conductor = 2**5 * 3 * 5 * odd
    for c, relation in [(3, {0: 1, 1: 1, 2: 1}), (5, {j: 1 for j in range(5)}),
                        (12, {0: 1, 2: -1, 4: 1}),  # Phi_12
                        (15, {3: 1, 6: 1, 9: 1, 12: 1, 5: -1, 10: -1})]:
        lift = conductor // c
        for shift in (0, 1, odd, conductor - 7):
            terms = {shift + e * lift: v for e, v in relation.items()}
            assert root_sum_is_zero(conductor, terms)
            assert not root_sum_is_zero(conductor, {**terms, shift + lift: 5})
            assert not root_sum_is_zero(conductor, {**terms, shift + 1: 1})
    # Two roots of unity never cancel unless they are opposite.
    assert root_sum_is_zero(conductor, {7: 1, 7 + conductor // 2: 1})
    assert not root_sum_is_zero(conductor, {7: 1, 7 + conductor // odd: 1})


@st.composite
def _root_sums(draw):
    """A conductor and terms: a few random ones plus full cosets of p-th roots."""
    conductor = draw(st.sampled_from([96, 3 * 2**10, 504, 540, 30, 105, 210,
                                      8 * 9 * 25 * 7, 30030]))
    terms: dict[int, Fraction] = {}
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    for e, c in draw(st.lists(st.tuples(st.integers(-2 * conductor, 2 * conductor), coeff),
                              max_size=5)):
        terms[e] = terms.get(e, 0) + c
    for p in draw(st.lists(st.sampled_from(sympy.primefactors(conductor)), max_size=3)):
        # sum_j z**(base + j C/p) = z**base * (sum of the p-th roots of unity) = 0
        base = draw(st.integers(0, conductor - 1))
        c = draw(coeff)
        for j in range(p):
            e = base + j * conductor // p
            terms[e] = terms.get(e, 0) + c
    return conductor, terms


@settings(max_examples=200, deadline=None)
@given(case=_root_sums())
def test_zero_test_agrees_with_embedding_at_50_digits(case):
    conductor, terms = case
    assert root_sum_is_zero(conductor, terms) == (abs(_embed(conductor, terms)) < 1e-30)
