"""The exact vanishing test for sums of roots of unity."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from habiro.exact import root_sum_is_zero
from habiro.exact.cyclotomic import _cyclotomic_squarefree, factorize


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


def _stretched(n: int) -> dict[int, int]:
    """Phi_rad(z**(n/rad)) from the squarefree table, as exponent -> coefficient."""
    rad = 1
    for p in factorize(n):
        rad *= p
    stretch = n // rad
    return {i * stretch: c for i, c in enumerate(_cyclotomic_squarefree(rad)) if c}


def test_cyclotomic_poly_against_sympy():
    # Phi_n(z) = Phi_rad(n)(z**(n/rad(n))), the identity the zero test rests on.
    x = sympy.Symbol("x")
    for n in list(range(1, 40)) + [48, 49, 60, 104, 105, 128]:
        ref = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert _stretched(n) == {e: int(c) for e, c in enumerate(ref) if c}


def test_cyclotomic_poly_three_times_power_of_two():
    # Conductors 3*2**k reduce to a trinomial, which keeps large cases cheap.
    for k in range(2, 13):
        n = 3 * 2**k
        half = 2 ** (k - 1)
        assert _stretched(n) == {0: 1, half: -1, 2 * half: 1}


def test_zero_element():
    assert root_sum_is_zero(12, {})


def test_basis_element_is_not_zero():
    assert not root_sum_is_zero(12, {1: 1})


def test_sqrt3_two_representations_agree():
    # 2cos(pi/6) minus 2sin(pi/3), both in exponents of the 12th root of unity.
    assert root_sum_is_zero(12, {1: 1, -1: 1, 11: -1, 7: 1})
    assert not root_sum_is_zero(12, {1: 1, -1: 1})


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
    for c in (96, 3 * 2**10, 504, 540, 30, 105, 210):
        for p in factorize(c):
            coset = {1 + j * c // p: Fraction(1, 2) for j in range(p)}
            assert root_sum_is_zero(c, coset)
            assert not root_sum_is_zero(c, {**coset, 1: Fraction(1)})


@st.composite
def _root_sums(draw):
    """A conductor and terms: a few random ones plus full cosets of p-th roots."""
    conductor = draw(st.sampled_from([96, 3 * 2**10, 504, 540, 30, 105, 210]))
    terms: dict[int, Fraction] = {}
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    for e, c in draw(st.lists(st.tuples(st.integers(-2 * conductor, 2 * conductor), coeff),
                              max_size=5)):
        terms[e] = terms.get(e, 0) + c
    for p in draw(st.lists(st.sampled_from(sorted(factorize(conductor))), max_size=3)):
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

