"""Coefficient windows, integer-list kernels, reference q-binomials and the transforms."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from laurent import add, mul, poly, qbinomial, shift, subst_one_minus
from transform_ref import binomial_transform_ref, transform_g_ref, transform_h_ref

from habiro.qseries import (
    TruncatedSeries,
    _pascal_heads,
    binomial_transform,
    mul_trunc_int,
    one_minus_power_int,
    transform_g,
    transform_h,
)


def poch_at_one_minus(n, N):
    """(q;q)_n at q = 1-u through u**N, built from the kernels the expansions use."""
    acc = [1] + [0] * N
    for k in range(1, n + 1):
        acc = mul_trunc_int(acc, one_minus_power_int(k, N), N)
    return acc


def test_series_mul_exact():
    assert mul(poly(1, 1), poly(1, -1)) == poly(1, 0, -1)


def test_series_mul_laurent_inverse():
    assert mul(poly(1, low=-1), poly(0, 1)) == poly(1)


def test_series_mul_truncated_geometric():
    n = 12
    assert mul_trunc_int([1] * (n + 1), [1, -1], n) == [1] + [0] * n


def test_pochhammer_example():
    assert poch_at_one_minus(2, 3) == [0, 0, 2, -1]


def test_pochhammer_valuation_and_leading_coefficient():
    for n in range(0, 9):
        s = poch_at_one_minus(n, 12)
        assert s[:n] == [0] * n
        assert s[n] == factorial(n)


def test_pochhammer_beyond_order_is_zero_series():
    assert poch_at_one_minus(7, 4) == [0] * 5


def test_qbinomial_pinned():
    # the reference Gaussian binomial the torus32t oracle multiplies out
    assert qbinomial(4, 2) == poly(1, 1, 2, 1, 1)
    assert qbinomial(3, 1) == poly(1, 1, 1)
    assert qbinomial(5, 0) == poly(1)
    assert qbinomial(5, 5) == poly(1)


def test_qbinomial_out_of_range_is_zero():
    assert qbinomial(3, 4) == {}
    assert qbinomial(3, -1) == {}


def test_qbinomial_evaluates_to_binomial_at_one():
    for n in range(9):
        for k in range(n + 1):
            assert sum(qbinomial(n, k).values()) == comb(n, k)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    k=st.integers(min_value=0, max_value=30),
)
def test_qbinomial_pascal_recurrences(n, k):
    k = min(k, n)
    lhs = qbinomial(n, k)
    below, same = qbinomial(n - 1, k - 1), qbinomial(n - 1, k)
    assert lhs == add(below, shift(same, k))
    assert lhs == add(shift(below, n - k), same)


def test_substitute_positive_power():
    assert subst_one_minus(poly(0, 0, 1), 4) == [1, -2, 1, 0, 0]


def test_substitute_negative_power():
    assert subst_one_minus(poly(1, low=-2), 5) == [j + 1 for j in range(6)]


def test_substitute_mixed_laurent():
    # 1/q + q: the geometric tail from 1/q must not be rescaled by the
    # polynomial part's evaluation.
    assert subst_one_minus(poly(1, 0, 1, low=-1), 5) == [2, 0, 1, 1, 1, 1]


def test_substitute_matches_pochhammer():
    # (q;q)_n is a polynomial; substituting q = 1-u must agree with the
    # product of the 1 - (1-u)**k factors.
    for n in range(0, 7):
        prod = poly(1)
        for k in range(1, n + 1):
            prod = mul(prod, poly(1, *[0] * (k - 1), -1))
        expect = poch_at_one_minus(n, 10)
        assert subst_one_minus(prod, 10) == expect


small_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=10
)


@settings(max_examples=30, deadline=None)
@given(a=small_polys, b=small_polys, da=st.integers(-4, 0), db=st.integers(-4, 0))
def test_substitute_is_multiplicative(a, b, da, db):
    pa, pb = poly(*a, low=da), poly(*b, low=db)
    direct = subst_one_minus(mul(pa, pb), 8)
    product = mul(poly(*subst_one_minus(pa, 8)), poly(*subst_one_minus(pb, 8)))
    assert direct == [product.get(j, 0) for j in range(9)]


def test_transform_g_fishburn_prefix():
    xi = TruncatedSeries([1, 1, 2, 5, 15, 53])
    assert transform_g(xi) == TruncatedSeries([1, 1, 1, 2, 5, 16])


def test_transform_h_fishburn_prefix():
    xi = TruncatedSeries([1, 1, 2, 5, 15, 53])
    assert transform_h(xi) == TruncatedSeries([1, 2, 6, 26, 142, 946])


def _compose_with(xi: TruncatedSeries, inner: list) -> TruncatedSeries:
    """xi(inner(q)) through q**order, by Horner's rule on reference polynomials."""
    n = len(xi) - 1
    acc = {}
    for j in range(n, -1, -1):
        acc = {e: c for e, c in mul(acc, poly(*inner)).items() if e <= n}
        acc = add(acc, poly(xi[j]))
    return TruncatedSeries([acc.get(e, 0) for e in range(n + 1)])


def test_transform_h_matches_direct_composition():
    n = 18
    xi = TruncatedSeries([Fraction(i**2 + 1, 1) for i in range(n + 1)])
    inner = [0] + [2 * (-1) ** (i - 1) for i in range(1, n + 1)]
    assert transform_h(xi) == _compose_with(xi, inner)


def test_transform_g_matches_direct_composition():
    n = 15
    xi = TruncatedSeries(list(range(1, n + 2)))
    inner = [0] + [(-1) ** (i - 1) for i in range(1, n + 1)]
    assert transform_g(xi) == _compose_with(xi, inner)


integer_series = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=61
)


@settings(max_examples=40, deadline=None)
@given(coeffs=integer_series)
def test_transform_roundtrip(coeffs):
    xi = TruncatedSeries(coeffs)
    assert binomial_transform(transform_g(xi)) == xi
    assert transform_g(binomial_transform(xi)) == xi


TRANSFORM_REFS = [
    (transform_g, transform_g_ref),
    (binomial_transform, binomial_transform_ref),
    (transform_h, transform_h_ref),
]
coefficient = st.integers(-10**6, 10**6) | st.fractions(max_denominator=50).filter(
    lambda x: abs(x.numerator) <= 10**6
)


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(coefficient, min_size=1, max_size=80))
@example(coeffs=[7])
@example(coeffs=[Fraction(-3, 4)])
@example(coeffs=[2, 5])
@example(coeffs=[Fraction(1, 3), -1])
def test_transforms_match_their_defining_sums(coeffs):
    xi = TruncatedSeries(coeffs)
    for transform, ref in TRANSFORM_REFS:
        assert transform(xi) == TruncatedSeries(ref(coeffs))


def _heads_by_definition(row, weights):
    row = list(row)
    heads = row[:1]
    for w in weights:
        row = [w * x + y for x, y in zip(row, row[1:])]
        heads.append(row[0])
    return heads


@settings(max_examples=80, deadline=None)
@given(data=st.data(), row=st.one_of(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=40),
                                     st.lists(coefficient, min_size=1, max_size=40)))
def test_unit_weight_steps_match_the_weighted_step(data, row):
    # Steps of weight 1 and -1 add or subtract adjacent entries; the heads,
    # and whether each is an int or a Fraction, are those of w*x + y.
    weights = data.draw(st.lists(st.sampled_from([1, -1, 3]), max_size=len(row) - 1))
    got = _pascal_heads(row, weights)
    want = _heads_by_definition(row, weights)
    assert [(type(h), h) for h in got] == [(type(h), h) for h in want]


def test_integer_coeffs_guard():
    s = TruncatedSeries([1, Fraction(1, 2)])
    with pytest.raises(ValueError, match="non-integer"):
        s.integer_coeffs()
    assert TruncatedSeries([1, Fraction(4, 2)]).integer_coeffs() == [1, 2]
