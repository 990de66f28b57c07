"""Bernoulli numbers and polynomials against an independent oracle."""

import sys
import threading
from fractions import Fraction
from math import lcm

import pytest
import sympy
from bernoulli_ref import bernoulli_at, bernoulli_number_ref, bernoulli_poly_ref
from hypothesis import given, settings
from hypothesis import strategies as st

import habiro.exact.bernoulli as bernoulli_module
from habiro.exact import bernoulli_number, bernoulli_poly


def test_pinned_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_odd_indices_vanish():
    for k in range(3, 41, 2):
        assert bernoulli_number(k) == 0


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_against_sympy_sweep():
    for k in range(0, 80, 2):
        assert bernoulli_number(k) == Fraction(str(sympy.Rational(sympy.bernoulli(k))))


def test_poly_pinned_values():
    assert bernoulli_at(1, Fraction(1, 3)) == Fraction(-1, 6)
    assert bernoulli_at(0, Fraction(7, 5)) == 1
    assert bernoulli_at(2, Fraction(1, 12)) == Fraction(13, 144)


def test_poly_at_zero_is_number():
    for k in range(0, 25):
        assert bernoulli_at(k, 0) == bernoulli_number(k)


def test_poly_against_sympy():
    x = sympy.Symbol("x")
    for k in range(0, 12):
        for q in (Fraction(1, 2), Fraction(-2, 7), Fraction(5, 12)):
            ref = sympy.bernoulli(k, x).subs(x, sympy.Rational(q.numerator, q.denominator))
            assert bernoulli_at(k, q) == Fraction(str(sympy.Rational(ref)))


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=60
)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=0, max_value=40), x=rationals)
def test_reflection_identity(k, x):
    assert bernoulli_at(k, 1 - x) == (-1) ** k * bernoulli_at(k, x)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=1, max_value=30), x=rationals)
def test_forward_difference(k, x):
    assert bernoulli_at(k, x + 1) - bernoulli_at(k, x) == k * x ** (k - 1)


# -- the integer kernel against the Fraction reference ----------------------

HUGE = 3 * 2**151  # the period of torus32t(150)
EVERY_K = range(301)
SPREAD_K = sorted({*range(41), *range(41, 301, 13), 299, 300})
POINTS = [
    *((x, EVERY_K) for x in (0, 1, Fraction(191, 384), Fraction(-385, 384))),
    *((x, SPREAD_K) for x in (2, -3, 17, Fraction(-7, 3), Fraction(-1, 2))),
    *((Fraction(m, 384), SPREAD_K) for m in (1, 5, 383)),
    *((Fraction(m, HUGE), SPREAD_K) for m in (1, 2**151 - 3, 2**152 + 3, HUGE - 1)),
]


def test_numbers_match_reference_through_300():
    for k in range(301):
        assert bernoulli_number(k) == bernoulli_number_ref(k)


@pytest.mark.parametrize("x, ks", POINTS, ids=[str(i) for i in range(len(POINTS))])
def test_poly_matches_fraction_horner(x, ks):
    for k in ks:
        got = bernoulli_at(k, x)
        assert type(got) is Fraction
        assert got == bernoulli_poly_ref(k, x), k


# -- the kernel: unreduced integers over P_k q**k, several indices and points --

periods = st.one_of(
    st.integers(min_value=1, max_value=150).map(lambda t: 3 * 2 ** (t + 1)),  # torus32t
    st.integers(min_value=1, max_value=500).map(lambda m: 4 * (2 * m + 1)),  # torus2
    st.integers(min_value=0, max_value=10**6).map(lambda n: 2 * n + 1),
)


@st.composite
def kernel_points(draw):
    q = draw(periods)
    inner = draw(st.lists(st.integers(min_value=0, max_value=q), max_size=4))
    return [0, *inner, q], q


def _prefix_denominator(k: int) -> int:
    return lcm(*(bernoulli_number_ref(j).denominator for j in range(k + 1)))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=0, max_value=80), points=kernel_points())
def test_kernel_matches_reference_unreduced(k, points):
    ps, q = points
    [(nums, den)] = bernoulli_poly([k], ps, q)
    assert den == _prefix_denominator(k) * q**k
    assert len(nums) == len(ps)
    for p, n in zip(ps, nums):
        assert type(n) is int
        assert Fraction(n, den) == bernoulli_poly_ref(k, Fraction(p, q)), (k, p, q)
        assert bernoulli_poly([k], [p], q) == [([n], den)]


@st.composite
def index_lists(draw):
    # mostly steps of 2, whose terms the walk down takes from the index
    # above, and some wider steps, which build them afresh
    ks = [draw(st.integers(min_value=0, max_value=300))]
    for step in draw(st.lists(st.sampled_from((2, 2, 2, 4, 38)), max_size=8)):
        if ks[-1] + step > 300:
            break
        ks.append(ks[-1] + step)
    return ks


@settings(max_examples=40, deadline=None)
@given(ks=index_lists(), points=kernel_points())
def test_kernel_indices_match_one_index_calls(ks, points):
    ps, q = points
    got = bernoulli_poly(ks, ps, q)
    assert len(got) == len(ks)
    for k, (nums, den) in zip(ks, got):
        assert bernoulli_poly([k], ps, q) == [(nums, den)]
        assert den == _prefix_denominator(k) * q**k
        for p, n in zip(ps, nums):
            assert type(n) is int
            assert Fraction(n, den) == bernoulli_at(k, Fraction(p, q)), (k, p, q)


# Long runs walked down from their top index: the common scale F of the
# terms passes bernoulli._SCALE_BITS several times on the way, and a gap
# restarts the walk from the binomial row.
LONG_RUNS = [  # (first index, indices before the gap, gap, indices after it, q, points)
    (0, 200, 0, 0, 3 * 2**41, [5]),
    (1, 100, 6, 150, 3 * 2**41, [1, 3 * 2**40 - 1]),
    (2, 150, 0, 0, 4 * (2 * 500 + 1), [1, 7, 2000, 4004]),
    (3, 90, 10, 100, 4 * (2 * 37 + 1), [0, 149, 300]),
    (2, 100, 4, 130, 3 * 2**18, [1, 2**18 + 5]),
    (1, 230, 0, 0, 3 * 2**2, [1, 5, 7, 11]),
]


def _scale_resets(ks: list[int]) -> int:
    """How often F passes _SCALE_BITS on the walk down ks, a run of indices 2 apart."""
    scale, resets = 1, 0
    for k in reversed(ks[:-1]):
        scale *= (k + 2) * (k + 1)
        if scale.bit_length() > bernoulli_module._SCALE_BITS:
            scale, resets = 1, resets + 1
    return resets


@pytest.mark.parametrize("first, before, gap, after, q, ps", LONG_RUNS,
                         ids=[str(i) for i in range(len(LONG_RUNS))])
def test_long_runs_match_one_index_calls(first, before, gap, after, q, ps):
    low = list(range(first, first + 2 * before, 2))
    high = [low[-1] + gap + 2 * i for i in range(1, after + 1)] if gap else []
    ks = low + high
    assert max(_scale_resets(low), _scale_resets(high)) >= 3
    got = bernoulli_poly(ks, ps, q)
    assert len(got) == len(ks)
    ends = {0, 1, len(low) - 2, len(low) - 1, len(low), len(low) + 1, len(ks) - 2, len(ks) - 1}
    for i, (k, (nums, den)) in enumerate(zip(ks, got)):
        if i % 7 == 0 or i in ends:
            assert bernoulli_poly([k], ps, q) == [(nums, den)], k
        if i in ends:
            assert den == _prefix_denominator(k) * q**k
            for p, n in zip(ps, nums):
                assert Fraction(n, den) == bernoulli_poly_ref(k, Fraction(p, q)), (k, p, q)


def test_table_grown_in_steps_equals_one_build():
    grown = bernoulli_module._SEED
    for top in (3, 10, 11, 64, 65, 300, 1000):
        grown = bernoulli_module._build_table(top, grown)
        assert len(grown.numerators) == top + 1
    assert grown == bernoulli_module._build_table(1000)
    assert grown.numerators[:301] == tuple(  # P_j B_j against the reference
        bernoulli_number_ref(j) * d for j, d in enumerate(grown.denominators[:301]))


def test_kernel_rejects_bad_arguments():
    for ks, q in (
        ([-1], 2), ([-2, 0], 2),  # negative index
        ([], 2),  # no index
        ([6, 4], 2), ([4, 4], 2),  # descending, repeated
        ([4, 7], 2), ([1, 2, 3], 2),  # mixed parity
        ([4], 0), ([0, 2], -3),  # q < 1
    ):
        with pytest.raises(ValueError):
            bernoulli_poly(ks, [1], q)


def test_table_shared_by_threads(monkeypatch):
    # Start from a table through B_2 so that the threads race to grow it.
    monkeypatch.setattr(bernoulli_module, "_table", bernoulli_module._build_table(2))
    x = Fraction(5, 384)
    ks = range(0, 241, 3)
    want = {k: (bernoulli_number_ref(k), bernoulli_poly_ref(k, x)) for k in ks}
    errors = []

    def worker(offset):
        try:
            for k in ks[offset::4]:
                assert bernoulli_at(k, x) == want[k][1], k
                assert bernoulli_number(k) == want[k][0], k
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
    assert errors == []
