"""Reference Bernoulli numbers and polynomials for the exactness tests.

The numbers come from the classical recurrence sum_{j<=n} C(n+1, j) B_j = 0
in Fractions, and the polynomials from a Horner loop over Fractions.  The
references call nothing in habiro.exact: they are what the integer kernel is
compared against.  `bernoulli_at` is the kernel itself at one index and one
point, reduced, for tests that check a single value.
"""

from fractions import Fraction
from math import comb

from habiro.exact import bernoulli_poly

_numbers = [Fraction(1)]


def bernoulli_number_ref(k: int) -> Fraction:
    """B_k with B_1 = -1/2."""
    while len(_numbers) <= k:
        n = len(_numbers)
        if n > 1 and n % 2:
            _numbers.append(Fraction(0))
            continue
        acc = sum(comb(n + 1, j) * _numbers[j] for j in range(n) if _numbers[j])
        _numbers.append(-acc / (n + 1))
    return _numbers[k]


def bernoulli_poly_ref(k: int, x) -> Fraction:
    """B_k(x) = sum_j C(k, j) B_j x**(k-j), by Horner over Fractions."""
    x = Fraction(x)
    acc = Fraction(0)
    for j in range(k + 1):
        acc = acc * x + comb(k, j) * bernoulli_number_ref(j)
    return acc


def bernoulli_at(k: int, x) -> Fraction:
    """B_k(x) from the kernel at the one index k and the one point x, as a Fraction."""
    x = Fraction(x)
    [(nums, den)] = bernoulli_poly([k], [x.numerator], x.denominator)
    return Fraction(nums[0], den)
