"""Reference row transforms, as the defining binomial sums over coefficient lists.

Each sum is evaluated term by term with math.comb.  Nothing here calls
habiro.qseries: this is the reference the Pascal-triangle kernel is compared
against.
"""

from math import comb


def transform_g_ref(xi: list) -> list:
    """g(0) = xi(0), g(n) = sum_l (-1)**l C(n-1, l) xi(n-l)."""
    return xi[:1] + [
        sum((-1) ** l * comb(n - 1, l) * xi[n - l] for l in range(n))
        for n in range(1, len(xi))
    ]


def binomial_transform_ref(xi: list) -> list:
    """b(0) = xi(0), b(n) = sum_l C(n-1, l) xi(n-l)."""
    return xi[:1] + [
        sum(comb(n - 1, l) * xi[n - l] for l in range(n)) for n in range(1, len(xi))
    ]


def transform_h_ref(xi: list) -> list:
    """h(0) = xi(0), h(m) = sum_n 2**n (-1)**(m-n) C(m-1, m-n) xi(n)."""
    return xi[:1] + [
        sum(2**n * (-1) ** (m - n) * comb(m - 1, m - n) * xi[n] for n in range(1, m + 1))
        for m in range(1, len(xi))
    ]
