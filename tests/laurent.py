"""Reference Laurent polynomials in q for the expansion tests.

A polynomial is a dict from exponent (negative allowed) to nonzero
coefficient.  Nothing here calls the integer-list kernels of habiro.qseries:
this is the reference those kernels are compared against.
"""

from math import comb


def poly(*coeffs, low=0):
    """sum_i coeffs[i] * q**(low + i)."""
    return {low + i: c for i, c in enumerate(coeffs) if c}


def add(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def shift(a, e):
    """q**e * a."""
    return {k + e: c for k, c in a.items()}


def subst_one_minus(p, N):
    """Coefficients 0..N in u of p at q = 1-u, one binomial series per term."""
    out = [0] * (N + 1)
    for e, c in p.items():
        for j in range(N + 1):
            if e >= 0:
                # (1-u)**e = sum_j (-1)**j C(e, j) u**j
                out[j] += c * (-1) ** j * comb(e, j)
            else:
                # (1-u)**(-k) = sum_j C(k+j-1, j) u**j
                out[j] += c * comb(-e + j - 1, j)
    return out
