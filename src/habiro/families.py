"""Built-in Habiro-element families and their exact coefficient expansions.

Each family pairs a nested q-series expression with strange-identity data
(a, b, nu, periodic weight).  The expansion routines substitute q = 1-u into
the nested sums and return exact integer coefficient windows; the identity
data feeds the independent theta-side route, and the two must agree.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from itertools import takewhile
from math import comb, isqrt
from operator import add, not_, sub
from pathlib import Path
from typing import Callable, NamedTuple

from habiro.qseries import TruncatedSeries, mul_trunc_int, one_minus_power_int
from habiro.thetaside import (
    StrangeIdentity,
    make_chi_k,
    make_chi_m_ell,
    make_chi_t,
)

# perfbench/tracing.py wraps these names here, so they stay bound though no kernel
# stands behind them and nothing calls them.  The line goes with ROADMAP item 3.
mul_dense_int = mul_sparse_binomial_int = qbinomial = subst_one_minus_int = None


_PARAMS = ("t", "m", "ell", "k")  # FamilySpec's parameter fields


class FamilySpec(NamedTuple("FamilySpec", [("kind", str), ("t", int | None), ("m", int | None),
                                           ("ell", int | None), ("k", int | None)])):
    """A family kind together with the integer parameters that pin one member.

    The record compares and hashes as its five fields.  args, the parameter
    values in the order of the family's row as its functions take them, sits
    in the instance dict, and no attribute can be assigned.
    """

    def __new__(cls, kind: str, t: int | None = None, m: int | None = None,
                ell: int | None = None, k: int | None = None):
        family = FAMILIES.get(kind)
        if family is None:
            raise ValueError(f"unknown family kind: {kind!r}")
        want = family.params
        spec = tuple.__new__(cls, (kind, t, m, ell, k))
        args = tuple([getattr(spec, name) for name in want])
        given = (t, m, ell, k)
        if None in args or len(args) + given.count(None) != len(given):
            # a parameter is missing or foreign: name the first in field order
            name = next(name for name, val in zip(_PARAMS, given)
                        if (val is None) == (name in want))
            verb = "needs" if name in want else "does not take"
            raise ValueError(f"family {kind} {verb} parameter {name}")
        for name, val in zip(want, args):
            if name == "ell":
                if not 0 <= val <= m - 1:
                    raise ValueError(f"ell must lie in [0, {m - 1}]")
            elif val < 1:
                raise ValueError(f"{name} must be at least 1")
        spec.__dict__["args"] = args
        return spec

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @classmethod
    def fishburn(cls) -> "FamilySpec":
        return cls("fishburn")

    @classmethod
    def torus32t(cls, t: int) -> "FamilySpec":
        return cls("torus32t", t=t)

    @classmethod
    def torus2(cls, m: int, ell: int) -> "FamilySpec":
        return cls("torus2", m=m, ell=ell)

    @classmethod
    def habiro_g(cls, k: int) -> "FamilySpec":
        return cls("habiro-g", k=k)

    def params(self) -> dict[str, int]:
        return dict(zip(FAMILIES[self.kind].params, self.args))

    def label(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return self.kind if not inner else f"{self.kind}({inner})"

    def cache_key(self) -> str:
        tail = "".join(f"-{k}{v}" for k, v in self.params().items())
        return self.kind + tail


def identity_for(spec: FamilySpec) -> StrangeIdentity:
    """Strange-identity data (a, b, nu, weight) attached to a family member."""
    return FAMILIES[spec.kind].identity(*spec.args)


def _check_order(N: int) -> None:
    if N < 0:
        raise ValueError("truncation order must be nonnegative")


# -- direct expansions of the nested sums, at q = 1-u or in q -----------------


def _q_power(e: int, order: int) -> list[int]:
    """Coefficients of q**e = (1-u)**e through the given order."""
    out = [-c for c in one_minus_power_int(e, order)]
    out[0] = 1
    return out


def _times_q_power(e: int, p: list[int], order: int) -> list[int]:
    """q**e * p through u**order, where q = 1-u, as a window of order + 1 entries.

    Each pass multiplies by 1-u in place, from p's first nonzero entry on, so
    it costs one C-level subtraction per entry and no product; above e = order
    it is a dense product.  e = 0 gives p itself when it is already that long.
    """
    if e == 0 and len(p) == order + 1:
        return p
    # Past e = order the dense product with _q_power is used.  Timed on random
    # windows (orders 20-200, 60-1200-bit coefficients; CPU time, 2-core x86-64
    # VM, CPython 3.11), it took 1.9-2.9x the passes' time at e = order/4,
    # 0.94-1.8x at e = order and 0.64-0.89x at e = 2*order up to order 100
    # (1.6x at order 200).  Whole expansions (torus2(3,1) and habiro-g(2) at
    # N = 26-100) moved by no more than the noise with limits of 1.5-4 orders.
    if e > order:
        return mul_trunc_int(_q_power(e, order), p, order)
    out = p[:order + 1]
    out += [0] * (order + 1 - len(out))
    start = len(list(takewhile(not_, out)))
    if start < order:
        for _ in range(e):
            out[start + 1:] = map(sub, out[start + 1:], out[start:-1])
    return out


def _times_q_monomial(e: int, p: list[int], order: int) -> list[int]:
    """q**e * p through q**order, a shift, as a window of order + 1 entries."""
    if e > order:
        return [0] * (order + 1)
    out = [0] * e + p[:order + 1 - e]
    out += [0] * (order + 1 - len(out))
    return out


def _expand_nested(
    N: int,
    levels: list[tuple[int, int, int, int]],
    outer: tuple[int, int, int],
    times: Callable[[int, list[int], int], list[int]],
) -> TruncatedSeries:
    """Coefficients through x**N of a nested sum, every level kept in x.

    The series variable x is set by times(e, p, order), q**e * p through
    x**order: _times_q_power gives x = u where q = 1-u, _times_q_monomial
    x = q.  A level (d, b, alpha, beta) maps the inner sums p[n], 1 below the
    innermost level, to sum_n [j + d, n]_{q**b} q**(alpha*n*n + beta*n) p[n];
    levels are listed innermost first.  The outer factor (s, c, c0) gives
    index n the weight q**(s*n) prod_{i <= n} (1 - q**(c*i + c0)), of
    valuation n in u.  A level lowers an index by at most its d, so an entry
    of index j is needed only through x**(N - j + D), D the sum of d over
    the levels still to apply.  In q these cuts hold only when s >= 1, which
    gives the weight valuation at least n there too.  A level is a repeated
    q-difference: after J steps of w[n] <- w[n+1] + q**(b*n) w[n], w[0] is
    sum_n [J, n]_{q**b} w[n].  The entries past the last nonzero one stay
    zero through every step, so the steps stop there; in q that skips every
    n with alpha*n*n + beta*n above N.  In u a factor q**e with e up to the
    order costs e difference passes, additions only; a larger e (a level's
    first products, and steps past a short order) costs a dense product.  In
    q a factor is a shift, so no product is made there.
    """
    _check_order(N)
    D = sum(level[0] for level in levels)
    p = [[1]] * (N + D + 1)
    for d, b, alpha, beta in levels:
        top = N + D
        w = [times(alpha * n * n + beta * n, p[n], min(N, top - n)) for n in range(top + 1)]
        live = 1 + max((n for n, x in enumerate(w) if any(x)), default=0)
        p = []
        for J in range(top + 1):
            if J >= d:
                p.append(w[0])
            for n in range(min(top - J, live)):
                w[n] = list(map(add, w[n + 1], times(b * n, w[n], min(N, top - J - 1 - n))))
            w.pop()
        D -= d
    s, c, c0 = outer
    acc = [0] * (N + 1)
    weight = [1] + [0] * N
    for n in range(N + 1):
        for j, v in enumerate(mul_trunc_int(weight[n:], p[n], N - n)):
            acc[n + j] += v
        weight = list(map(sub, times(s, weight, N), times(s + c * (n + 1) + c0, weight, N)))
    return TruncatedSeries(acc)


def expand_fishburn(N: int) -> TruncatedSeries:
    """Coefficients through u**N of the Kontsevich element at q = 1-u."""
    return _expand_nested(N, [], (0, 1, 0), _times_q_power)


def _times_q_power_classes(w: list[int], e: int, width: int) -> list[int]:
    """q**e = (1-u)**e times every window of w, in place, by e difference passes.

    w holds windows of width entries, each led by a zero guard that stands for
    the coefficient just below the window; the guards are zeroed after every
    pass, so no window reads its neighbour.
    """
    guards = [0] * (len(w) // width)
    for _ in range(e):
        w[1:] = map(sub, w[1:], w[:-1])
        w[::width] = guards
    return w


# Largest cost expand_torus32t accepts, the refusal threshold of its direct
# expansion.  The formula counts the old cost, m*m*(N+1) dense window products,
# m = 2**(t-1), of about (N+1)**2 + 200 steps each.  Difference passes over all
# m classes at once cost less (t=12, N=0 went from 10.5 to 0.6 s and t=3, N=100
# takes 0.3 s, CPU time on a 2-core x86-64 VM), so the formula now over-counts;
# it stays as the limit, so the same sizes are refused.
TORUS32T_BUDGET = 10**9


def expand_torus32t(t: int, N: int) -> TruncatedSeries:
    """Coefficients through u**N of the rank-t torus-knot element at q = 1-u.

    With m = 2**(t-1) and x = q**(1/m) the element is (-1)**h'' q**(-h')
    sum_k [x**a] (x;x)_k, where [x**a] keeps the exponents a mod m and divides
    by x**a; (x;x)_k has u-valuation at least k // m, so k < m(N+1) suffices.
    The product is held as m residue-class series: sum_{r<m} x**r P_r(q), each
    P_r a window in u, exact since Z[x] = sum_r x**r Z[q] and truncation in u is
    a ring map.  Multiplying by 1 - x**c, c = c1*m + c0, subtracts
    q**(c1 + [r + c0 >= m]) P_r from class (r + c0) mod m; [x**a] is class a.
    The classes sit in one list, class r in window r, so q**c1 times all of
    them is c1 difference passes over it and the move to r + c0 a rotation.
    (x;x)_k is (q;q)_(k // m) times a polynomial in x, so in round c1 every
    class has valuation at least c1 - 1, and its window starts there.
    Sizes over TORUS32T_BUDGET raise ValueError before any work is done.
    """
    _check_order(N)
    if t < 1:
        raise ValueError("t must be at least 1")
    if t == 1:
        return expand_fishburn(N)
    # The first test keeps a huge t from building a huge integer.
    if (2 * (t - 1) > TORUS32T_BUDGET.bit_length()
            or 4 ** (t - 1) * (N + 1) * ((N + 1) ** 2 + 200) > TORUS32T_BUDGET):
        raise ValueError(f"torus32t direct expansion at t={t}, N={N} exceeds its cost budget "
                         f"4**(t-1)*(N+1)*((N+1)**2 + 200) <= {TORUS32T_BUDGET:.0e}; "
                         "the theta route (asym without -N) has no such limit")
    # The defining congruence keeps the exponents e with 3*e == 1 mod m.
    m, hpp = 2 ** (t - 1), (2**t - 1) // 3
    a = pow(3, -1, m)
    # Class 0 starts as (-1)**h'' q**(-h') = (-1)**h'' (1-u)**(-h'), h' = h'' - 1.
    sign = (-1) ** hpp
    width = N + 2  # a guard, then the coefficients of u**v..u**N, v = max(c1 - 1, 0)
    classes = [0, sign] + [sign * comb(hpp + j - 2, j) for j in range(1, N + 1)]
    classes += [0] * (width * (m - 1))
    acc = [0] * (N + 1)
    for c1 in range(N + 1):
        v = max(c1 - 1, 0)
        if v:
            del classes[1::width]  # every coefficient of u**(v-1) is zero
            width -= 1
        for c0 in range(m):
            if c1 or c0:
                moved = _times_q_power_classes(classes[:], c1, width) if c1 else classes
                cut = (m - c0) * width
                wrapped = _times_q_power_classes(moved[cut:], 1, width)
                classes = list(map(sub, classes, wrapped + moved[:cut]))
            acc[v:] = map(add, acc[v:], classes[a * width + 1:(a + 1) * width])
    return TruncatedSeries(acc)


def expand_torus2(m: int, ell: int, N: int) -> TruncatedSeries:
    """Coefficients through u**N of the two-parameter nested element at q = 1-u.

    The nested sum is assembled bottom-up: level i carries exponent
    k_i**2 (+ k_i past level ell) and binomial [k_{i+1} + delta(i, ell), k_i],
    and the outermost index contributes (q;q)_{k_m} with valuation k_m.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 <= ell <= m - 1:
        raise ValueError(f"ell must lie in [0, {m - 1}]")
    levels = [(int(i == ell), 1, 1, int(i > ell)) for i in range(1, m)]
    return _expand_nested(N, levels, (0, 1, 0), _times_q_power)


# habiro-g's level (d, b, alpha, beta), applied k-1 times, and its outer factor (s, c, c0).
_HABIRO_G = ((0, 2, 2, 2), (1, 2, -1))


def expand_habiro_g(k: int, N: int) -> TruncatedSeries:
    """Coefficients through u**N of the odd-pochhammer nested element at q = 1-u.

    Levels run over the base q**2: every inner index carries 2n**2 + 2n, and
    the outermost contributes q**n (q;q**2)_n, whose valuation n cuts the
    outer sum at N.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    level, outer = _HABIRO_G
    return _expand_nested(N, [level] * (k - 1), outer, _times_q_power)


def expand_habiro_g_qseries(k: int, order: int) -> TruncatedSeries:
    """Plain q-expansion of the odd-pochhammer nested element through q**order."""
    if k < 1:
        raise ValueError("k must be at least 1")
    level, outer = _HABIRO_G
    return _expand_nested(order, [level] * (k - 1), outer, _times_q_monomial)


# -- the family table ---------------------------------------------------------


class Family(NamedTuple):
    """Everything the package knows about one family kind.

    The three functions take a member's parameters in the order of params,
    expand then the order N.  angle gives theta of the check-count bound
    zeta(2n+2) - sin(pi*theta) < 1, or None where one sign check suffices.
    """

    params: tuple[str, ...]  # a verify range sweeps the first
    identity: Callable[..., StrangeIdentity]
    expand: Callable[..., TruncatedSeries]
    angle: Callable[..., Fraction | None]


def _torus32t_identity(t: int) -> StrangeIdentity:
    return StrangeIdentity((2 ** (t + 1) - 3) ** 2, 3 * 2 ** (t + 2), 1, make_chi_t(t))


# The one place a family is added.  fishburn is torus32t at t = 1.
FAMILIES = {
    "fishburn": Family((), lambda: _torus32t_identity(1), expand_fishburn,
                       lambda: Fraction(1, 2)),
    "torus32t": Family(("t",), _torus32t_identity, expand_torus32t,
                       lambda t: Fraction(1, 2**t)),
    "torus2": Family(("m", "ell"),
                     lambda m, ell: StrangeIdentity((2 * m - 2 * ell - 1) ** 2, 8 * (2 * m + 1),
                                                    1, make_chi_m_ell(m, ell)),
                     expand_torus2, lambda m, ell: Fraction(ell + 1, 2 * m + 1)),
    "habiro-g": Family(("k",), lambda k: StrangeIdentity(k * k, 2 * k + 1, 0, make_chi_k(k)),
                       expand_habiro_g, lambda k: None),
}


def expand_family(spec: FamilySpec, N: int) -> TruncatedSeries:
    """The family's expansion at q = 1-u, through u**N."""
    return FAMILIES[spec.kind].expand(*spec.args, N)


def theta_q_expansion(ident: StrangeIdentity, order: int) -> TruncatedSeries:
    """Partial theta series sum(n**nu f(n) q**((n*n - a)/b)) through q**order."""
    _check_order(order)
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(isqrt(ident.a + ident.b * order) + 1):
        v = ident.f(n)
        if not v:
            continue
        e = (n * n - ident.a) // ident.b  # an integer >= 0, as StrangeIdentity checked
        if e <= order:
            coeffs[e] += n**ident.nu * v
    return TruncatedSeries(coeffs)


# -- disk cache ---------------------------------------------------------------

# Written into every cache file.  A file with another value, or none, was
# written by other code and is treated as absent.
CACHE_FORMAT = 1


def _read_cache(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        coeffs = [int(s) for s in data["coefficients"]]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if data.get("format") != CACHE_FORMAT:
        return None
    if not isinstance(data.get("N"), int) or len(coeffs) != data["N"] + 1:
        return None
    data["coefficients"] = coeffs
    return data


def _write_cache(path: Path, spec: FamilySpec, N: int, coeffs: list[int]) -> None:
    payload = {
        "format": CACHE_FORMAT,
        "family": spec.kind,
        "params": spec.params(),
        "N": N,
        "coefficients": [str(c) for c in coeffs],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cached_expansion(
    spec: FamilySpec, N: int, cache_dir: str | os.PathLike, fresh: bool = False
) -> TruncatedSeries:
    """Expansion at q = 1-u, reusing and extending a JSON cache directory.

    A cached run covering the requested order is sliced without recomputation,
    unless fresh is set.  In every other case the expansion is computed from
    scratch and must match the stored row where the two overlap; a
    disagreement means stored data went bad and raises instead of silently
    overwriting.  The fresh row is stored when it is longer than the stored one.
    """
    _check_order(N)
    path = Path(cache_dir) / (spec.cache_key() + ".json")
    data = _read_cache(path)
    if data is not None and (data.get("family") != spec.kind or data.get("params") != spec.params()):
        data = None
    if not fresh and data is not None and data["N"] >= N:
        return TruncatedSeries(data["coefficients"][: N + 1])
    result = expand_family(spec, N)
    coeffs = result.integer_coeffs()
    if data is not None:
        overlap = min(data["N"], N) + 1
        if coeffs[:overlap] != data["coefficients"][:overlap]:
            raise RuntimeError(f"cache file {path} disagrees with a fresh computation")
    if data is None or data["N"] < N:
        _write_cache(path, spec, N, coeffs)
    return result
