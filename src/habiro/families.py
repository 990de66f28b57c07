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
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from pathlib import Path

from habiro.qseries import (
    TruncatedSeries,
    mul_dense_int,
    mul_sparse_binomial_int,
    mul_trunc_int,
    one_minus_power_int,
    qbinomial,
    subst_one_minus_int,
)
from habiro.thetaside import (
    StrangeIdentity,
    make_chi_k,
    make_chi_m_ell,
    make_chi_t,
)

FAMILY_KINDS = ("fishburn", "torus32t", "torus2", "habiro-g")

_REQUIRED_PARAMS = {
    "fishburn": (),
    "torus32t": ("t",),
    "torus2": ("m", "ell"),
    "habiro-g": ("k",),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family kind together with the integer parameters that pin one member."""

    kind: str
    t: int | None = None
    m: int | None = None
    ell: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind: {self.kind!r}")
        want = _REQUIRED_PARAMS[self.kind]
        for name in ("t", "m", "ell", "k"):
            val = getattr(self, name)
            if name in want:
                if val is None:
                    raise ValueError(f"family {self.kind} needs parameter {name}")
            elif val is not None:
                raise ValueError(f"family {self.kind} does not take parameter {name}")
        if self.kind == "torus32t" and self.t < 1:
            raise ValueError("t must be at least 1")
        if self.kind == "torus2":
            if self.m < 1:
                raise ValueError("m must be at least 1")
            if not 0 <= self.ell <= self.m - 1:
                raise ValueError(f"ell must lie in [0, {self.m - 1}]")
        if self.kind == "habiro-g" and self.k < 1:
            raise ValueError("k must be at least 1")

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
        return {name: getattr(self, name) for name in _REQUIRED_PARAMS[self.kind]}

    def label(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return self.kind if not inner else f"{self.kind}({inner})"

    def cache_key(self) -> str:
        tail = "".join(f"-{k}{v}" for k, v in self.params().items())
        return self.kind + tail


def identity_for(spec: FamilySpec) -> StrangeIdentity:
    """Strange-identity data (a, b, nu, weight) attached to a family member."""
    if spec.kind == "fishburn":
        return StrangeIdentity(1, 24, 1, make_chi_t(1))
    if spec.kind == "torus32t":
        t = spec.t
        return StrangeIdentity((2 ** (t + 1) - 3) ** 2, 3 * 2 ** (t + 2), 1, make_chi_t(t))
    if spec.kind == "torus2":
        m, ell = spec.m, spec.ell
        return StrangeIdentity(
            (2 * m - 2 * ell - 1) ** 2, 8 * (2 * m + 1), 1, make_chi_m_ell(m, ell)
        )
    k = spec.k
    return StrangeIdentity(k * k, 2 * k + 1, 0, make_chi_k(k))


def _check_order(N: int) -> None:
    if N < 0:
        raise ValueError("truncation order must be nonnegative")


def _add_shifted(a: list[int], b: list[int], shift: int, limit: int | None = None) -> list[int]:
    """Add b, shifted up by the given exponent, into a copy of a."""
    n = len(b) + shift
    if limit is not None:
        n = min(n, limit + 1)
    out = a + [0] * (n - len(a)) if n > len(a) else list(a)
    for i, c in enumerate(b):
        if c and shift + i < n:
            out[shift + i] += c
    return out


# -- direct expansions at q = 1-u --------------------------------------------


def expand_fishburn(N: int) -> TruncatedSeries:
    """Coefficients through u**N of the Kontsevich element at q = 1-u."""
    _check_order(N)
    acc = [1] + [0] * N
    term = [1] + [0] * N
    # (q;q)_n has valuation n in u, so n > N contributes nothing.
    for n in range(1, N + 1):
        term = mul_trunc_int(term, one_minus_power_int(n, N), N)
        for j in range(n, N + 1):
            acc[j] += term[j]
    return TruncatedSeries(acc)


def _torus32t_constants(t: int) -> tuple[int, int, int, int]:
    """Return (m, a, h_prime, h_doubleprime) for the rank-t element, t >= 2."""
    m = 2 ** (t - 1)
    if t % 2 == 0:
        hpp = (2**t - 1) // 3
        hp = (2**t - 4) // 3
        a = (2 ** (t - 1) + 1) // 3
    else:
        hpp = (2**t - 2) // 3
        hp = (2**t - 5) // 3
        a = (2**t + 1) // 3
    return m, a, hp, hpp


def expand_torus32t(t: int, N: int) -> TruncatedSeries:
    """Coefficients through u**N of the rank-t torus-knot element at q = 1-u.

    The multi-index sum collapses, level by level, into products of sparse
    binomials in x = q**(1/m): only exponents congruent to a single residue
    class mod m survive the defining congruence, so the expansion extracts
    that class and substitutes q = 1-u once per outer index.
    """
    _check_order(N)
    if t < 1:
        raise ValueError("t must be at least 1")
    if t == 1:
        return expand_fishburn(N)
    m, a, hp, hpp = _torus32t_constants(t)
    # Residue extraction below matches the defining congruence only when
    # 3*a == 1 mod m; anything else means the constants are corrupt.
    if (3 * a) % m != 1 or not 0 <= a < m:
        raise RuntimeError("congruence filter violated")
    acc = [0] * (N + 1)
    prod = [1]
    for n in range(N + 1):
        if n:
            prod = mul_sparse_binomial_int(prod, m * n)
            base = m * (n - 1)
            for l in range(1, m):
                prod = mul_sparse_binomial_int(prod, l + base)
        # Sum over the residual index of partial products of the fresh factors.
        q_part = list(prod)
        total = list(prod)
        for l in range(1, m):
            q_part = mul_sparse_binomial_int(q_part, l + m * n)
            total = _add_shifted(total, q_part, 0)
        survivors = [total[e] for e in range(a, len(total), m)]
        term = subst_one_minus_int(survivors, N)
        for j in range(N + 1):
            acc[j] += term[j]
    # Prefactor q**(-h') becomes (1-u)**(-h'), with sign (-1)**h''.
    neg_power = [1] + [comb(hp + j - 1, j) for j in range(1, N + 1)]
    out = mul_trunc_int(acc, neg_power, N)
    if hpp % 2:
        out = [-c for c in out]
    return TruncatedSeries(out)


def expand_torus2(m: int, ell: int, N: int) -> TruncatedSeries:
    """Coefficients through u**N of the two-parameter nested element at q = 1-u.

    The nested sum is assembled bottom-up: level i carries exponent
    k_i**2 (+ k_i past level ell) and binomial [k_{i+1} + delta(i, ell), k_i],
    and the outermost index contributes (q;q)_{k_m} with valuation k_m.
    """
    _check_order(N)
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 <= ell <= m - 1:
        raise ValueError(f"ell must lie in [0, {m - 1}]")
    if m == 1:
        return expand_fishburn(N)
    bounds = [0] * (m + 1)
    bounds[m] = N
    for i in range(m - 1, 0, -1):
        bounds[i] = bounds[i + 1] + (1 if i == ell else 0)
    prev = [[1] for _ in range(bounds[1] + 1)]
    for i in range(1, m):
        d = 1 if i == ell else 0
        lin = 1 if i > ell else 0
        cur = []
        for j in range(bounds[i + 1] + 1):
            total: list[int] = []
            for ki in range(j + d + 1):
                piece = mul_dense_int(qbinomial(j + d, ki), prev[ki])
                total = _add_shifted(total, piece, ki * ki + lin * ki)
            cur.append(total)
        prev = cur
    poly: list[int] = []
    poch = [1]
    for km in range(N + 1):
        if km:
            poch = mul_sparse_binomial_int(poch, km)
        poly = _add_shifted(poly, mul_dense_int(poch, prev[km]), 0)
    return TruncatedSeries(subst_one_minus_int(poly, N))


def expand_habiro_g(k: int, N: int) -> TruncatedSeries:
    """Coefficients through u**N of the odd-pochhammer nested element at q = 1-u.

    Levels run over the base q**2: every inner index carries 2n**2 + 2n, and
    the outermost contributes q**n (q;q**2)_n, whose valuation n cuts the
    outer sum at N.
    """
    _check_order(N)
    if k < 1:
        raise ValueError("k must be at least 1")
    prev = [[1] for _ in range(N + 1)]
    for _ in range(1, k):
        cur = []
        for j in range(N + 1):
            total: list[int] = []
            for n in range(j + 1):
                e = 2 * n * n + 2 * n
                piece = mul_dense_int(qbinomial(j, n, base_power=2), prev[n])
                total = _add_shifted(total, piece, e)
            cur.append(total)
        prev = cur
    poly: list[int] = []
    oddpoch = [1]
    for nk in range(N + 1):
        if nk:
            oddpoch = mul_sparse_binomial_int(oddpoch, 2 * nk - 1)
        poly = _add_shifted(poly, mul_dense_int(oddpoch, prev[nk]), nk)
    return TruncatedSeries(subst_one_minus_int(poly, N))


def expand_habiro_g_qseries(k: int, order: int) -> TruncatedSeries:
    """Plain q-expansion of the odd-pochhammer nested element through q**order."""
    _check_order(order)
    if k < 1:
        raise ValueError("k must be at least 1")
    # Inner indices enter through 2n**2, so only n with 2n**2 <= order matter.
    inner_bound = isqrt(order // 2) + 1
    prev = [[1] for _ in range(order + 1)]
    for i in range(1, k):
        top = order if i == k - 1 else inner_bound
        cur = []
        for j in range(top + 1):
            total: list[int] = []
            for n in range(min(j, inner_bound) + 1):
                e = 2 * n * n + 2 * n
                if e > order:
                    break
                piece = mul_trunc_int(prev[n], qbinomial(j, n, base_power=2), order - e)
                total = _add_shifted(total, piece, e, limit=order)
            cur.append(total)
        prev = cur
    poly: list[int] = []
    oddpoch = [1]
    for nk in range(order + 1):
        if nk:
            oddpoch = mul_sparse_binomial_int(oddpoch, 2 * nk - 1, limit=order)
        piece = mul_trunc_int(prev[nk], oddpoch, order - nk)
        poly = _add_shifted(poly, piece, nk, limit=order)
    poly += [0] * (order + 1 - len(poly))
    return TruncatedSeries(poly)


def expand_family(spec: FamilySpec, N: int) -> TruncatedSeries:
    """Dispatch to the family's expansion at q = 1-u."""
    if spec.kind == "fishburn":
        return expand_fishburn(N)
    if spec.kind == "torus32t":
        return expand_torus32t(spec.t, N)
    if spec.kind == "torus2":
        return expand_torus2(spec.m, spec.ell, N)
    return expand_habiro_g(spec.k, N)


def theta_q_expansion(ident: StrangeIdentity, order: int) -> TruncatedSeries:
    """Partial theta series sum(n**nu f(n) q**((n*n - a)/b)) through q**order."""
    _check_order(order)
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(isqrt(ident.a + ident.b * order) + 1):
        v = ident.f(n)
        if not v:
            continue
        e = n * n - ident.a
        if e < 0 or e % ident.b:
            raise ValueError(
                f"identity parameters inconsistent: non-integral exponent at n={n}"
            )
        e //= ident.b
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
    spec: FamilySpec, N: int, cache_dir: str | os.PathLike | None, fresh: bool = False
) -> TruncatedSeries:
    """Expansion at q = 1-u, reusing and extending a JSON cache directory.

    A cached run covering the requested order is sliced without recomputation,
    unless fresh is set.  In every other case the expansion is computed from
    scratch and must match the stored row where the two overlap; a
    disagreement means stored data went bad and raises instead of silently
    overwriting.  The fresh row is stored when it is longer than the stored one.
    """
    _check_order(N)
    if cache_dir is None:
        return expand_family(spec, N)
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
