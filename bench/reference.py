"""Counts computed apart from exunits, used to check its answers.

Nothing here imports the package. The count factors over the prime powers
p**e that exactly divide n:

    N(k, f, c, n) = prod over p**e || n of p**((e-1)*(k-1)) * T_p(c mod p)

where T_p(c) is the number of k-tuples over Z_p that avoid every root of f
mod p and sum to c. A residue mod p**e is an f-exunit exactly when its
reduction mod p is not a root; the first k-1 entries of a tuple mod p**e lift
freely and the last one is forced, which gives the factor p**((e-1)*(k-1)).

T_p comes from one of two computations. For small p it is the c-th entry of
the k-th cyclic convolution power of the indicator of the non-roots. Above
that, inclusion-exclusion over the tuple positions that hit the root set R
(r = |R|) gives

    T_p(c) = sum_{j<k} (-1)**j C(k, j) r**j p**(k-1-j) + (-1)**k W(c)
           = ((p - r)**k - (-r)**k) / p + (-1)**k W(c)

with W(c) the number of k-tuples drawn from R that sum to c, counted here by
binomial buckets (r <= 2) or by powering the root multiset (r >= 3).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

# T_p by cyclic convolution up to this prime, by inclusion-exclusion above it.
CONVOLUTION_MAX_P = 13
# Whole T_p vectors are built (and cached) up to this prime; above it only
# the entry a query needs is computed.
VECTOR_MAX_P = 5000

# Miller-Rabin with the first twelve prime bases is exact below 3.18e23,
# which covers every prime the workloads draw at random.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 3.18e23."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def value_at(coeffs: Sequence[int], x: int) -> int:
    """f(x) over the integers, coefficients in ascending degree."""
    acc = 0
    for coef in reversed(coeffs):
        acc = acc * x + coef
    return acc


@lru_cache(maxsize=None)
def roots_mod_p(coeffs: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Every x in [0, p) with f(x) == 0 mod p, by evaluating f at each x."""
    if p < 1024:
        return tuple(x for x in range(p) if value_at(coeffs, x) % p == 0)
    if p >= 2**31:
        raise ValueError(f"no root scan at p = {p}")
    # int64 stays exact: every partial value is reduced below p < 2**31.
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for coef in reversed(coeffs):
        acc = (acc * xs + coef % p) % p
    return tuple(int(x) for x in np.flatnonzero(acc == 0))


def roots_from_factors(factors: Iterable[tuple[int, int]], p: int) -> tuple[int, ...]:
    """Roots mod p of a product of linear factors a*x - b with a a unit mod p."""
    return tuple(sorted({b * pow(a, -1, p) % p for a, b in factors}))


def sum_counts(roots: Sequence[int], k: int, p: int) -> dict[int, int]:
    """W: residue s -> number of k-tuples drawn from roots summing to s mod p."""
    r = len(roots)
    if r == 0:
        return {}
    if r == 1:
        return {k * roots[0] % p: 1}
    if r == 2:
        x, y = roots
        out: dict[int, int] = {}
        binom = 1
        for j in range(k + 1):          # j entries x, k - j entries y
            s = (j * x + (k - j) * y) % p
            out[s] = out.get(s, 0) + binom
            binom = binom * (k - j) // (j + 1)
        return out

    def mul(u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for s, a in u.items():
            for t, b in v.items():
                key = (s + t) % p
                out[key] = out.get(key, 0) + a * b
        return out

    result = {0: 1}
    base = {x % p: 1 for x in roots}
    e = k
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _free_part(r: int, k: int, p: int) -> int:
    # The j < k terms of the inclusion-exclusion, summed by the binomial
    # theorem; (p - r)**k and (-r)**k agree mod p, so the division is exact.
    return ((p - r) ** k - (-r) ** k) // p


def convolution_vector(roots: Sequence[int], k: int, p: int) -> list[int]:
    """T_p for every c: the k-th cyclic convolution power of the non-roots."""
    hit = set(roots)
    base = [0 if x in hit else 1 for x in range(p)]

    def convolve(u: list[int], v: list[int]) -> list[int]:
        out = [0] * p
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    out[(i + j) % p] += a * b
        return out

    result = [1] + [0] * (p - 1)
    e = k
    while e:
        if e & 1:
            result = convolve(result, base)
        e >>= 1
        if e:
            base = convolve(base, base)
    return result


def inclusion_exclusion_vector(roots: Sequence[int], k: int, p: int) -> list[int]:
    """T_p for every c by inclusion-exclusion over the root set."""
    w = sum_counts(roots, k, p)
    free = _free_part(len(roots), k, p)
    sign = -1 if k % 2 else 1
    return [free + sign * w.get(c, 0) for c in range(p)]


@lru_cache(maxsize=4096)
def avoiding_vector(roots: tuple[int, ...], k: int, p: int) -> tuple[int, ...]:
    if p <= CONVOLUTION_MAX_P:
        return tuple(convolution_vector(roots, k, p))
    return tuple(inclusion_exclusion_vector(roots, k, p))


def avoiding_count(roots: Sequence[int], k: int, p: int, c: int) -> int:
    """T_p(c) for the given distinct roots mod p."""
    if p <= VECTOR_MAX_P:
        # Shifting every entry by t maps tuples avoiding R and summing to c
        # onto tuples avoiding R - t and summing to c - k*t, so one vector
        # per root-set shape serves every translate.
        shift = min(roots) if roots else 0
        base = tuple(sorted((x - shift) % p for x in roots))
        return avoiding_vector(base, k, p)[(c - k * shift) % p]
    w = sum_counts(roots, k, p).get(c % p, 0)
    return _free_part(len(roots), k, p) + (-1 if k % 2 else 1) * w


RootsAt = Callable[[int], Sequence[int]]


def global_count(factors: Sequence[tuple[int, int]], roots_at: RootsAt,
                 k: int, c: int) -> int:
    """N(k, f, c, n) for n = prod p**e, with roots_at(p) the roots of f mod p."""
    out = 1
    for p, e in factors:
        out *= p ** ((e - 1) * (k - 1)) * avoiding_count(roots_at(p), k, p, c)
    return out


def table_column(factors: Sequence[tuple[int, int]], roots_at: RootsAt,
                 k: int, n: int) -> list[int]:
    """N(k, f, c, n) for every c in [0, n), one T_p vector per prime."""
    columns = []
    for p, e in factors:
        roots = roots_at(p)
        vector = [avoiding_count(roots, k, p, c) for c in range(p)]
        columns.append((p, p ** ((e - 1) * (k - 1)), vector))
    out = []
    for c in range(n):
        value = 1
        for p, lift, vector in columns:
            value *= lift * vector[c % p]
        out.append(value)
    return out


def exunit_count(coeffs: Sequence[int], n: int) -> int:
    """|E_f(n)| by testing gcd(f(a), n) == 1 for every a in [0, n)."""
    return sum(1 for a in range(n) if math.gcd(value_at(coeffs, a), n) == 1)

