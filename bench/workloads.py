"""Seeded inputs for the three workloads.

Each workload is a stream of whole rounds; a round is a fixed list of slots,
and only the values drawn inside a slot depend on the seed. So every run
attempts the same mix, and the operations that fail (the above-bound moduli,
whose inputs are fixed) are the same share of every run.

The program only ever sees a polynomial's coefficient text and k, c, n. The
factorization of n and the roots of f are kept beside each input for the
reference count in reference.py.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import reference

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
TABLE_PRIMES = SMALL_PRIMES + (53, 59, 61, 67, 71)

# exunits.arith decides primality deterministically only below this bound.
PRIMALITY_BOUND = 318_665_857_834_031_151_167_461

# Fixed, seed-independent moduli with a prime factor above the primality
# bound (the Mersenne primes 2**89 - 1, 2**107 - 1 and 2**127 - 1); exunits
# fails every query on them with DomainError.
ABOVE_BOUND_FACTORS = (
    ((5, 1), (7, 1), (2**89 - 1, 1)),
    ((5, 1), (11, 1), (2**107 - 1, 1)),
    ((7, 1), (2**127 - 1, 1)),
)

# The default verify family of exunits, split by whether f has a closed form.
CLOSED_FORM_FAMILY = ("0,1", "1,1", "3,2", "0,1,-1")
GENERAL_FAMILY = ("1,0,1", "1,1,1", "1,1,0,1", "1,5,6")

# Polynomials with no closed form at some prime.
GENERAL_POLYS = (
    "1,0,1",          # x^2 + 1
    "1,1,1",          # x^2 + x + 1
    "1,1,0,1",        # x^3 + x + 1
    "0,-1,0,1",       # x^3 - x
    "0,4,0,-5,0,1",   # x^5 - 5x^3 + 4x
    "1,5,6",          # 6x^2 + 5x + 1 = (2x + 1)(3x + 1), on moduli divisible by 6
)
MANY_ROOT_POLYS = ("0,-1,0,1", "0,4,0,-5,0,1", "1,1,0,1")

# k for the counting-bound closed-form queries: one query per rung each round.
K_LADDER = (1000, 2000, 3000, 4000, 5000, 6000, 8000)

# Redraws of a modulus already used in the run before one is reused.
FRESH_TRIES = 1000

# Root-composition terms sum_p C(k + r - 1, r - 1) allowed per general query
# (about 1 microsecond each) and per table row.
QUERY_TERMS = 30_000
ROW_TERMS = 150


def roots_of(poly: str, linear_factors, p: int) -> tuple[int, ...]:
    """Roots of f mod p, from its known linear factors (the (a, b) of each
    factor a*x - b) or, when those are None, by a scan."""
    if linear_factors is not None:
        return reference.roots_from_factors(linear_factors, p)
    return reference.roots_mod_p(coeffs(poly), p)


class _Input:
    """Shared by Query and Table; linear_factors are the (a, b) of the factors
    a*x - b of f, or None when the reference finds the roots by a scan."""

    def roots_at(self, p: int) -> tuple[int, ...]:
        return roots_of(self.poly, self.linear_factors, p)


@dataclass(frozen=True)
class Query(_Input):
    poly: str
    k: int
    c: int
    n: int
    factors: tuple[tuple[int, int], ...]
    linear_factors: tuple[tuple[int, int], ...] | None
    above_bound: bool = False


@dataclass(frozen=True)
class Table(_Input):
    poly: str
    k: int
    n: int
    factors: tuple[tuple[int, int], ...]
    linear_factors: tuple[tuple[int, int], ...] | None


def coeffs(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _value(factors) -> int:
    return math.prod(p**e for p, e in factors)


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        candidate = rng.randrange(lo, hi) | 1
        if reference.is_prime(candidate):
            return candidate


def _pool(poly: str, linear, primes: tuple[int, ...] = SMALL_PRIMES) -> tuple[int, ...]:
    """The primes at which f has an exunit. At any other p every count on a
    modulus divisible by p is 0, and a 0 would hide a wrong factor at the
    other primes."""
    return tuple(p for p in primes if len(roots_of(poly, linear, p)) < p)


@lru_cache(maxsize=None)
def _sums(roots: tuple[int, ...], k: int, p: int) -> frozenset[int] | None:
    """The residues mod p that are sums of k non-roots; None when all are."""
    # Cauchy-Davenport: |A + A| >= min(p, 2|A| - 1), which is p once the
    # non-roots A are more than half of Z_p.
    if not roots or (k >= 2 and p > 2 * len(roots)):
        return None
    non_roots = [x for x in range(p) if x not in roots]
    reach = {0}
    for _ in range(k):
        reach = {(s + x) % p for s in reach for x in non_roots}
        if len(reach) == p:
            return None
    return frozenset(reach)


def _nonzero_c(rng: random.Random, poly: str, linear, k: int, factors) -> int:
    """A c in [0, n) whose count is not 0: at every p | n, c mod p is a sum
    of k non-roots of f. Every p must be drawn from _pool."""
    sums = [(p, _sums(roots_of(poly, linear, p), k, p)) for p, _ in factors]
    n = _value(factors)
    while True:
        c = rng.randrange(n)
        if all(s is None or c % p in s for p, s in sums):
            return c


def _query(rng: random.Random, poly: str, linear, k: int, factors) -> Query:
    return Query(poly, k, _nonzero_c(rng, poly, linear, k, factors), _value(factors),
                 factors, linear)


def _smooth(rng: random.Random, count: int, max_exp: int,
            pool: tuple[int, ...],
            required: tuple[int, ...] = ()) -> tuple[tuple[int, int], ...]:
    primes = set(required) | set(rng.sample([p for p in pool if p not in required],
                                            count - len(required)))
    return tuple((p, rng.randint(1, max_exp)) for p in sorted(primes))


def _linear(rng: random.Random) -> tuple[str, tuple[tuple[int, int], ...]]:
    a = rng.choice((1, -1))
    b = rng.randint(-99, 99)
    return f"{b},{a}", ((a, -b),)


def _quadratic(rng: random.Random) -> tuple[str, tuple[tuple[int, int], ...]]:
    # (x - u)(x - u - 1): a split quadratic whose factor determinant is 1,
    # so its closed form applies at every prime.
    u = rng.randint(-50, 50)
    return f"{u * (u + 1)},{-(2 * u + 1)},1", ((1, u), (1, u + 1))


def _terms(k: int, r: int, p: int) -> int:
    return 0 if r in (0, p) else math.comb(k + r - 1, r - 1)


def _sized_k(poly: str, primes, budget: int, k_max: int) -> int:
    """Largest k <= k_max whose root-composition terms stay within budget."""
    rs = [(p, len(reference.roots_mod_p(coeffs(poly), p))) for p in primes]
    lo, hi = 2, k_max
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if sum(_terms(mid, r, p) for p, r in rs) <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


class _Stream:
    """Rounds of one workload, drawn from (seed, round index)."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.seen: set[int] = set()
        self.index = 0

    def rounds(self) -> Iterator[list]:
        while True:
            rng = random.Random(f"{self.name}:{self.seed}:{self.index}")
            yield self.round(rng)
            self.index += 1

    def fresh(self, draw) -> tuple[tuple[int, int], ...]:
        """Call draw for a factorization until its modulus is new in this run.

        After FRESH_TRIES repeats the last draw is used anyway, so a run that
        exhausts a slot's moduli goes on instead of hanging.
        """
        for _ in range(FRESH_TRIES):
            factors = draw()
            n = _value(factors)
            if n not in self.seen:
                break
        self.seen.add(n)
        return factors


class ClosedFormQueries(_Stream):
    """Linear and split-quadratic f on large moduli; 19 queries a round.

    The slots put the median latency inside the cluster of arith-bound
    queries (about 45-70 ms) rather than in a gap between clusters.
    """

    def round(self, rng: random.Random) -> list[Query]:
        out = []
        for k in K_LADDER:           # counting-bound: smooth n, large k
            out.append(self._smooth_query(rng, _quadratic, k))
        for k in K_LADDER[3::3]:     # linear: cheap at any k
            out.append(self._smooth_query(rng, _linear, k))
        for i in range(5):           # arith-bound: a prime cofactor in 1e12..1e18
            out.append(self._cofactor_query(rng, i))
        for i in range(4):           # arith-bound: a semiprime past trial division
            out.append(self._semiprime_query(rng, i))
        factors = ABOVE_BOUND_FACTORS[self.index % len(ABOVE_BOUND_FACTORS)]
        out.append(Query("0,1,-1", 3, 1, _value(factors), factors, ((1, 0), (1, 1)),
                         above_bound=True))
        return out

    def _smooth_query(self, rng, shape, k) -> Query:
        poly, linear = shape(rng)
        pool = _pool(poly, linear)
        return _query(rng, poly, linear, k, self.fresh(lambda: _smooth(rng, 4, 3, pool)))

    def _cofactor_query(self, rng, i) -> Query:
        poly, linear = (_linear if i % 2 else _quadratic)(rng)
        pool = _pool(poly, linear)

        def draw():
            big = _random_prime(rng, 10**12, 10**18)
            return _smooth(rng, 2, 2, pool) + ((big, 1),)
        return _query(rng, poly, linear, rng.randint(2, 40), self.fresh(draw))

    def _semiprime_query(self, rng, i) -> Query:
        poly, linear = (_linear if i % 2 else _quadratic)(rng)
        pool = _pool(poly, linear)

        def draw():
            q1 = q2 = _random_prime(rng, 10**7, 10**8)
            while q2 == q1:
                q2 = _random_prime(rng, 10**7, 10**8)
            return _smooth(rng, 1, 2, pool) + tuple(sorted(((q1, 1), (q2, 1))))
        return _query(rng, poly, linear, rng.randint(2, 40), self.fresh(draw))


class GeneralQueries(_Stream):
    """Polynomials scanned at some prime; 9 queries a round."""

    def round(self, rng: random.Random) -> list[Query]:
        out = [self._small_query(rng, poly) for poly in GENERAL_POLYS]
        out.append(self._scan_query(rng, 10**3, 10**5))
        out.append(self._scan_query(rng, 8 * 10**5, 10**6))
        out.append(self._scan_query(rng, 8 * 10**5, 10**6))
        return out

    def _small_query(self, rng, poly) -> Query:
        # Only primes where f has roots, so that every query computes W.
        pool = tuple(p for p in _pool(poly, None, SMALL_PRIMES[:8])
                     if reference.roots_mod_p(coeffs(poly), p))
        required = (2, 3) if poly == "1,5,6" else ()
        factors = self.fresh(
            lambda: _smooth(rng, len(required) + 2, 8, pool, required))
        k = _sized_k(poly, [p for p, _ in factors], QUERY_TERMS, 600)
        return _query(rng, poly, None, k, factors)

    def _scan_query(self, rng, lo, hi) -> Query:
        poly = rng.choice(GENERAL_POLYS[:5])
        pool = _pool(poly, None, SMALL_PRIMES[:6])

        def draw():
            big = _random_prime(rng, lo, hi)
            return _smooth(rng, 2, 2, pool) + ((big, 1),)
        factors = self.fresh(draw)
        return _query(rng, poly, None, rng.randint(2, 6), factors)


class Sweeps(_Stream):
    """`exunits table` over one n for every c; 3 tables a round.

    Moduli may repeat across tables: each slot draws from a few dozen n.
    Every prime of n comes from _pool, so no column is all zeros.
    """

    def round(self, rng: random.Random) -> list[Table]:
        linear = self._table(rng, *_linear(rng), 50, 1500, 2500)
        quadratic = self._table(rng, *_quadratic(rng), 30, 800, 1200)
        poly = rng.choice(MANY_ROOT_POLYS)
        many_root = self._table(rng, poly, None, None, 300, 500)
        return [linear, quadratic, many_root]

    def _table(self, rng, poly, linear, k, lo, hi) -> Table:
        """A table on n in [lo, hi] with two or three prime factors; k None is
        sized to the root-composition budget of a row."""
        pool = _pool(poly, linear, TABLE_PRIMES)
        factors = rng.choice([f for f in _table_moduli(lo, hi)
                              if all(p in pool for p, _ in f)])
        if k is None:
            k = _sized_k(poly, [p for p, _ in factors], ROW_TERMS, 200)
        return Table(poly, k, _value(factors), factors, linear)


@lru_cache(maxsize=None)
def _table_moduli(lo: int, hi: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every product of two or three prime powers p**e in [lo, hi], with
    p in TABLE_PRIMES and e <= 2."""
    out = []
    for count in (2, 3):
        for primes in itertools.combinations(TABLE_PRIMES, count):
            for exps in itertools.product((1, 2), repeat=count):
                factors = tuple(zip(primes, exps))
                if lo <= _value(factors) <= hi:
                    out.append(factors)
    return tuple(out)


STREAMS = {
    "closed_form_queries": ClosedFormQueries,
    "general_queries": GeneralQueries,
    "sweeps": Sweeps,
}

# The verify family and the small cold-start call of each workload.
VERIFY_FAMILY = {
    "closed_form_queries": CLOSED_FORM_FAMILY,
    "general_queries": GENERAL_FAMILY,
    "sweeps": CLOSED_FORM_FAMILY + GENERAL_FAMILY,
}
COLD_START = {
    "closed_form_queries": Query("0,1,-1", 3, 1, 35, ((5, 1), (7, 1)), ((1, 0), (1, 1))),
    "general_queries": Query("0,-1,0,1", 3, 1, 35, ((5, 1), (7, 1)), None),
    "sweeps": Table("0,1,-1", 3, 35, ((5, 1), (7, 1)), ((1, 0), (1, 1))),
}
