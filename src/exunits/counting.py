"""Closed-form counting of k-term exunit sums modulo n.

The number being computed is

    N(k, f, c, n) = #{(x_1, ..., x_k) in E_f(n)**k : x_1 + ... + x_k == c mod n}

where E_f(n) is the set of residues a with gcd(f(a), n) = 1. N is
multiplicative in n, so everything reduces to per-prime data. For a prime p
let R be the distinct root set of f mod p, r = |R|, and for the target
residue c let

    W = #{k-tuples drawn from R summing to c mod p}
    T = #{k-tuples avoiding R summing to c mod p}.

Expanding the additive character sum for T over an arbitrary root set gives
the exact integer identity

    T = ((p - r)**k + (-1)**k * (p*W - r**k)) / p

and the local obstruction count is M = p**(k-1) - T. The multiplicative
assembly, regrouped to avoid rational arithmetic, is

    N(n) = prod over p**e || n of  p**((e-1)*(k-1)) * (p**(k-1) - M).

The general, linear and split-quadratic routes run this one per-prime
engine and differ only in the precondition they check against n. Per prime
the roots come in closed form (coprime-linear or split-quadratic f) or from
a scan, cached per polynomial and prime. With two roots {a, b}, W is the
binomial class sum of C(k, j) over j == (c - b*k) / (a - b) (mod p), and
one walk of j = 0..k/2 gives it at every two-root prime of a query (or at
every residue, for a table), since C(k, j) = C(k, k - j). Above two roots W
takes the first root j times, weighted by C(k, j), and walks the rest,
keeping repeated sub-walks in a bounded memo. Brauer's unit-sum count and
the exceptional-unit count (x and 1 - x both units) stay independent
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Sequence

from .arith import factorize, is_prime, mod_inverse
from .errors import (
    BudgetExceededError,
    DomainError,
    FastPathInapplicableError,
    InvariantViolationError,
)
from .poly import (
    IntPolynomial,
    LinearCoprime,
    SplitQuadratic,
    classify,
    root_set_mod_p,
)

__all__ = [
    "MAX_K",
    "MAX_COMPOSITION_TERMS",
    "CountQuery",
    "RootProfile",
    "LocalFactor",
    "CountReport",
    "root_composition_count",
    "count_avoiding_tuples",
    "local_count",
    "global_count",
    "linear_count",
    "quadratic_count",
    "count_table",
    "brauer_count",
    "yang_zhao_count",
    "count",
]

# Binomial weights C(k, j) are exact big integers, but the j-loops are O(k),
# so k is kept to desk scale.
MAX_K = 10**6

# A composition walk over r >= 3 roots visits about C(k + r - 1, r - 1)
# terms, each a big-integer multiply-add; past this many it is refused
# before it starts.
MAX_COMPOSITION_TERMS = 10**5

# Binomial class sums up to _COMB_K take math.comb per class member, which
# beats a walk in Python there. Above it the walk sorts the class hits of
# _WALK_CHUNK consecutive j at a time, so its memory stays bounded at any k.
# A walk over r >= 3 roots keeps at most _MEMO_ENTRIES sub-sums.
_COMB_K, _WALK_CHUNK, _MEMO_ENTRIES = 64, 1024, 4096

# count_table allocates one big integer per row; past this many rows it is
# refused before anything is allocated.
TABLE_ROW_BUDGET = 10**5


@dataclass(frozen=True)
class CountQuery:
    """One counting instance: polynomial f, arity k >= 2, target c, modulus n."""

    f: IntPolynomial
    k: int
    c: int
    n: int

    def __post_init__(self) -> None:
        _check_k_n(self.k, self.n)

    @property
    def c_reduced(self) -> int:
        return self.c % self.n


@dataclass(frozen=True)
class RootProfile:
    """Root data of f at one prime together with the derived local counts."""

    p: int
    roots: tuple[int, ...]
    root_count: int
    root_sum_count: int        # k-tuples drawn from the roots, summing to c
    avoiding_sum_count: int    # k-tuples avoiding every root, summing to c
    obstruction_count: int     # p**(k-1) - avoiding_sum_count


@dataclass(frozen=True)
class LocalFactor:
    """Per-prime record of a count: obstruction count and integer contribution."""

    p: int
    exponent: int
    obstruction_count: int
    contribution: int


@dataclass(frozen=True)
class CountReport:
    """An exact count plus how it was obtained.

    For the formula methods the value equals the product of the per-prime
    contributions (empty product for n = 1). Oracle-produced reports carry no
    per-prime breakdown.
    """

    value: int
    method: str
    per_prime: tuple[LocalFactor, ...]


def _validated_roots(roots: Sequence[int], p: int) -> tuple[int, ...]:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    reduced = tuple(x % p for x in roots)
    if len(set(reduced)) != len(reduced):
        raise DomainError("duplicate roots modulo p")
    return reduced


def _two_root_sums(k: int, cases: Sequence[tuple[tuple[int, ...], int, int]]) -> list[int]:
    """W for each case (roots {a, b}, c, p): k-tuples of a and b summing to c.

    A tuple taking a j times sums to a*j + b*(k - j), so W is the sum of
    C(k, j) over the class j == t = (c - b*k) / (a - b) (mod p). One walk of
    j = 0..k//2 serves every case: C(k, j) = C(k, k - j) goes to the classes
    of both j and k - j, and the walk stops at the last j any class takes.
    """
    classes = []
    for (a, b), c, p in cases:
        classes.append(((c - b * k) * pow(a - b, -1, p) % p, p))
    if k <= _COMB_K:
        sums = []
        for t, p in classes:
            sums.append(sum(map(math.comb, repeat(k), range(t, k + 1, p))))
        return sums
    half, m = k // 2, len(classes)
    sums = [0] * m
    binom = 1
    j = 0
    for lo in range(0, half + 1, _WALK_CHUNK):
        hi = min(lo + _WALK_CHUNK, half + 1)
        events = []    # j * m + i for each class i that takes C(k, j)
        for i, (t, p) in enumerate(classes):
            events += range((lo + (t - lo) % p) * m + i, hi * m, p * m)
            events += range((lo + (k - t - lo) % p) * m + i, min(hi, k - half) * m, p * m)
        events.sort()
        for event in events:
            at, i = divmod(event, m)
            while j < at:
                binom = binom * (k - j) // (j + 1)
                j += 1
            sums[i] += binom
    return sums


def _root_sum(roots: tuple[int, ...], k: int, c: int, p: int, memo: dict) -> int:
    # W for distinct reduced roots and any k >= 0. One root x: every tuple
    # sums to k*x. Two roots: one class sum. More roots: the first, x, taken
    # j times fills C(k, j) position sets and leaves (k-j)-tuples of the
    # others summing to c - j*x. Sub-walks repeat, within a walk and across
    # the targets of the same roots, k and p, so memo keeps them by
    # (r, k, c mod p); when full it starts over.
    r = len(roots)
    if r <= 1:
        return int(r == 1 and (k * roots[0] - c) % p == 0)
    key = (r, k, c % p)
    w = memo.get(key)
    if w is None:
        if r == 2:
            w = _two_root_sums(k, [(roots, c, p)])[0]
        else:
            x, rest = roots[0], roots[1:]
            w = 0
            binom = 1
            for j in range(k + 1):
                w += binom * _root_sum(rest, k - j, c - j * x, p, memo)
                binom = binom * (k - j) // (j + 1)
        if len(memo) >= _MEMO_ENTRIES:
            memo.clear()
        memo[key] = w
    return w


def root_composition_count(roots: Sequence[int], k: int, c: int, p: int) -> int:
    """Ordered k-tuples (repetition allowed) of the given residues summing to
    c mod p.

    Up to two roots this is a closed-form sum. For r >= 3 it walks the
    multiplicity j of the first root, weights the rest by C(k, j) and
    recurses down to the two-root sum; more than MAX_COMPOSITION_TERMS
    compositions, C(k + r - 1, r - 1), are refused with BudgetExceededError.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    reduced = _validated_roots(roots, p)
    r = len(reduced)
    if r >= 3:
        terms = math.comb(k + r - 1, r - 1)
        if terms > MAX_COMPOSITION_TERMS:
            raise BudgetExceededError(
                f"{terms} root compositions exceed the budget {MAX_COMPOSITION_TERMS}")
    return _root_sum(reduced, k, c, p, _walk_memo(reduced, k, p))


@lru_cache(maxsize=1)
def _walk_memo(roots: tuple[int, ...], k: int, p: int) -> dict:
    # The sub-sums of the last roots, k and p walked; they hold for every
    # target c, so the residues of a table column share them.
    return {}


def _root_and_avoiding_sums(p: int, roots: tuple[int, ...], k: int, c: int,
                            w: int | None = None) -> tuple[int, int]:
    # (W, T) for the distinct reduced roots of f at p; W is computed unless
    # given. When f vanishes identically mod p every tuple hits a root, so
    # T = 0 with no W walk; up to two roots W needs no validation or budget.
    r = len(roots)
    if r == p:
        return p ** (k - 1), 0
    if w is None:
        w = _root_sum(roots, k, c, p, {}) if r <= 2 else root_composition_count(roots, k, c, p)
    t, rem = divmod((p - r) ** k + (-1) ** k * (p * w - r**k), p)
    if rem:
        raise InvariantViolationError("avoiding-tuple count is not an integer")
    return w, t


def count_avoiding_tuples(p: int, roots: Sequence[int], k: int, c: int) -> int:
    """k-tuples over Z_p minus the given roots summing to c mod p.

    Evaluated through T = ((p - r)**k + (-1)**k * (p*W - r**k)) / p, which is
    always an exact integer; a nonzero remainder is a bug, never an input
    condition.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    return _root_and_avoiding_sums(p, _validated_roots(roots, p), k, c)[1]


# The one roots cache, keyed by the coefficient tuple (cheaper to hash than
# the polynomial). The default verify grid needs 8 polynomials at 39 primes,
# and at the acceptance sizes at 55, so 512 entries hold either. p comes
# from factorize or is checked by the caller.
@lru_cache(maxsize=512)
def _roots_for_prime(coeffs: tuple[int, ...], p: int) -> tuple[int, ...]:
    # By modular inverses when f is coprime-linear or split-quadratic against
    # p (any prime size, no scan), else by a scan.
    f = IntPolynomial(coeffs)
    form = classify(f, p)
    if isinstance(form, LinearCoprime):
        return ((-form.b) * mod_inverse(form.a, p) % p,)
    if isinstance(form, SplitQuadratic):
        x = form.a2 * mod_inverse(form.a1, p) % p
        y = form.b2 * mod_inverse(form.b1, p) % p
        return (x, y) if x < y else (y, x)
    return root_set_mod_p(f, p)


def local_count(f: IntPolynomial, k: int, c: int, p: int) -> RootProfile:
    """The local data of f at the prime p for arity k and target c.

    The obstruction count M is p**(k-1) - T; it is 0 when f has no root mod p
    and p**(k-1) when f vanishes identically mod p.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    roots = _roots_for_prime(f.coeffs, p)
    w, t = _root_and_avoiding_sums(p, roots, k, c % p)
    return RootProfile(p, roots, len(roots), w, t, p ** (k - 1) - t)


def _local_factor(p: int, e: int, k: int, unit: int) -> LocalFactor:
    # unit is the nu_p = 1 contribution p**(k-1) - M; range-check it before
    # scaling by the prime-power regrouping factor.
    bound = p ** (k - 1)
    if not 0 <= unit <= bound:
        raise InvariantViolationError("per-prime factor out of range")
    return LocalFactor(p, e, bound - unit, p ** ((e - 1) * (k - 1)) * unit)


def _assemble(method: str, factors: list[LocalFactor]) -> CountReport:
    value = 1
    for factor in factors:
        value *= factor.contribution
    return CountReport(value, method, tuple(factors))


def _per_prime_count(q: CountQuery, method: str) -> CountReport:
    # The one engine behind every formula route: per prime, roots, then
    # (W, T), then the regrouped factor; method only labels the report. The
    # two-root primes take W from one shared binomial-row walk.
    k, c = q.k, q.c_reduced
    primes = []
    pairs = []
    for p, e in factorize(q.n):
        roots = _roots_for_prime(q.f.coeffs, p)
        primes.append((p, e, roots))
        if len(roots) == 2 != p:
            pairs.append((roots, c, p))
    w = dict(zip([p for _, _, p in pairs], _two_root_sums(k, pairs))) if pairs else {}
    factors = []
    for p, e, roots in primes:
        _, t = _root_and_avoiding_sums(p, roots, k, c % p, w.get(p))
        factors.append(_local_factor(p, e, k, t))
    return _assemble(method, factors)


def global_count(q: CountQuery) -> CountReport:
    """Exact N for any polynomial, via per-prime obstruction counts."""
    return _per_prime_count(q, "general")


def linear_count(q: CountQuery) -> CountReport:
    """N for f = a*x + b with gcd(a, n) = 1.

    At every p | n the single root is -b/a, so W is 1 when p divides
    a*c + k*b and 0 otherwise; raises FastPathInapplicableError when f is
    not of that form against n.
    """
    if not isinstance(classify(q.f, q.n), LinearCoprime):
        raise FastPathInapplicableError(
            "f is not linear with leading coefficient coprime to n")
    return _per_prime_count(q, "linear")


def quadratic_count(q: CountQuery) -> CountReport:
    """N for f = (a1*x - a2)(b1*x - b2) with a1, b1, a1*b2 - a2*b1 units mod n.

    At every p | n the root pair is a2/a1 and b2/b1 (computable by modular
    inverse for any prime size, no scan), and W is the sum of C(k, j) over
    the class (a2*b1 - a1*b2)*j == a1*b1*c - a1*b2*k (mod p); raises
    FastPathInapplicableError when f is not of that form against n.
    """
    if not isinstance(classify(q.f, q.n), SplitQuadratic):
        raise FastPathInapplicableError(
            "f does not split into integer linear factors that are unit-compatible with n")
    return _per_prime_count(q, "quadratic")


def count_table(f: IntPolynomial, k: int, n: int) -> list[int]:
    """N(k, f, c, n) for every target c in [0, n), from per-prime columns.

    N depends on c only through c mod p at each p | n, so every prime gets
    one column of p regrouped factors, one per residue, and row c is the
    product of column[c % p] over the primes: sum(p) local evaluations
    instead of one full count per row, and every residue of every two-root
    prime takes its W from one binomial-row walk. More than
    TABLE_ROW_BUDGET rows are refused with BudgetExceededError.
    """
    CountQuery(f, k, 0, n)
    if n > TABLE_ROW_BUDGET:
        raise BudgetExceededError(f"n = {n} exceeds the table budget {TABLE_ROW_BUDGET}")
    primes = [(p, e, _roots_for_prime(f.coeffs, p)) for p, e in factorize(n)]
    pairs = [(roots, a, p) for p, _, roots in primes if len(roots) == 2 != p for a in range(p)]
    w = {(a, p): s for (_, a, p), s in zip(pairs, _two_root_sums(k, pairs))}
    values = [1] * n
    for p, e, roots in primes:
        column = [_local_factor(p, e, k,
                                _root_and_avoiding_sums(p, roots, k, a, w.get((a, p)))[1]).contribution
                  for a in range(p)]
        for c in range(n):
            values[c] *= column[c % p]
    return values


def _check_k_n(k: int, n: int) -> None:
    if not 2 <= k <= MAX_K:
        raise DomainError(f"k must be in [2, {MAX_K}]")
    if n < 1:
        raise DomainError("n must be >= 1")


def brauer_count(k: int, c: int, n: int) -> CountReport:
    """Number of k-tuples of units mod n summing to c (the classical count).

    Evaluated per prime power from the closed form
    phi(n)**k / n * prod(1 - (-1)**(k-1)/(p-1)**(k-1)) over p | n dividing c
    times prod(1 - (-1)**k/(p-1)**k) over the remaining p | n, regrouped so
    every factor is an exact integer.
    """
    _check_k_n(k, n)
    c %= n
    factors = []
    for p, e in factorize(n):
        if c % p == 0:
            numerator = (p - 1) * ((p - 1) ** (k - 1) - (-1) ** (k - 1))
        else:
            numerator = (p - 1) ** k - (-1) ** k
        unit, rem = divmod(numerator, p)
        if rem:
            raise InvariantViolationError("unit-count per-prime factor is not an integer")
        factors.append(_local_factor(p, e, k, unit))
    return _assemble("brauer", factors)


def yang_zhao_count(k: int, c: int, n: int) -> CountReport:
    """Number of ways to write c mod n as a sum of k exceptional units
    (residues x with both x and 1 - x units).

    Per prime the contribution is (-1)**k * (p*S + (2-p)**k - 2**k) / p with
    S the sum of C(k, j) over j == c (mod p); its agreement with
    quadratic_count on f = x - x**2 is a tested identity, not an assumption.
    """
    _check_k_n(k, n)
    c %= n
    sign = (-1) ** k
    # S is W for the root pair {1, 0}
    primes = factorize(n)
    sums = _two_root_sums(k, [((1, 0), c, p) for p, _ in primes])
    factors = []
    for (p, e), s in zip(primes, sums):
        bracket = p * s + (2 - p) ** k - 2**k
        unit, rem = divmod(sign * bracket, p)
        if rem:
            raise InvariantViolationError("exceptional-unit per-prime factor is not an integer")
        factors.append(_local_factor(p, e, k, unit))
    return _assemble("yang_zhao", factors)


def count(q: CountQuery, method: str = "auto") -> CountReport:
    """Count q by the named route; all routes agree in value whenever their
    preconditions hold.

    method "auto" labels the report by classify(f, n): "linear",
    "quadratic" or "general". An explicitly requested fast path whose
    preconditions fail raises FastPathInapplicableError.
    """
    if method == "auto":
        form = classify(q.f, q.n)
        label = ("linear" if isinstance(form, LinearCoprime)
                 else "quadratic" if isinstance(form, SplitQuadratic) else "general")
        return _per_prime_count(q, label)
    if method == "general":
        return global_count(q)
    if method == "linear":
        return linear_count(q)
    if method == "quadratic":
        return quadratic_count(q)
    raise DomainError(f"unknown method {method!r}")
