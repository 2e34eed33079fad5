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
a scan, and W is one walk over the roots whose base cases are the indicator
(r = 1) and the binomial class sum (r = 2): above two roots it takes the
first root j times, weighted by C(k, j), and walks the rest. Brauer's
unit-sum count and the exceptional-unit count (x and 1 - x both units) stay
independent closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


def _binomial_class_sum(k: int, coef: int, target: int, p: int) -> int:
    """Sum of C(k, j) over 0 <= j <= k with coef*j == target (mod p)."""
    total = 0
    binom = 1
    for j in range(k + 1):
        if (coef * j - target) % p == 0:
            total += binom
        binom = binom * (k - j) // (j + 1)
    return total


def _root_sum(roots: tuple[int, ...], k: int, c: int, p: int) -> int:
    # W for distinct reduced roots and any k >= 0. One root x: every tuple
    # sums to k*x. Roots {a, b}: a tuple taking a j times sums to
    # a*j + b*(k-j). More roots: the first, x, taken j times fills C(k, j)
    # position sets and leaves (k-j)-tuples of the others summing to c - j*x.
    r = len(roots)
    if r <= 1:
        return int(r == 1 and (k * roots[0] - c) % p == 0)
    if r == 2:
        a, b = roots
        return _binomial_class_sum(k, (a - b) % p, (c - b * k) % p, p)
    x, rest = roots[0], roots[1:]
    total = 0
    binom = 1
    for j in range(k + 1):
        total += binom * _root_sum(rest, k - j, c - j * x, p)
        binom = binom * (k - j) // (j + 1)
    return total


def root_composition_count(roots: Sequence[int], k: int, c: int, p: int) -> int:
    """Ordered k-tuples (repetition allowed) of the given residues summing to
    c mod p.

    Up to two roots this is a closed-form sum. For r >= 3 it walks the
    multiplicity j of the first root, weights the rest by C(k, j) and
    recurses down to the two-root sum: about C(k + r - 1, r - 1) terms,
    refused with BudgetExceededError above MAX_COMPOSITION_TERMS.
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
    return _root_sum(reduced, k, c, p)


def _root_and_avoiding_sums(p: int, roots: tuple[int, ...], k: int, c: int) -> tuple[int, int]:
    # (W, T) for the distinct reduced roots of f at p. When f vanishes
    # identically mod p every tuple hits a root, so T = 0 with no W walk; up
    # to two roots W is a closed form that needs no validation or budget.
    r = len(roots)
    if r == p:
        return p ** (k - 1), 0
    w = _root_sum(roots, k, c, p) if r <= 2 else root_composition_count(roots, k, c, p)
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


@lru_cache(maxsize=4096)
def _closed_form_roots(coeffs: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    # The roots of f mod p by modular inverses when f is coprime-linear or
    # split-quadratic against p (any prime size, no scan), else None. Keyed
    # by the coefficient tuple, whose hash is cheaper than the polynomial's.
    form = classify(IntPolynomial(coeffs), p)
    if isinstance(form, LinearCoprime):
        return ((-form.b) * mod_inverse(form.a, p) % p,)
    if isinstance(form, SplitQuadratic):
        x = form.a2 * mod_inverse(form.a1, p) % p
        y = form.b2 * mod_inverse(form.b1, p) % p
        return (x, y) if x < y else (y, x)
    return None


def _roots_for_prime(f: IntPolynomial, p: int) -> tuple[int, ...]:
    roots = _closed_form_roots(f.coeffs, p)
    return root_set_mod_p(f, p) if roots is None else roots


def local_count(f: IntPolynomial, k: int, c: int, p: int) -> RootProfile:
    """The local data of f at the prime p for arity k and target c.

    The obstruction count M is p**(k-1) - T; it is 0 when f has no root mod p
    and p**(k-1) when f vanishes identically mod p.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    roots = _roots_for_prime(f, p)
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
    # (W, T), then the regrouped factor; method only labels the report.
    k, c = q.k, q.c_reduced
    factors = []
    for p, e in factorize(q.n):
        _, t = _root_and_avoiding_sums(p, _roots_for_prime(q.f, p), k, c % p)
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
    instead of one full count per row. More than TABLE_ROW_BUDGET rows are
    refused with BudgetExceededError.
    """
    CountQuery(f, k, 0, n)
    if n > TABLE_ROW_BUDGET:
        raise BudgetExceededError(f"n = {n} exceeds the table budget {TABLE_ROW_BUDGET}")
    values = [1] * n
    for p, e in factorize(n):
        roots = _roots_for_prime(f, p)
        column = [_local_factor(p, e, k, _root_and_avoiding_sums(p, roots, k, a)[1]).contribution
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
    factors = []
    for p, e in factorize(n):
        s = _binomial_class_sum(k, 1, c % p, p)
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
