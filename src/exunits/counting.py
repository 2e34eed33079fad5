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

Single counts (the general, linear and split-quadratic routes differ only
in the precondition they check against n), tables and local_count run one
per-prime pass over a set of targets: c mod p, or every residue for a table.
Per prime it takes the roots (closed form for coprime-linear or
split-quadratic f, else a scan; cached), prices every W strategy before any
W starts, gets W for every target, and takes (p - r)**k, r**k, p**(k-1) and
p**((e-1)*(k-1)) once to turn them into T and the regrouped factors. W is
a closed form at r = 0, 1 and p. With two roots {a, b} it is the binomial
class sum of C(k, j) over j == (c - b*k) / (a - b) (mod p): one math.comb
when p > k, else one walk of j = 0..k/2 serves every two-root prime and
target, since C(k, j) = C(k, k - j). Above two roots W for every c at once
is the k-th power of the root indicator in Z[x]/(x^p - 1), packed into one
int (Kronecker substitution); where p*k*log2 r makes that int long, W takes
the first root j times, weighted by C(k, j), and walks the rest, keeping
sub-walks in a bounded memo. The cheaper estimate for that many targets
runs, and W is refused at once when even it passes one budget. Brauer's
unit-sum count and the exceptional-unit count stay independent closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle, repeat
from operator import mul
from typing import Iterable, NamedTuple, Sequence

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

# Binomial class sums up to _COMB_K, and every class with p > k (at most one
# member), take math.comb per class member, which beats a walk in Python
# there. Otherwise the walk sorts the class hits of _WALK_CHUNK consecutive j
# at a time, so its memory stays bounded at any k. A walk over r >= 3 roots
# keeps at most _MEMO_ENTRIES sub-sums.
_COMB_K, _WALK_CHUNK, _MEMO_ENTRIES = 64, 1024, 4096

# Each W strategy estimates its seconds before it starts, by models fitted to
# timings on a 2-CPU x86-64 machine under CPython 3.11; W is refused with
# BudgetExceededError when the cheapest estimate passes W_COST_BUDGET.
W_COST_BUDGET = 2.0

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
    root_sum_count: int        # k-tuples drawn from the roots, summing to c
    avoiding_sum_count: int    # k-tuples avoiding every root, summing to c
    obstruction_count: int     # p**(k-1) - avoiding_sum_count


class LocalFactor(NamedTuple):
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


# Kept for the last (roots, p), so the residues of a table column test p once.
@lru_cache(maxsize=1)
def _validated_roots(roots: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    reduced = tuple(x % p for x in roots)
    if len(set(reduced)) != len(reduced):
        raise DomainError("duplicate roots modulo p")
    return reduced


def _check_w_cost(cost: float, what: str) -> None:
    if cost > W_COST_BUDGET:
        raise BudgetExceededError(
            f"{what}: estimated {cost:.3g} s, over the W budget of {W_COST_BUDGET:g} s")


def _two_root_sums(k: int, cases: Sequence[tuple[tuple[int, ...], int, int]]) -> list[int]:
    """W for each case (roots {a, b}, c, p): k-tuples of a and b summing to c.

    A tuple taking a j times sums to a*j + b*(k - j), so W is the sum of
    C(k, j) over the class j == t = (c - b*k) / (a - b) (mod p). Up to
    _COMB_K, and whenever p > k, each class is summed by math.comb. One walk
    of j = 0..k//2 serves every other case: C(k, j) = C(k, k - j) goes to the
    classes of both j and k - j, and the walk stops at the last j any class
    takes. Above _COMB_K their estimated cost is checked against
    W_COST_BUDGET before either starts.
    """
    classes = []
    for (a, b), c, p in cases:
        classes.append(((c - b * k) * pow(a - b, -1, p) % p, p))
    if k <= _COMB_K:
        return [sum(map(math.comb, repeat(k), range(t, k + 1, p))) for t, p in classes]
    walked = [i for i, (_, p) in enumerate(classes) if p <= k]
    # math.comb(k, t) costs about the square of its bit length, at most
    # m*log2(e*k/m) for m = min(t, k - t); a walk step costs O(k).
    cost = 1.3e-10 * k * k if walked else 0.0
    for t, p in classes:
        m = min(t, k - t)
        if p > k and m > 0:
            cost += 1e-11 * (m * math.log2(math.e * k / m)) ** 2
    _check_w_cost(cost, f"binomial class sums at k = {k}")
    sums = [0 if p <= k else math.comb(k, t) for t, p in classes]
    half, m = k // 2, len(classes)
    binom = 1
    j = 0
    for lo in range(0, half + 1, _WALK_CHUNK):
        hi = min(lo + _WALK_CHUNK, half + 1)
        events = []    # j * m + i for each class i that takes C(k, j)
        for i in walked:
            t, p = classes[i]
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


def _packed_root_sums(roots: tuple[int, ...], k: int, p: int) -> tuple[int, ...]:
    """W for every target c mod p: the k-th power of sum(x**a for a in roots)
    in Z[x]/(x**p - 1), by square-and-multiply on one int of p slots of w
    bits. Every partial power's coefficients sum to at most r**k < 2**w, so
    no slot carries and reducing mod x**p - 1 folds the high p slots down.
    """
    r = len(roots)
    total = r**k
    width = total.bit_length() // 8 + 1     # bytes per slot: 1 + bit length
    w = 8 * width
    span = p * w
    mask = (1 << span) - 1
    shifts = [a * w for a in roots]
    acc = sum(1 << s for s in shifts)
    for bit in bin(k)[3:]:
        x = acc * acc
        acc = (x & mask) + (x >> span)
        if bit == "1":
            x = sum(acc << s for s in shifts)
            acc = (x & mask) + (x >> span)
    data = acc.to_bytes(p * width, "little")
    sums = tuple(int.from_bytes(data[i:i + width], "little")
                 for i in range(0, p * width, width))
    if sum(sums) != total:
        raise InvariantViolationError("packed root sums do not add up to r**k")
    return sums


def _power_cost(p: int, k: int, r: int) -> float:
    # log2 k squarings of p slots of about k*log2 r bits (Karatsuba, about
    # bits**1.5 here), a shift-add per root at each set bit of k, and one
    # read-back per slot
    bits = p * 8 * (int(k * math.log2(r)) // 8 + 1)
    squarings, products = k.bit_length() - 1, bin(k).count("1") - 1
    return 5.1e-6 + 3.0e-7 * p + 4.3e-11 * squarings * bits**1.5 + 3.5e-10 * products * r * bits


def _walk_cost(p: int, k: int, r: int) -> float:
    # Sub-sums after d roots: at most C(k + d, d), and p*(k + 1) once their
    # residues repeat (then a memo too small for them keeps starting over,
    # so the walk is not considered). Above two roots each loops over its k'
    # (about k/(d + 1), or k/2), multiplying ints of about k*log2 r bits; at
    # two, with k' spread over 0..k, it walks k'/2 binomials when p <= k',
    # else takes one math.comb with chance k'/p.
    nodes = loops = 0.0
    for d in range(r - 1):
        compositions = math.comb(k + d, d)
        shared = compositions > p * (k + 1)
        n = p * (k + 1) if shared else compositions
        if shared and nodes + n > _MEMO_ENTRIES:
            return math.inf
        nodes += n
        if d < r - 2:
            loops += n * ((k / 2 if shared else k / (d + 1)) + 1)
    walks = n * max(k**3 - p**3, 0) / (3 * k)
    combs = n * min(k, p) ** 4 / (4 * p * k)
    return (3e-6 * nodes + (1.41e-8 + 1.68e-9 * k * math.log2(r)) * loops
            + 2.41e-10 * walks + 1.59e-11 * combs)


def _w_strategy(p: int, k: int, r: int, targets: int = 1) -> str:
    # "power" (every target at once) or "walk" (a walk per target), whichever
    # is estimated cheaper for that many targets of r >= 3 roots mod p
    power, walk = _power_cost(p, k, r), targets * _walk_cost(p, k, r)
    _check_w_cost(min(power, walk), f"W for {r} roots mod {p} at k = {k}")
    return "power" if power <= walk else "walk"


def root_composition_count(roots: Sequence[int], k: int, c: int, p: int) -> int:
    """Ordered k-tuples (repetition allowed) of the given residues summing to
    c mod p.

    Up to two roots this is a closed-form sum. For r >= 3 it takes, by
    estimated cost, either the k-th power of the root indicator in
    Z[x]/(x**p - 1), which gives every target at once, or a walk over the
    multiplicity of the first root, weighting the rest by C(k, j) down to the
    two-root sum. Work estimated past W_COST_BUDGET is refused with
    BudgetExceededError before it starts.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    reduced = _validated_roots(tuple(roots), p)
    r = len(reduced)
    if r <= 2:
        return _root_sum(reduced, k, c, p, {})
    memo = _w_memo(reduced, k, p)
    if not memo and _w_strategy(p, k, r) == "power":
        memo[None] = _packed_root_sums(reduced, k, p)
    sums = memo.get(None)
    return _root_sum(reduced, k, c, p, memo) if sums is None else sums[c % p]


@lru_cache(maxsize=1)
def _w_memo(roots: tuple[int, ...], k: int, p: int) -> dict:
    # What W found for the last roots, k and p: W for every target under
    # None once the power ran, else the walk's sub-sums. Both hold for every
    # target c, so the residues of a table column share them, and a strategy
    # is chosen only while it is empty.
    return {}


def _local_factors(p: int, e: int, k: int, r: int, ws: Sequence[int]) -> tuple[int, list, list]:
    # (p**(k-1), T, contributions) for the W values ws at p**e || n, where f
    # has r distinct roots mod p; each power is taken once per call.
    sign = (-1) ** k
    base, step = (p - r) ** k - sign * r**k, sign * p
    units = []
    for w in ws:
        t, rem = divmod(base + step * w, p)
        if rem:
            raise InvariantViolationError("avoiding-tuple count is not an integer")
        units.append(t)
    return _regrouped(p, e, k, units)


def _regrouped(p: int, e: int, k: int, units: list[int]) -> tuple[int, list, list]:
    # Range-check the nu_p = 1 factors T = p**(k-1) - M, then scale them by
    # the prime-power regrouping factor; the closed forms share this check.
    top = p ** (k - 1)
    if not 0 <= min(units) <= max(units) <= top:
        raise InvariantViolationError("per-prime factor out of range")
    scale = p ** ((e - 1) * (k - 1))
    return top, units, units if e == 1 else list(map(scale.__mul__, units))


def count_avoiding_tuples(p: int, roots: Sequence[int], k: int, c: int) -> int:
    """k-tuples over Z_p minus the given roots summing to c mod p.

    Evaluated through T = ((p - r)**k + (-1)**k * (p*W - r**k)) / p, which is
    always an exact integer; a nonzero remainder is a bug, never an input
    condition.
    """
    w = root_composition_count(roots, k, c, p)
    return _local_factors(p, 1, k, len(roots), (w,))[1][0]


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


def _local_columns(coeffs: tuple[int, ...], k: int, primes: Iterable[tuple[int, int]],
                   c: int | None) -> list[tuple]:
    # (p, e, roots, ws, (p**(k-1), T values, contributions)) for each p**e
    # in primes, where ws holds W for the target c mod p, or for every
    # residue when c is None. Every W is priced before any starts: r >= 3 by
    # the chooser for that many targets, then r = 2 in _two_root_sums, whose
    # one walk serves every two-root prime and target.
    found, pairs = [], []
    for p, e in primes:
        roots = _roots_for_prime(coeffs, p)
        targets = (c % p,) if c is not None else range(p)
        r = len(roots)
        power = False
        if r == 2 != p:
            pairs += [(roots, a, p) for a in targets]
        elif 2 < r < p:
            power = _w_strategy(p, k, r, len(targets)) == "power"
        found.append((p, e, roots, targets, power))
    shared, at = _two_root_sums(k, pairs) if pairs else [], 0
    columns = []
    for p, e, roots, targets, power in found:
        r = len(roots)
        if r <= 1:         # every tuple sums to k*x
            ws = [0] * len(targets)
            if roots and k * roots[0] % p in targets:
                ws[targets.index(k * roots[0] % p)] = 1
        elif r == p:
            ws = [p ** (k - 1)] * len(targets)
        elif r == 2:
            ws, at = shared[at:at + len(targets)], at + len(targets)
        else:
            memo = _w_memo(roots, k, p)
            if power and None not in memo:
                memo[None] = _packed_root_sums(roots, k, p)
            ws = [root_composition_count(roots, k, a, p) for a in targets]
        columns.append((p, e, roots, ws, _local_factors(p, e, k, r, ws)))
    return columns


def local_count(f: IntPolynomial, k: int, c: int, p: int) -> RootProfile:
    """The local data of f at the prime p for arity k and target c.

    The obstruction count M is p**(k-1) - T; it is 0 when f has no root mod p
    and p**(k-1) when f vanishes identically mod p.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    ((_, _, roots, (w,), (top, (t,), _)),) = _local_columns(f.coeffs, k, [(p, 1)], c)
    return RootProfile(p, roots, w, t, top - t)


def _per_prime_count(q: CountQuery, method: str) -> CountReport:
    # The engine behind every formula route; method only labels the report.
    value, factors = 1, []
    for p, e, _, _, (top, (t,), (part,)) in _local_columns(q.f.coeffs, q.k, factorize(q.n), q.c):
        value *= part
        factors.append(LocalFactor(p, e, top - t, part))
    return CountReport(value, method, tuple(factors))


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

    N depends on c only through c mod p at each p | n, so each prime gets
    one column of p regrouped factors, its powers taken once per column, and
    the column multiplies into the rows in one pass (row c by column[c % p]):
    sum(p) local evaluations, not a count per row. Every residue of every
    two-root prime takes its W from one binomial-row walk; a prime with
    r >= 3 roots takes every residue's W from one power when that is
    estimated cheaper than a walk per residue. More than TABLE_ROW_BUDGET
    rows, or W estimated past W_COST_BUDGET, raise BudgetExceededError.
    """
    CountQuery(f, k, 0, n)
    if n > TABLE_ROW_BUDGET:
        raise BudgetExceededError(f"n = {n} exceeds the table budget {TABLE_ROW_BUDGET}")
    rows = [1] * n
    for *_, (_, _, contributions) in _local_columns(f.coeffs, k, factorize(n), None):
        rows = list(map(mul, rows, cycle(contributions)))
    return rows


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
    value, factors = 1, []
    for p, e in factorize(n):
        if c % p == 0:
            numerator = (p - 1) * ((p - 1) ** (k - 1) - (-1) ** (k - 1))
        else:
            numerator = (p - 1) ** k - (-1) ** k
        unit, rem = divmod(numerator, p)
        if rem:
            raise InvariantViolationError("unit-count per-prime factor is not an integer")
        top, _, (part,) = _regrouped(p, e, k, [unit])
        value *= part
        factors.append(LocalFactor(p, e, top - unit, part))
    return CountReport(value, "brauer", tuple(factors))


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
    value, factors = 1, []
    for (p, e), s in zip(primes, sums):
        bracket = p * s + (2 - p) ** k - 2**k
        unit, rem = divmod(sign * bracket, p)
        if rem:
            raise InvariantViolationError("exceptional-unit per-prime factor is not an integer")
        top, _, (part,) = _regrouped(p, e, k, [unit])
        value *= part
        factors.append(LocalFactor(p, e, top - unit, part))
    return CountReport(value, "yang_zhao", tuple(factors))


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
