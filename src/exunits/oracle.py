"""Definitional brute-force counters.

These are the trust anchors for the formula paths, so they share none of
that machinery: exunit membership, tuple enumeration and the convolution
oracle are all recomputed here directly from gcd(f(a), n) == 1.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .arith import is_prime
from .counting import CountQuery
from .errors import BudgetExceededError, DomainError
from .poly import IntPolynomial

__all__ = [
    "oracle_global_count",
    "oracle_global_count_dp",
    "oracle_local_count",
    "count_zero_product_tuples",
    "DEFAULT_TUPLE_BUDGET",
    "DEFAULT_DP_BUDGET",
]

DEFAULT_TUPLE_BUDGET = 10**8
# Cost units (n**2 per convolution) the convolution oracle may spend.
DEFAULT_DP_BUDGET = 10**7


def _value_at(coeffs: tuple[int, ...], x: int) -> int:
    # plain integer Horner, no modular shortcuts
    acc = 0
    for coef in reversed(coeffs):
        acc = acc * x + coef
    return acc


def oracle_global_count(q: CountQuery, budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """N by direct enumeration: walk E_f(n)**(k-1) and test membership of
    the forced last coordinate c - sum.

    The membership scan evaluates f at each of the n residues by Horner and
    takes a Euclidean gcd with n, and is charged n * (deg f + log2 n) steps:
    above the budget it is refused before any residue is tested. The scan
    also stops as soon as the members found put |E|**k over the budget.
    """
    scan_cost = q.n * (q.f.degree + q.n.bit_length())
    if scan_cost > budget:
        raise BudgetExceededError(
            f"n = {q.n} exceeds the enumeration budget {budget}: its membership "
            f"scan costs n * (deg f + log2 n) = {scan_cost} steps")
    members = []
    for a in range(q.n):
        if math.gcd(_value_at(q.f.coeffs, a), q.n) == 1:
            members.append(a)
            if len(members) ** q.k > budget:
                raise BudgetExceededError(
                    f"|E|**k >= {len(members)}**{q.k} exceeds the enumeration budget {budget}")
    member_set = set(members)
    target = q.c % q.n
    hits = 0
    for prefix in itertools.product(members, repeat=q.k - 1):
        if (target - sum(prefix)) % q.n in member_set:
            hits += 1
    return hits


def _cyclic_convolve(u: list[int], v: list[int], n: int) -> list[int]:
    out = [0] * n
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    out[(i + j) % n] += ui * vj
    return out


@lru_cache(maxsize=64)
def _sum_distribution(coeffs: tuple[int, ...], k: int, n: int) -> tuple[int, ...]:
    base = [1 if math.gcd(_value_at(coeffs, a), n) == 1 else 0 for a in range(n)]
    result: list[int] | None = None
    e = k
    while e:
        if e & 1:
            result = base[:] if result is None else _cyclic_convolve(result, base, n)
        e >>= 1
        if e:
            base = _cyclic_convolve(base, base, n)
    assert result is not None
    return tuple(result)


def oracle_global_count_dp(q: CountQuery, budget: int = DEFAULT_DP_BUDGET) -> int:
    """N as the c-th entry of the k-fold cyclic convolution of the exunit
    indicator vector; exact integers throughout.

    The cost, n**2 times the number of convolutions the square-and-multiply
    over k does, is estimated up front and refused above the budget.
    """
    cost = q.n**2 * (q.k.bit_length() + q.k.bit_count() - 2)
    if cost > budget:
        raise BudgetExceededError(
            f"convolution cost n**2 * steps = {cost} exceeds the budget {budget}")
    return _sum_distribution(q.f.coeffs, q.k, q.n)[q.c % q.n]


def oracle_local_count(f: IntPolynomial, k: int, c: int, p: int,
                       budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """The local obstruction count by its definition: scan Z_p**(k-1) and
    test f(x_1)...f(x_{k-1}) * f(c - sum) == 0 (mod p) literally."""
    if k < 2:
        raise DomainError("k must be >= 2")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p ** (k - 1) > budget:
        raise BudgetExceededError(
            f"p**(k-1) = {p}**{k - 1} exceeds the enumeration budget {budget}")
    values = [_value_at(f.coeffs, t) % p for t in range(p)]
    target = c % p
    hits = 0
    for tup in itertools.product(range(p), repeat=k - 1):
        product = 1
        for x in tup:
            product = product * values[x] % p
        product = product * values[(target - sum(tup)) % p] % p
        if product == 0:
            hits += 1
    return hits


def count_zero_product_tuples(f: IntPolynomial, r: int, c: int,
                              ambient: int, modulus: int) -> int:
    """#{(x_1, ..., x_r) in Z_ambient**r : f(x_1)...f(x_r) * f(c - sum) == 0
    (mod modulus)}, by direct enumeration.

    This is the enumeration harness behind the lifting identity (counting a
    congruence mod m over the larger ring Z_n, m | n) and the coprime product
    rule; the r == 2 case is vectorised but semantically identical.
    """
    if r < 1 or ambient < 1 or modulus < 1:
        raise DomainError("r, ambient and modulus must all be >= 1")
    table = [_value_at(f.coeffs, t) % modulus for t in range(ambient)]
    wrap = [_value_at(f.coeffs, t) % modulus for t in range(modulus)]
    if r == 2 and ambient <= 4096 and modulus < 2**31:
        import numpy as np

        col = np.array(table, dtype=np.int64).reshape(-1, 1)
        row = np.array(col, dtype=np.int64).reshape(1, -1)
        idx = np.arange(ambient, dtype=np.int64)
        last = np.array(wrap, dtype=np.int64)[
            (c - idx.reshape(-1, 1) - idx.reshape(1, -1)) % modulus]
        products = col * row % modulus * last % modulus
        return int(np.count_nonzero(products == 0))
    hits = 0
    for tup in itertools.product(range(ambient), repeat=r):
        product = 1
        for x in tup:
            product = product * table[x] % modulus
        product = product * wrap[(c - sum(tup)) % modulus] % modulus
        if product == 0:
            hits += 1
    return hits
