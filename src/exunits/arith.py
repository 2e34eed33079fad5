"""Exact elementary number theory: primality, factorization and modular
inverses.

Counting results elsewhere grow like n**(k-1), so everything here sticks to
plain Python integers and is never allowed to round or approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, InvariantViolationError, NotInvertibleError

__all__ = [
    "PrimeFactorization",
    "is_prime",
    "factorize",
    "mod_inverse",
]

# Witness set proven deterministic for every n below _MR_BOUND, which covers
# the full 64-bit range with a wide margin.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318_665_857_834_031_151_167_461

# Trial-divide up to here; any remaining cofactor goes to Pollard rho.
_TRIAL_LIMIT = 10**6


@dataclass(frozen=True)
class PrimeFactorization:
    """Sorted (prime, exponent) pairs; the empty sequence factors 1."""

    entries: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.entries)

    @property
    def value(self) -> int:
        """The integer this factorization reconstructs."""
        out = 1
        for p, e in self.entries:
            out *= p**e
        return out

    @property
    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for every n below ~3.18e23."""
    if n >= _MR_BOUND:
        raise DomainError(f"{n} exceeds the deterministic primality bound")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n (Brent's cycle method).

    The parameter schedule is fixed, so the returned factor is deterministic.
    """
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InvariantViolationError(f"Pollard rho failed to split {n}")


def _factor_tail(n: int, counts: dict[int, int]) -> None:
    # n has no prime factor <= _TRIAL_LIMIT at this point
    if n == 1:
        return
    if is_prime(n):
        counts[n] = counts.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_tail(d, counts)
    _factor_tail(n // d, counts)


@lru_cache(maxsize=65536)
def _factorize_cached(n: int) -> PrimeFactorization:
    counts: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    f = 5
    while f * f <= m and f <= _TRIAL_LIMIT:
        for p in (f, f + 2):
            while m % p == 0:
                counts[p] = counts.get(p, 0) + 1
                m //= p
        f += 6
    if m > 1:
        if f * f > m:
            counts[m] = counts.get(m, 0) + 1
        else:
            _factor_tail(m, counts)
    return PrimeFactorization(tuple(sorted(counts.items())))


def factorize(n: int) -> PrimeFactorization:
    """Canonical prime factorization of n >= 1; factorize(1) is empty."""
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    return _factorize_cached(n)


def mod_inverse(a: int, p: int) -> int:
    """The residue x in [0, p) with a*x == 1 (mod p); requires gcd(a, p) == 1."""
    if p < 1:
        raise DomainError("modulus must be >= 1")
    try:
        return pow(a, -1, p)
    except ValueError:
        raise NotInvertibleError(f"{a} is not invertible modulo {p}") from None
