"""Exact elementary number theory: primality, factorization and modular
inverses.

Counting results elsewhere grow like n**(k-1), so everything here sticks to
plain Python integers and is never allowed to round or approximate.

is_prime answers for every integer. Below _MR_BOUND (~3.18e23) it runs strong
Miller-Rabin tests to the twelve prime bases up to 37, which are proven
deterministic there. At and above the bound it runs BPSW: a strong base-2
test plus a strong Lucas test with Selfridge's parameters (Baillie &
Wagstaff, Math. Comp. 35 (1980)). BPSW has no known counterexample but no
proof either, so primes that large are probable primes; prime_test names
which test a prime rests on.

factorize trial-divides by the primes up to _TRIAL_LIMIT, takes exact roots
of a composite cofactor that is a perfect power, and splits what is left
with Pollard-Brent rho. Rho takes about sqrt(p) steps to find a factor p, so
it gets MAX_RHO_STEPS steps in all and past them raises BudgetExceededError,
instead of running for minutes on a product of two large primes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError, DomainError, NotInvertibleError

__all__ = [
    "MAX_RHO_STEPS",
    "PrimeFactorization",
    "is_prime",
    "prime_test",
    "factorize",
    "mod_inverse",
]

# Witness set proven deterministic for every n below _MR_BOUND, which covers
# the full 64-bit range with a wide margin.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318_665_857_834_031_151_167_461

# Trial-divide by the primes up to here; any remaining composite cofactor
# goes to Pollard rho, which finds factors this small in ~100 steps.
_TRIAL_LIMIT = 10**3


def _primes_up_to(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(p for p in range(limit + 1) if sieve[p])


_TRIAL_PRIMES = _primes_up_to(_TRIAL_LIMIT)

# Pollard rho steps (one squaring each) spent on one cofactor across all of
# its restarts. Finding a prime factor p takes about 1.6 * sqrt(p) steps and
# rarely over 8 * sqrt(p), so factors up to 10**11 split within it.
MAX_RHO_STEPS = 3 * 10**6


@dataclass(frozen=True)
class PrimeFactorization:
    """Sorted (prime, exponent) pairs; the empty sequence factors 1."""

    entries: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.entries)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong probable-prime (Miller-Rabin) test of odd n > 2 to base a."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # n odd and positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd n > 1 that is not a perfect square, with
    Selfridge's parameters: the first D in 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1 and Q = (1 - D)/4."""
    for size in itertools.count(5, 2):
        D = size if size % 4 == 1 else -size
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and size != n:
            return False
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    def half(x: int) -> int:
        return (x + n if x & 1 else x) // 2 % n

    # U_k, V_k and Q**k from k = 1 up a left-to-right ladder over d's bits
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _bpsw(n: int) -> bool:
    """Baillie-PSW probable-prime test of odd n > 1."""
    return (_strong_probable_prime(n, 2) and math.isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n))


def is_prime(n: int) -> bool:
    """Primality of any integer n.

    Exact below _MR_BOUND (~3.18e23), where the twelve Miller-Rabin bases up
    to 37 are proven deterministic. At and above it this is the BPSW test,
    so a True there marks a probable prime: no composite is known to pass,
    but none is proven not to.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _bpsw(n)


def prime_test(p: int) -> str:
    """Which test is_prime trusts for p: "mr" (proven) below _MR_BOUND,
    "bpsw" (probable) at and above it."""
    return "mr" if p < _MR_BOUND else "bpsw"


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n (Brent's cycle method).

    The parameter schedule is fixed, so the returned factor is deterministic.
    Raises BudgetExceededError once MAX_RHO_STEPS steps, counted across every
    restart, have not split n.
    """
    m = 128
    steps = 0

    def spend(count: int) -> None:
        nonlocal steps
        steps += count
        if steps > MAX_RHO_STEPS:
            raise BudgetExceededError(
                f"factoring {n} exceeds the Pollard rho budget of {MAX_RHO_STEPS} steps")

    for c in itertools.count(1):
        y, g, r, q = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(m, r - k)
                spend(batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                spend(1)
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _integer_root(n: int, e: int) -> int:
    """floor(n ** (1/e)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    # (root, e) with root**e == n for the least e >= 2, else (n, 1). n has no
    # prime factor <= _TRIAL_LIMIT, so a root exceeds it and e stays below
    # log(n) / log(_TRIAL_LIMIT).
    e = 2
    while _TRIAL_LIMIT**e < n:
        root = _integer_root(n, e)
        if root**e == n:
            return root, e
        e += 1
    return n, 1


def _factor_tail(n: int, counts: dict[int, int], multiplicity: int = 1) -> None:
    # n > 1 has no prime factor <= _TRIAL_LIMIT at this point; it stands for
    # n ** multiplicity in the number being factored
    if is_prime(n):
        counts[n] = counts.get(n, 0) + multiplicity
        return
    root, e = _perfect_power(n)
    if e > 1:
        _factor_tail(root, counts, multiplicity * e)
        return
    d = _pollard_rho(n)
    _factor_tail(d, counts, multiplicity)
    _factor_tail(n // d, counts, multiplicity)


# A few hundred moduli: every new one holds about 0.5 KB here.
@lru_cache(maxsize=256)
def _factorize_cached(n: int) -> PrimeFactorization:
    counts: dict[int, int] = {}
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            counts[p] = e
    if m > 1:
        # a cofactor without prime factors up to sqrt(m) is prime
        if m <= _TRIAL_LIMIT**2:
            counts[m] = 1
        else:
            _factor_tail(m, counts)
    return PrimeFactorization(tuple(sorted(counts.items())))


def factorize(n: int) -> PrimeFactorization:
    """Canonical prime factorization of n >= 1; factorize(1) is empty.

    Every factor is prime by is_prime, so factors at or above _MR_BOUND are
    BPSW probable primes. Raises BudgetExceededError when a cofactor with no
    prime factor up to _TRIAL_LIMIT would take Pollard rho more than
    MAX_RHO_STEPS steps to split.
    """
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
