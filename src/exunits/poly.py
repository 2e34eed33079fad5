"""Integer polynomials and their residue behaviour.

Covers distinct root sets mod p, enumeration of the
f-exunit set E_f(n) = {a in Z_n : gcd(f(a), n) = 1}, and classification of a
polynomial into the families that admit closed-form counting (linear with
unit leading coefficient, and quadratics that split into integer linear
factors).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import is_prime
from .errors import BudgetExceededError, DomainError, InvariantViolationError

__all__ = [
    "IntPolynomial",
    "PolynomialForm",
    "LinearCoprime",
    "SplitQuadratic",
    "General",
    "root_set_mod_p",
    "exunit_set",
    "classify",
    "ROOT_SCAN_CAP",
    "DEFAULT_ENUM_BUDGET",
]

# Largest prime root_set_mod_p will scan; every p above it is refused.
ROOT_SCAN_CAP = 10**7
DEFAULT_ENUM_BUDGET = 10**6

# int64 Horner stays exact while modulus**2 + modulus < 2**63; below
# _NUMPY_MIN_SIZE a plain loop beats the array overhead. numpy is imported
# inside the vectorised branches only, so small queries never load it.
_NUMPY_MODULUS_LIMIT = 2**31
_NUMPY_MIN_SIZE = 64
_BLOCK = 1 << 20

_COEFF_RE = re.compile(r"-?\d+")


@dataclass(frozen=True)
class IntPolynomial:
    """A nonconstant integer polynomial, coefficients in ascending degree.

    Trailing zero coefficients are trimmed on construction; a polynomial that
    trims down to degree 0 (or to nothing) is rejected.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        if not all(isinstance(c, int) for c in coeffs):
            raise DomainError("coefficients must be integers")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if len(coeffs) < 2:
            raise DomainError("constant polynomial")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        """Parse "c0,c1,..." (ascending degree, optional whitespace).

        A leading "+" on a coefficient is rejected, as is anything that is
        not a plain decimal integer.
        """
        tokens = [t.strip() for t in text.split(",")]
        if not tokens or any(not _COEFF_RE.fullmatch(t) for t in tokens):
            raise DomainError(f"bad polynomial text: {text!r}")
        return cls(tuple(int(t) for t in tokens))

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class PolynomialForm:
    """Marker base for the classification result."""


@dataclass(frozen=True)
class LinearCoprime(PolynomialForm):
    """f(x) = a*x + b with gcd(a, n) = 1 for the modulus under consideration."""

    a: int
    b: int


@dataclass(frozen=True)
class SplitQuadratic(PolynomialForm):
    """f(x) = (a1*x - a2)(b1*x - b2) over the integers, with a1, b1 and
    a1*b2 - a2*b1 all coprime to the modulus under consideration."""

    a1: int
    a2: int
    b1: int
    b2: int


@dataclass(frozen=True)
class General(PolynomialForm):
    """No closed-form family applies; counting goes through root scans."""


def _horner_mod(coeffs: tuple[int, ...], x: int, m: int) -> int:
    acc = 0
    x %= m
    for coef in reversed(coeffs):
        acc = (acc * x + coef) % m
    return acc


def _blocked_values_mod(coeffs: tuple[int, ...], start: int, stop: int, m: int):
    import numpy as np

    xs = np.arange(start, stop, dtype=np.int64) % m
    acc = np.zeros_like(xs)
    for coef in reversed(coeffs):
        acc *= xs
        acc += coef % m
        acc %= m
    return acc


@lru_cache(maxsize=4096)
def _scan_roots(coeffs: tuple[int, ...], p: int) -> tuple[int, ...]:
    if _NUMPY_MIN_SIZE <= p < _NUMPY_MODULUS_LIMIT:
        import numpy as np

        roots: list[int] = []
        for start in range(0, p, _BLOCK):
            vals = _blocked_values_mod(coeffs, start, min(start + _BLOCK, p), p)
            roots.extend((start + np.flatnonzero(vals == 0)).tolist())
        return tuple(roots)
    return tuple(x for x in range(p) if _horner_mod(coeffs, x, p) == 0)


def root_set_mod_p(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """All x in [0, p) with f(x) == 0 (mod p), each once, ascending.

    Multiplicity is deliberately discarded: only gcd(f(x), p) > 1 matters.
    This is an exhaustive scan, so a prime above ROOT_SCAN_CAP is refused
    with BudgetExceededError before any work; the closed-form counting
    paths avoid this call entirely for large primes.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p > ROOT_SCAN_CAP:
        raise BudgetExceededError(f"prime {p} exceeds the root-scan cap {ROOT_SCAN_CAP}")
    return _scan_roots(f.coeffs, p)


def exunit_set(f: IntPolynomial, n: int, budget: int = DEFAULT_ENUM_BUDGET) -> tuple[int, ...]:
    """The f-exunits mod n: all a in [0, n) with gcd(f(a), n) = 1, ascending."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > budget:
        raise BudgetExceededError(f"n = {n} exceeds the enumeration budget {budget}")
    if _NUMPY_MIN_SIZE <= n < _NUMPY_MODULUS_LIMIT:
        import numpy as np

        members: list[int] = []
        for start in range(0, n, _BLOCK):
            vals = _blocked_values_mod(f.coeffs, start, min(start + _BLOCK, n), n)
            hits = np.flatnonzero(np.gcd(vals, n) == 1)
            members.extend((start + hits).tolist())
        return tuple(members)
    return tuple(a for a in range(n) if math.gcd(_horner_mod(f.coeffs, a, n), n) == 1)


def _neg(factor: tuple[int, int]) -> tuple[int, int]:
    return (-factor[0], -factor[1])


@lru_cache(maxsize=4096)
def _split_into_linear_factors(coeffs: tuple[int, ...]) -> tuple[int, int, int, int] | None:
    """Factor c2*x**2 + c1*x + c0 as (a1*x - a2)(b1*x - b2) over Z, or None.

    Detection is exact: the discriminant must be a perfect square, the
    rational roots are cleared of denominators, and the candidate factors are
    verified by polynomial multiplication. Among the sign/order variants the
    lexicographically smallest tuple with a1 > 0 is returned, so the result
    is deterministic.
    """
    c0, c1, c2 = coeffs
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return None
    s = math.isqrt(disc)
    if s * s != disc:
        return None
    r1 = Fraction(-c1 + s, 2 * c2)
    r2 = Fraction(-c1 - s, 2 * c2)
    p1, q1 = r1.numerator, r1.denominator
    p2, q2 = r2.numerator, r2.denominator
    lead, rem = divmod(c2, q1 * q2)
    if rem:
        raise InvariantViolationError("root denominators do not divide the leading coefficient")
    u = (lead * q1, lead * p1)
    v = (q2, p2)
    best = min(
        first + second
        for first, second in ((u, v), (v, u), (_neg(u), _neg(v)), (_neg(v), _neg(u)))
        if first[0] > 0
    )
    a1, a2, b1, b2 = best
    if (a2 * b2, -(a1 * b2 + a2 * b1), a1 * b1) != (c0, c1, c2):
        raise InvariantViolationError("split-quadratic verification failed")
    return best


def classify(f: IntPolynomial, n: int) -> PolynomialForm:
    """Pick the evaluation route for f against the modulus n.

    The result never changes any count, only which formula computes it.
    LinearCoprime needs gcd(leading coefficient, n) = 1; SplitQuadratic needs
    an exact integer factorization plus the three gcd conditions against n.
    Everything else is General.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if f.degree == 1:
        b, a = f.coeffs
        if math.gcd(a, n) == 1:
            return LinearCoprime(a, b)
        return General()
    if f.degree == 2:
        split = _split_into_linear_factors(f.coeffs)
        if split is not None:
            a1, a2, b1, b2 = split
            if (math.gcd(a1, n) == 1 and math.gcd(b1, n) == 1
                    and math.gcd(a1 * b2 - a2 * b1, n) == 1):
                return SplitQuadratic(a1, a2, b1, b2)
    return General()
