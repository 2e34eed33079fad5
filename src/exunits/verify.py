"""Grid verification of the formula paths against the definitional oracles.

Four suites: oracle equivalence, multiplicativity, conservation and
fast-path agreement. Each returns a SuiteResult whose counterexample (if
any) is the first failure in canonical grid order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .arith import mod_inverse
from .counting import (
    CountQuery,
    brauer_count,
    count_table,
    global_count,
    linear_count,
    quadratic_count,
    yang_zhao_count,
)
from .oracle import oracle_global_count_dp
from .poly import IntPolynomial, LinearCoprime, SplitQuadratic, classify, exunit_set

__all__ = [
    "DEFAULT_POLYNOMIALS",
    "SuiteResult",
    "oracle_equivalence_suite",
    "multiplicativity_suite",
    "conservation_suite",
    "fast_path_suite",
    "yang_zhao_agreement",
    "run_all",
]

# The fixed polynomial family used by the default sweeps, as coefficient text.
DEFAULT_POLYNOMIALS = (
    "0,1",        # x
    "1,1",        # x + 1
    "3,2",        # 2x + 3
    "0,1,-1",     # x - x**2
    "1,0,1",      # x**2 + 1
    "1,1,1",      # x**2 + x + 1
    "1,1,0,1",    # x**3 + x + 1
    "1,5,6",      # 6x**2 + 5x + 1
)

EXCEPTIONAL_UNIT_POLY = "0,1,-1"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    cases: int
    counterexample: dict | None

    @staticmethod
    def ok(name: str, cases: int) -> "SuiteResult":
        return SuiteResult(name, True, cases, None)

    @staticmethod
    def fail(name: str, cases: int, counterexample: dict) -> "SuiteResult":
        return SuiteResult(name, False, cases, counterexample)


def _mismatch(poly: str, k: int, c: int, n: int, lhs: int, rhs: int, compared: str) -> dict:
    return {"poly": poly, "k": k, "c": c, "n": n,
            "lhs": lhs, "rhs": rhs, "compared": compared}


def oracle_equivalence_suite(polys: Sequence[str], k_values: Sequence[int], n_max: int,
                             inject_fault: bool = False) -> SuiteResult:
    """global_count must equal the convolution oracle on the whole grid.

    Every (f, k, n) cell is swept up to its first mismatch, and the first
    mismatch in grid order is the counterexample. inject_fault perturbs
    exactly one formula value (the first grid point); it exists so the
    harness can prove it would notice a wrong count.
    """
    cases = 0
    counterexample = None
    for poly in polys:
        f = IntPolynomial.parse(poly)
        for k in k_values:
            for n in range(1, n_max + 1):
                for c in range(n):
                    q = CountQuery(f, k, c, n)
                    formula = global_count(q).value
                    if inject_fault and cases == 0:
                        formula += 1
                    oracle = oracle_global_count_dp(q)
                    cases += 1
                    if formula != oracle:
                        counterexample = counterexample or _mismatch(
                            poly, k, c, n, formula, oracle,
                            "global_count vs oracle_global_count_dp")
                        break
    if counterexample is not None:
        return SuiteResult.fail("oracle-equivalence", cases, counterexample)
    return SuiteResult.ok("oracle-equivalence", cases)


def _coprime_pairs(mn_max: int) -> list[tuple[int, int]]:
    pairs = []
    for m in range(2, mn_max // 2 + 1):
        if m * (m + 1) > mn_max:
            break
        for n in range(m + 1, mn_max // m + 1):
            if math.gcd(m, n) == 1:
                pairs.append((m, n))
    pairs.sort(key=lambda t: (t[0] * t[1], t[0]))
    return pairs


def multiplicativity_suite(polys: Sequence[str], k_values: Sequence[int],
                           mn_max: int = 2000, pair_count: int = 200,
                           seed: int = 0) -> SuiteResult:
    """N(m*n) == N(m) * N(n) for coprime m, n, with c reduced per factor.

    Pairs are a deterministic stride through the canonical enumeration of
    coprime pairs with m*n <= mn_max; the target residues are a fixed small
    set plus two samples drawn from the seeded generator.
    """
    all_pairs = _coprime_pairs(mn_max)
    step = max(1, len(all_pairs) // pair_count)
    pairs = all_pairs[::step][:pair_count]
    rng = random.Random(seed)
    cases = 0
    # split counts recur across targets and pairs; each is counted once
    part = lru_cache(maxsize=None)(lambda f, k, c, d: global_count(CountQuery(f, k, c, d)).value)
    for m, n in pairs:
        mn = m * n
        targets = sorted({0, 1, m, n, mn - 1, rng.randrange(mn), rng.randrange(mn)})
        for poly in polys:
            f = IntPolynomial.parse(poly)
            for k in k_values:
                for c in targets:
                    whole = global_count(CountQuery(f, k, c, mn)).value
                    split = part(f, k, c % m, m) * part(f, k, c % n, n)
                    cases += 1
                    if whole != split:
                        return SuiteResult.fail(
                            "multiplicativity", cases,
                            _mismatch(poly, k, c, mn, whole, split,
                                      f"global_count({mn}) vs product over {m} * {n}"))
    return SuiteResult.ok("multiplicativity", cases)


def conservation_suite(polys: Sequence[str], k_values: Sequence[int],
                       n_max: int) -> SuiteResult:
    """Summing the count over every target c must give |E_f(n)|**k.

    The column comes from count_table, so this identity checks the
    per-prime column path rather than single queries.
    """
    cases = 0
    for poly in polys:
        f = IntPolynomial.parse(poly)
        for k in k_values:
            for n in range(1, n_max + 1):
                total = sum(count_table(f, k, n))
                expected = len(exunit_set(f, n)) ** k
                cases += 1
                if total != expected:
                    return SuiteResult.fail(
                        "conservation", cases,
                        _mismatch(poly, k, -1, n, total, expected,
                                  "sum of count_table vs |E|**k"))
    return SuiteResult.ok("conservation", cases)


def yang_zhao_agreement(k_values: Sequence[int], n_max: int) -> tuple[int, dict | None]:
    """yang_zhao_count against quadratic_count on f = x - x**2, all targets."""
    f = IntPolynomial.parse(EXCEPTIONAL_UNIT_POLY)
    cases = 0
    for k in k_values:
        for n in range(1, n_max + 1):
            for c in range(n):
                special = yang_zhao_count(k, c, n).value
                quad = quadratic_count(CountQuery(f, k, c, n)).value
                cases += 1
                if special != quad:
                    return cases, _mismatch(EXCEPTIONAL_UNIT_POLY, k, c, n, special, quad,
                                            "yang_zhao_count vs quadratic_count")
    return cases, None


def _independent_count(form: LinearCoprime | SplitQuadratic, k: int, c: int, n: int) -> int:
    # The classical closed form a fast path must reproduce: f-exunits of
    # a*x + b are units shifted by c -> a*c + k*b, and x = a2/a1 +
    # (b2/b1 - a2/a1)*y maps the exceptional units y onto the f-exunits of
    # (a1*x - a2)(b1*x - b2), shifting c -> (a1*b1*c - k*a2*b1) / (a1*b2 - a2*b1).
    if isinstance(form, LinearCoprime):
        return brauer_count(k, (form.a * c + k * form.b) % n, n).value
    scale = mod_inverse(form.a1 * form.b2 - form.a2 * form.b1, n)
    shifted = (form.a1 * form.b1 * c - k * form.a2 * form.b1) * scale % n
    return yang_zhao_count(k, shifted, n).value


def fast_path_suite(polys: Sequence[str], k_values: Sequence[int],
                    n_max: int) -> SuiteResult:
    """Every applicable fast path must reproduce the general count and an
    independent classical count.

    The fast paths share the general route's per-prime engine, so linear
    queries are also checked against brauer_count and split-quadratic ones
    against yang_zhao_count, each through the change of target that carries
    its exunits onto f's.
    """
    cases = 0
    for poly in polys:
        f = IntPolynomial.parse(poly)
        for k in k_values:
            for n in range(1, n_max + 1):
                form = classify(f, n)
                if isinstance(form, LinearCoprime):
                    fast_count, label = linear_count, "linear_count vs global_count vs brauer_count"
                elif isinstance(form, SplitQuadratic):
                    fast_count, label = (quadratic_count,
                                         "quadratic_count vs global_count vs yang_zhao_count")
                else:
                    continue
                for c in range(n):
                    fast = fast_count(CountQuery(f, k, c, n)).value
                    general = global_count(CountQuery(f, k, c, n)).value
                    independent = _independent_count(form, k, c, n)
                    cases += 1
                    if not fast == general == independent:
                        return SuiteResult.fail(
                            "fast-path-agreement", cases,
                            _mismatch(poly, k, c, n, fast,
                                      general if fast != general else independent, label))
    extra, counterexample = yang_zhao_agreement(k_values, n_max)
    cases += extra
    if counterexample is not None:
        return SuiteResult.fail("fast-path-agreement", cases, counterexample)
    return SuiteResult.ok("fast-path-agreement", cases)


def run_all(polys: Sequence[str] = DEFAULT_POLYNOMIALS,
            k_values: Sequence[int] = (2, 3),
            n_max: int = 30,
            seed: int = 0,
            inject_fault: bool = False) -> list[SuiteResult]:
    """Run the four suites over the grid and return their results."""
    mn_max = min(2000, max(4, n_max * n_max))
    return [
        oracle_equivalence_suite(polys, k_values, n_max, inject_fault=inject_fault),
        multiplicativity_suite(polys, k_values, mn_max=mn_max, seed=seed),
        conservation_suite(polys, k_values, n_max),
        fast_path_suite(polys, k_values, n_max),
    ]
