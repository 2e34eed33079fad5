"""Acceptance gate: every criterion at its stated size, all comparisons exact.

Each test prints one PASS/FAIL line (visible with pytest -s); the assertions
carry the first counterexample when something breaks.
"""

import math
import time

from click.testing import CliRunner

from exunits import arith, counting, poly
from exunits.cli import cli
from exunits.counting import (
    CountQuery,
    global_count,
    local_count,
    quadratic_count,
)
from exunits.oracle import (
    count_zero_product_tuples,
    oracle_global_count,
    oracle_local_count,
)
from exunits.poly import IntPolynomial, exunit_set
from exunits.verify import (
    conservation_suite,
    fast_path_suite,
    multiplicativity_suite,
    oracle_equivalence_suite,
    yang_zhao_agreement,
)
from conftest import FAMILY_TEXTS, SMALL_PRIMES

X_MINUS_X2 = IntPolynomial.parse("0,1,-1")


def _report(label, ok):
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_oracle_equivalence_sweep():
    started = time.perf_counter()
    main = oracle_equivalence_suite(FAMILY_TEXTS, (2, 3), 60)
    extension = oracle_equivalence_suite(FAMILY_TEXTS, (4,), 30)
    elapsed = time.perf_counter() - started
    ok = main.passed and extension.passed and elapsed < 300
    _report("1 oracle-equivalence sweep", ok)
    assert main.passed, main.counterexample
    assert extension.passed, extension.counterexample
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"


def test_criterion_2_local_count_equivalence():
    started = time.perf_counter()
    mismatches = []
    for text in FAMILY_TEXTS:
        f = IntPolynomial.parse(text)
        for p in SMALL_PRIMES:
            for k in (2, 3, 4, 5):
                for c in range(p):
                    fast = local_count(f, k, c, p).obstruction_count
                    literal = oracle_local_count(f, k, c, p)
                    if fast != literal:
                        mismatches.append((text, k, c, p, fast, literal))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 60
    _report("2 local-count equivalence", ok)
    assert not mismatches, mismatches[:3]
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"


def test_criterion_3_fast_path_agreement():
    grid = fast_path_suite(FAMILY_TEXTS, (2, 3), 60)
    special = yang_zhao_agreement((2, 3, 4, 5), 200)
    ok = grid.passed and special[1] is None
    _report("3 fast-path agreement", ok)
    assert grid.passed, grid.counterexample
    assert special[1] is None, special[1]


def test_criterion_4_multiplicativity():
    suite = multiplicativity_suite(FAMILY_TEXTS, (2, 3), mn_max=2000,
                                   pair_count=200, seed=0)
    _report("4 multiplicativity", suite.passed)
    assert suite.passed, suite.counterexample


def test_criterion_5_conservation():
    main = conservation_suite(FAMILY_TEXTS, (2, 3), 60)
    extension = conservation_suite(FAMILY_TEXTS, (4,), 30)
    ok = main.passed and extension.passed
    _report("5 conservation", ok)
    assert main.passed, main.counterexample
    assert extension.passed, extension.counterexample


def test_criterion_6_pinned_values():
    x = IntPolynomial.parse("0,1")
    pinned = [
        (global_count(CountQuery(X_MINUS_X2, 2, 1, 5)).value, 3),
        (global_count(CountQuery(x, 2, 0, 6)).value, 2),
        (global_count(CountQuery(x, 3, 0, 5)).value, 12),
        (global_count(CountQuery(X_MINUS_X2, 3, 0, 5)).value, 6),
    ]
    for text in FAMILY_TEXTS:
        f = IntPolynomial.parse(text)
        for k in (2, 3, 5):
            for c in (0, 3, -7):
                pinned.append((global_count(CountQuery(f, k, c, 1)).value, 1))
    for k in (2, 3, 4):
        for c in range(6):
            pinned.append((global_count(CountQuery(X_MINUS_X2, k, c, 6)).value, 0))
    # each pinned value is independently derivable by the tuple oracle
    oracle_checks = [
        oracle_global_count(CountQuery(X_MINUS_X2, 2, 1, 5)) == 3,
        oracle_global_count(CountQuery(x, 2, 0, 6)) == 2,
        oracle_global_count(CountQuery(x, 3, 0, 5)) == 12,
        oracle_global_count(CountQuery(X_MINUS_X2, 3, 0, 5)) == 6,
        oracle_global_count(CountQuery(X_MINUS_X2, 2, 4, 6)) == 0,
    ]
    ok = all(got == want for got, want in pinned) and all(oracle_checks)
    _report("6 pinned values", ok)
    assert all(got == want for got, want in pinned), pinned
    assert all(oracle_checks)


def test_criterion_7_performance():
    # closed-form split-quadratic evaluation at a large smooth modulus
    n_smooth = 2**10 * 3**7 * 5**5 * 7**3
    query = CountQuery(X_MINUS_X2, 5, 1, n_smooth)
    best = math.inf
    for _ in range(3):
        arith._factorize_cached.cache_clear()
        started = time.perf_counter()
        quadratic_count(query)
        best = min(best, time.perf_counter() - started)

    # general route with a root scan at a prime near 10**6
    big_prime = 999983
    assert arith.is_prime(big_prime)
    cubic = IntPolynomial.parse("1,1,0,1")
    arith._factorize_cached.cache_clear()
    poly._scan_roots.cache_clear()
    started = time.perf_counter()
    report = global_count(CountQuery(cubic, 4, 1, big_prime))
    scan_elapsed = time.perf_counter() - started

    ok = best < 0.010 and scan_elapsed < 2.0
    _report("7 performance", ok)
    assert best < 0.010, f"quadratic_count took {best * 1000:.2f} ms"
    assert scan_elapsed < 2.0, f"global_count took {scan_elapsed:.2f} s"
    assert report.value > 0


def test_factorization_performance():
    # a prime cofactor between 10**12 and 10**18 costs short trial division
    # and one proven Miller-Rabin test, not trial division up to 10**6
    p = 999999999999999989          # the largest prime below 10**18
    assert arith.is_prime(p)
    best = math.inf
    for _ in range(3):
        arith._factorize_cached.cache_clear()
        started = time.perf_counter()
        fac = arith.factorize(5 * 7 * p)
        best = min(best, time.perf_counter() - started)
    ok = fac.entries == ((5, 1), (7, 1), (p, 1)) and best < 0.020
    _report("factorization performance", ok)
    assert fac.entries == ((5, 1), (7, 1), (p, 1))
    assert best < 0.020, f"factorize took {best * 1000:.2f} ms"


def test_table_column_performance():
    # full c-sweeps through the CLI: one column of local factors per prime,
    # not one count per row (which took tens of seconds at these sizes)
    failures = []
    for text, k, n in (("0,-1,0,1", 40, 30030), ("1,1,0,1", 3, 99991)):
        arith._factorize_cached.cache_clear()
        poly._scan_roots.cache_clear()
        counting._closed_form_roots.cache_clear()
        started = time.perf_counter()
        result = CliRunner().invoke(cli, ["table", "--poly", text, "--k", str(k), "--n", str(n)])
        elapsed = time.perf_counter() - started
        rows = result.output.splitlines()[1:]
        total = sum(int(row.split(",")[1]) for row in rows)
        expected = len(exunit_set(IntPolynomial.parse(text), n)) ** k
        if result.exit_code != 0 or len(rows) != n or total != expected or elapsed >= 5.0:
            failures.append((text, k, n, result.exit_code, len(rows), elapsed))
    _report("table column performance", not failures)
    assert not failures, failures


def test_criterion_8_lifting_and_product_rule_harness():
    cubic = IntPolynomial.parse("1,1,0,1")
    failures = []
    # lifting: counting a congruence mod m over Z_n scales by (n/m)**r
    for n in range(1, 201):
        for m in (d for d in range(1, n + 1) if n % d == 0):
            big = count_zero_product_tuples(X_MINUS_X2, 2, 1, n, m)
            small = count_zero_product_tuples(X_MINUS_X2, 2, 1, m, m)
            if big != (n // m) ** 2 * small:
                failures.append(("lift", n, m, big, small))
            lifted = count_zero_product_tuples(cubic, 1, 1, n, m)
            base = count_zero_product_tuples(cubic, 1, 1, m, m)
            if lifted != (n // m) * base:
                failures.append(("lift-r1", n, m, lifted, base))
    # coprime product rule
    for m1 in range(2, 15):
        for m2 in range(m1 + 1, 200 // m1 + 1):
            if math.gcd(m1, m2) != 1:
                continue
            whole = count_zero_product_tuples(X_MINUS_X2, 2, 1, m1 * m2, m1 * m2)
            part1 = count_zero_product_tuples(X_MINUS_X2, 2, 1, m1, m1)
            part2 = count_zero_product_tuples(X_MINUS_X2, 2, 1, m2, m2)
            if whole != part1 * part2:
                failures.append(("crt", m1, m2, whole, part1 * part2))
    ok = not failures
    _report("8 lifting and product rule", ok)
    assert not failures, failures[:3]
