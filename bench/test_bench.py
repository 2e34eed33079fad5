"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py

They check the reference counts against tuple enumeration, that a wrong
answer fails the run, and that only the above-bound moduli may fail.
"""

import hashlib
import itertools
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import reference
import run
import workloads

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

POLYS = ("0,1", "3,2", "0,1,-1", "1,0,1", "1,1,1", "1,1,0,1", "0,-1,0,1",
         "1,5,6", "0,4,0,-5,0,1")


def factor(n):
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def brute_force_column(coeffs, k, n):
    """N(k, f, c, n) for every c, by walking every k-tuple of f-exunits."""
    members = [a for a in range(n) if math.gcd(reference.value_at(coeffs, a), n) == 1]
    column = [0] * n
    for tup in itertools.product(members, repeat=k):
        column[sum(tup) % n] += 1
    return column


def brute_force_avoiding(roots, k, p):
    column = [0] * p
    for tup in itertools.product([x for x in range(p) if x not in roots], repeat=k):
        column[sum(tup) % p] += 1
    return column


@pytest.mark.parametrize("poly", POLYS)
def test_reference_matches_tuple_enumeration(poly):
    coeffs = workloads.coeffs(poly)

    def roots_at(p):
        return reference.roots_mod_p(coeffs, p)
    for n in range(1, 16):
        for k in (2, 3, 4):
            expected = brute_force_column(coeffs, k, n)
            factors = factor(n)
            assert reference.table_column(factors, roots_at, k, n) == expected
            assert [reference.global_count(factors, roots_at, k, c)
                    for c in range(n)] == expected
            assert sum(expected) == reference.exunit_count(coeffs, n) ** k


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13, 17, 19))
def test_both_local_counts_match_enumeration(p):
    rng = random.Random(p)
    for r in range(0, min(p, 6) + 1):
        roots = tuple(sorted(rng.sample(range(p), r)))
        for k in (1, 2, 3):
            expected = brute_force_avoiding(roots, k, p)
            assert reference.convolution_vector(roots, k, p) == expected
            assert reference.inclusion_exclusion_vector(roots, k, p) == expected
        for k in (5, 9, 16):
            assert (reference.convolution_vector(roots, k, p)
                    == reference.inclusion_exclusion_vector(roots, k, p))


def test_root_sums_match_enumeration():
    for p in (7, 1009, 999983):
        for r in range(6):
            roots = tuple(sorted(random.Random(r).sample(range(p), r)))
            for k in range(1, 6):
                expected = {}
                for tup in itertools.product(roots, repeat=k):
                    expected[sum(tup) % p] = expected.get(sum(tup) % p, 0) + 1
                assert reference.sum_counts(roots, k, p) == expected


def test_single_entry_path_above_vector_limit():
    p = 5003
    assert p > reference.VECTOR_MAX_P and reference.is_prime(p)
    roots = (0, 17, 4000)
    for c in (0, 1, 34, 4017, 5002):
        expected = sum(1 for x in range(p) if x not in roots and (c - x) % p not in roots)
        assert reference.avoiding_count(roots, 2, p, c) == expected


def test_reference_roots_and_primes():
    for p in (2, 3, 13, 1009, 100003):
        for poly in POLYS:
            coeffs = workloads.coeffs(poly)
            assert reference.roots_mod_p(coeffs, p) == tuple(
                x for x in range(p) if reference.value_at(coeffs, x) % p == 0)
    assert [n for n in range(200) if reference.is_prime(n)] == [
        n for n in range(2, 200) if all(n % d for d in range(2, n))]
    assert reference.is_prime(10**12 + 39) and not reference.is_prime(10**12 + 41)


def _answered(q):
    return (reference.global_count(q.factors, q.roots_at, q.k, q.c) % run.FINGERPRINT,
            "linear" if len(q.linear_factors) == 1 else "quadratic")


def _record(item, outcome):
    return run.Record(0, item, 0.0, not isinstance(outcome, Exception), outcome)


def _closed_form_records(seed=1):
    batch = next(workloads.ClosedFormQueries("closed_form_queries", seed).rounds())
    return [_record(q, _answered(q)) for q in batch if not q.above_bound]


def test_perturbed_query_value_fails_the_run():
    checker = run.Run("closed_form_queries", 1, 1, False)
    records = _closed_form_records()
    assert checker.check_queries(records) == 0 and not checker.problems
    value, method = records[3].outcome
    records[3].outcome = (value + 1, method)
    checker.check_queries(records)
    assert len(checker.problems) == 1


def test_perturbed_table_row_fails_the_run():
    checker = run.Run("sweeps", 1, 1, False)
    table = next(workloads.Sweeps("sweeps", 1).rounds())[1]
    column = reference.table_column(table.factors, table.roots_at, table.k, table.n)

    def record(values):
        return _record(table, (0, hashlib.sha256(run.table_csv(values).encode()).hexdigest()))
    checker.check_tables([record(column)])
    assert not checker.problems
    column[len(column) // 2] += 1
    checker.check_tables([record(column)])
    assert len(checker.problems) == 1


def test_only_above_bound_moduli_are_expected_failures():
    import exunits

    for seed in (1, 2, 3):
        stream = workloads.ClosedFormQueries("closed_form_queries", seed).rounds()
        for _ in range(4):
            batch = next(stream)
            flagged = [q for q in batch if q.above_bound]
            assert len(flagged) == 1
            for q in batch:
                assert q.above_bound == any(
                    p >= workloads.PRIMALITY_BOUND for p, _ in q.factors)
    above = flagged[0]
    normal = _closed_form_records()[0].item
    checker = run.Run("closed_form_queries", 1, 1, False)
    failure = exunits.DomainError("exceeds the deterministic primality bound")
    assert checker.check_queries([_record(above, failure)]) == 1
    assert not checker.problems
    checker.check_queries([_record(normal, failure)])
    checker.check_queries([_record(above, ValueError("other"))])
    assert len(checker.problems) == 2
    # Once exunits answers them, their values are checked like any other.
    assert checker.check_queries([_record(above, _answered(above))]) == 0
    assert len(checker.problems) == 2


@pytest.mark.parametrize("name", sorted(workloads.STREAMS))
def test_no_reference_answer_is_zero(name):
    # A 0 at one prime would make the whole answer 0 and hide a wrong
    # factor at every other prime.
    items = list(workloads.COLD_START.values())
    for seed in (1, 2, 3):
        stream = workloads.STREAMS[name](name, seed).rounds()
        items += [item for _ in range(3) for item in next(stream)]
    for item in items:
        if isinstance(item, workloads.Table):
            column = reference.table_column(item.factors, item.roots_at, item.k, item.n)
            assert sum(column) > 0, item
        else:
            assert reference.global_count(item.factors, item.roots_at, item.k, item.c), item


def test_every_trace_target_exists():
    import spans

    restore, missing = spans.Tracer().install()
    restore()
    assert missing == []


@pytest.mark.parametrize("name", sorted(workloads.STREAMS))
def test_inputs_depend_only_on_the_seed(name):
    def rounds(seed):
        stream = workloads.STREAMS[name](name, seed).rounds()
        return [next(stream) for _ in range(3)]
    first = rounds(7)
    assert first == rounds(7) and first != rounds(8)
    if name != "sweeps":   # queries get distinct moduli; tables share a few dozen
        moduli = [q.n for batch in first for q in batch if not q.above_bound]
        assert len(moduli) == len(set(moduli))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(REPO, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0 and result.stdout == ""
