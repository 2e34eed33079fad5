import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exunits.counting import CountQuery
from exunits.errors import BudgetExceededError, DomainError
from exunits.oracle import (
    count_zero_product_tuples,
    oracle_global_count,
    oracle_global_count_dp,
    oracle_local_count,
)
from exunits.poly import IntPolynomial
from conftest import FAMILY_TEXTS

X = IntPolynomial.parse("0,1")
X_MINUS_X2 = IntPolynomial.parse("0,1,-1")


def test_oracle_global_examples():
    assert oracle_global_count(CountQuery(X_MINUS_X2, 2, 1, 5)) == 3
    assert oracle_global_count(CountQuery(X_MINUS_X2, 4, 0, 1)) == 1
    assert oracle_global_count(CountQuery(X, 2, 0, 6)) == 2


def test_oracle_dp_examples():
    assert oracle_global_count_dp(CountQuery(X_MINUS_X2, 2, 1, 5)) == 3
    assert oracle_global_count_dp(CountQuery(X_MINUS_X2, 3, 0, 6)) == 0
    assert (oracle_global_count_dp(CountQuery(X, 4, 2, 30))
            == oracle_global_count(CountQuery(X, 4, 2, 30)))


def test_oracles_agree_everywhere_small(family):
    for f in family:
        for k in (2, 3):
            for n in range(1, 25):
                for c in range(n):
                    q = CountQuery(f, k, c, n)
                    assert oracle_global_count(q) == oracle_global_count_dp(q)


@given(st.integers(1, 30), st.integers(2, 4), st.integers(-40, 40),
       st.sampled_from(FAMILY_TEXTS))
@settings(max_examples=60, deadline=None)
def test_oracles_agree_randomised(n, k, c, text):
    q = CountQuery(IntPolynomial.parse(text), k, c, n)
    assert oracle_global_count(q) == oracle_global_count_dp(q)


def test_oracle_budgets():
    with pytest.raises(BudgetExceededError):
        oracle_global_count(CountQuery(X, 4, 0, 100), budget=10**4)
    with pytest.raises(BudgetExceededError):
        oracle_global_count_dp(CountQuery(X, 2, 0, 100), budget=50)
    # the convolution budget is n**2 per step of the square-and-multiply
    # (k = 3: one squaring, one multiply)
    q = CountQuery(X, 3, 1, 10)
    assert oracle_global_count_dp(q, budget=200) == oracle_global_count(q)
    with pytest.raises(BudgetExceededError):
        oracle_global_count_dp(q, budget=199)
    with pytest.raises(BudgetExceededError):
        oracle_global_count_dp(CountQuery(X, 3, 0, 100000))
    with pytest.raises(BudgetExceededError):
        oracle_local_count(X, 5, 0, 101, budget=10**6)
    # refused before the n residues are scanned when the scan alone costs
    # n * (deg f + log2 n) steps over the budget, or as soon as the members
    # found so far are too many
    with pytest.raises(BudgetExceededError, match="n = 10000000000 exceeds"):
        oracle_global_count(CountQuery(X, 2, 0, 10**10))
    with pytest.raises(BudgetExceededError, match="n = 10000000 exceeds"):
        oracle_global_count(CountQuery(X_MINUS_X2, 2, 0, 10**7))
    with pytest.raises(BudgetExceededError, match=r"\|E\|\*\*k >= 10001\*\*2"):
        oracle_global_count(CountQuery(X, 2, 0, 10**5))
    # the scan charge at the edge: 3 * (1 + 2) = 9 steps
    assert oracle_global_count(CountQuery(X, 2, 0, 3), budget=9) == 2
    with pytest.raises(BudgetExceededError):
        oracle_global_count(CountQuery(X, 2, 0, 3), budget=8)


def test_oracle_local_examples():
    assert oracle_local_count(X, 2, 1, 3) == 2
    assert oracle_local_count(IntPolynomial.parse("1,0,1"), 2, 0, 3) == 0
    assert oracle_local_count(X_MINUS_X2, 2, 1, 5) == 2


def test_oracle_local_rejections():
    with pytest.raises(DomainError):
        oracle_local_count(X, 1, 0, 5)
    with pytest.raises(DomainError):
        oracle_local_count(X, 2, 0, 6)


def test_count_zero_product_tuples_brute_force_cross_check():
    # the (vectorised) harness against a completely naive loop
    def naive(f, r, c, ambient, modulus):
        hits = 0
        for tup in itertools.product(range(ambient), repeat=r):
            value = 1
            for x in tup:
                value *= sum(coef * x**i for i, coef in enumerate(f.coeffs))
            tail = c - sum(tup)
            value *= sum(coef * tail**i for i, coef in enumerate(f.coeffs))
            if value % modulus == 0:
                hits += 1
        return hits

    for f in (X_MINUS_X2, IntPolynomial.parse("1,0,1")):
        for ambient, modulus in ((6, 3), (8, 8), (9, 3), (10, 5)):
            for c in (0, 1, 4):
                for r in (1, 2):
                    assert (count_zero_product_tuples(f, r, c, ambient, modulus)
                            == naive(f, r, c, ambient, modulus))


def test_lifting_identity_small():
    # counting a congruence mod m over the larger ring Z_n scales by (n/m)**r
    for f in (X_MINUS_X2, IntPolynomial.parse("1,1,0,1")):
        for n in range(1, 31):
            for m in (d for d in range(1, n + 1) if n % d == 0):
                for r in (1, 2):
                    big = count_zero_product_tuples(f, r, 1, n, m)
                    small = count_zero_product_tuples(f, r, 1, m, m)
                    assert big == (n // m) ** r * small


def test_coprime_product_rule_small():
    for f in (X_MINUS_X2, IntPolynomial.parse("1,0,1")):
        for m1, m2 in ((2, 3), (3, 4), (4, 9), (5, 8), (7, 9)):
            assert math.gcd(m1, m2) == 1
            for r in (1, 2):
                whole = count_zero_product_tuples(f, r, 1, m1 * m2, m1 * m2)
                part1 = count_zero_product_tuples(f, r, 1, m1, m1)
                part2 = count_zero_product_tuples(f, r, 1, m2, m2)
                assert whole == part1 * part2
