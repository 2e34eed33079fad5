import math
from fractions import Fraction

import pytest

from exunits.counting import (
    CountQuery,
    brauer_count,
    count,
    count_avoiding_tuples,
    count_table,
    global_count,
    linear_count,
    local_count,
    quadratic_count,
    root_composition_count,
    yang_zhao_count,
)
from exunits.arith import factorize, mod_inverse
from exunits.errors import BudgetExceededError, DomainError, FastPathInapplicableError
from exunits.oracle import oracle_global_count, oracle_global_count_dp, oracle_local_count
from exunits.poly import IntPolynomial, LinearCoprime, SplitQuadratic, classify, exunit_set
from exunits.verify import DEFAULT_POLYNOMIALS
from conftest import SMALL_PRIMES

X = IntPolynomial.parse("0,1")
X_MINUS_X2 = IntPolynomial.parse("0,1,-1")
X2_PLUS_1 = IntPolynomial.parse("1,0,1")


def _q(f, k, c, n):
    return CountQuery(f, k, c, n)


# ---------------------------------------------------------------- W and T


def test_root_composition_examples():
    assert root_composition_count([], 2, 0, 5) == 0
    assert root_composition_count([0, 1], 2, 1, 5) == 2
    assert root_composition_count([2], 3, 1, 5) == 1


def test_root_composition_rejects_duplicates():
    with pytest.raises(DomainError):
        root_composition_count([1, 6], 2, 0, 5)


def test_root_composition_matches_direct_enumeration():
    import itertools

    for p in (3, 5, 7):
        for roots in ((), (1,), (0, 2), (1, 2, 4)):
            roots = tuple(r for r in roots if r < p)
            if len(set(roots)) != len(roots):
                continue
            for k in (1, 2, 3, 4):
                for c in range(p):
                    direct = sum(
                        1 for tup in itertools.product(roots, repeat=k)
                        if sum(tup) % p == c)
                    assert root_composition_count(roots, k, c, p) == direct


def test_two_root_composition_is_a_binomial_class_sum():
    # for R = {a, b} the composition sum collapses to the C(k, j) over the
    # class (a - b) * j == c - b*k (mod p); checked exhaustively
    for p in SMALL_PRIMES:
        for a in range(p):
            for b in range(p):
                if a == b:
                    continue
                for k in range(1, 7):
                    for c in range(p):
                        classed = sum(
                            math.comb(k, j) for j in range(k + 1)
                            if ((a - b) * j - (c - b * k)) % p == 0)
                        assert root_composition_count((a, b), k, c, p) == classed


def test_root_composition_budget():
    # r >= 3 walks C(k + r - 1, r - 1) compositions: C(802, 2) = 321201 is refused
    with pytest.raises(BudgetExceededError):
        root_composition_count((0, 1, 6), 800, 1, 7)
    # a polynomial vanishing identically mod p needs no walk at any k
    cubic = IntPolynomial.parse("0,-1,0,1")
    assert local_count(cubic, 800, 1, 3).obstruction_count == 3**799


def test_count_avoiding_tuples_examples():
    assert count_avoiding_tuples(5, [0, 1], 2, 1) == 3
    assert count_avoiding_tuples(3, [], 2, 0) == 3
    assert count_avoiding_tuples(2, [0, 1], 2, 0) == 0


def test_count_avoiding_tuples_matches_direct_enumeration():
    import itertools

    for p in (2, 3, 5, 7):
        for roots in ((), (0,), (0, 1), (1, 3)):
            roots = tuple(r for r in roots if r < p)
            if len(set(roots)) != len(roots):
                continue
            allowed = [x for x in range(p) if x not in roots]
            for k in (1, 2, 3):
                for c in range(p):
                    direct = sum(
                        1 for tup in itertools.product(allowed, repeat=k)
                        if sum(tup) % p == c)
                    assert count_avoiding_tuples(p, roots, k, c) == direct


def test_avoiding_tuples_match_two_root_bracket():
    # T == (-1)**k * (p * S + (2-p)**k - 2**k) / p for R = {a, b}
    for p in SMALL_PRIMES:
        for a in range(p):
            for b in range(a + 1, p):
                for k in range(1, 7):
                    for c in range(p):
                        s = sum(math.comb(k, j) for j in range(k + 1)
                                if ((a - b) * j - (c - b * k)) % p == 0)
                        bracket = p * s + (2 - p) ** k - 2**k
                        expected, rem = divmod((-1) ** k * bracket, p)
                        assert rem == 0
                        assert count_avoiding_tuples(p, (a, b), k, c) == expected


# ---------------------------------------------------------------- local


def test_local_count_examples():
    assert local_count(X, 2, 1, 3).obstruction_count == 2
    assert local_count(X_MINUS_X2, 2, 1, 5).obstruction_count == 2
    assert local_count(X2_PLUS_1, 2, 0, 3).obstruction_count == 0


def test_local_count_degenerate_root_counts():
    # no roots: M = 0; full root set: M = p**(k-1)
    none = local_count(X2_PLUS_1, 3, 1, 3)
    assert none.root_count == 0 and none.obstruction_count == 0
    full = local_count(IntPolynomial((3, 3)), 3, 1, 3)
    assert full.root_count == 3 and full.obstruction_count == 9


def test_local_count_profile_consistency(family):
    for f in family:
        for p in (2, 3, 5, 7):
            for k in (2, 3):
                for c in range(p):
                    prof = local_count(f, k, c, p)
                    assert 0 <= prof.root_count <= p
                    assert 0 <= prof.root_sum_count <= prof.root_count**k
                    assert 0 <= prof.avoiding_sum_count <= (p - prof.root_count) ** k
                    assert prof.obstruction_count == p ** (k - 1) - prof.avoiding_sum_count
                    assert 0 <= prof.obstruction_count <= p ** (k - 1)


def test_local_count_matches_definitional_scan(family):
    for f in family:
        for p in (2, 3, 5, 7):
            for k in (2, 3, 4):
                for c in range(p):
                    assert (local_count(f, k, c, p).obstruction_count
                            == oracle_local_count(f, k, c, p)), (f.to_text(), k, c, p)


def test_local_count_closed_form_roots_for_large_prime():
    # linear and split-quadratic forms get their roots without a scan
    p = 2**61 - 1
    prof = local_count(IntPolynomial.parse("3,2"), 2, 1, p)
    assert prof.root_count == 1
    prof2 = local_count(X_MINUS_X2, 2, 1, p)
    assert prof2.roots == (0, 1)


# ---------------------------------------------------------------- global


def test_global_count_examples():
    assert global_count(_q(X_MINUS_X2, 2, 1, 5)).value == 3
    assert global_count(_q(X_MINUS_X2, 3, 0, 1)).value == 1
    assert global_count(_q(X_MINUS_X2, 2, 0, 6)).value == 0
    assert global_count(_q(X, 2, 0, 6)).value == 2


def test_global_count_report_product_invariant(family):
    for f in family:
        for n in (1, 5, 12, 36, 210):
            report = global_count(_q(f, 3, 1, n))
            product = 1
            for factor in report.per_prime:
                product *= factor.contribution
            assert report.value == product
            assert report.method == "general"
            assert tuple(lf.p for lf in report.per_prime) == tuple(
                p for p, _ in factorize(n))


def test_global_count_matches_rational_form(family):
    # the integer regrouping equals n**(k-1) * prod(1 - M/p**(k-1)) evaluated
    # in exact rational arithmetic
    for f in family:
        for k in (2, 3):
            for n in (1, 2, 9, 30, 64, 105):
                for c in (0, 1, 7):
                    rational = Fraction(n ** (k - 1))
                    for p, _ in factorize(n):
                        m = local_count(f, k, c % p, p).obstruction_count
                        rational *= 1 - Fraction(m, p ** (k - 1))
                    assert rational.denominator == 1
                    assert global_count(_q(f, k, c, n)).value == rational.numerator


def test_global_count_multiplicative(family):
    for f in family:
        for m, n in ((2, 9), (4, 15), (8, 27), (5, 49), (9, 32)):
            assert math.gcd(m, n) == 1
            for k in (2, 3):
                for c in (0, 1, 11):
                    whole = global_count(_q(f, k, c, m * n)).value
                    parts = (global_count(_q(f, k, c % m, m)).value
                             * global_count(_q(f, k, c % n, n)).value)
                    assert whole == parts


def test_global_count_conservation(family):
    for f in family:
        for k in (2, 3):
            for n in (1, 4, 9, 12, 30):
                total = sum(global_count(_q(f, k, c, n)).value for c in range(n))
                assert total == len(exunit_set(f, n)) ** k


def test_global_count_bounds(family):
    for f in family:
        for k in (2, 4):
            for n in (6, 25, 36):
                size = len(exunit_set(f, n))
                for c in range(n):
                    value = global_count(_q(f, k, c, n)).value
                    assert 0 <= value <= size**k


def test_global_count_matches_tuple_oracle(family):
    for f in family:
        for k in (2, 3):
            for n in range(1, 61):
                for c in range(n):
                    assert (global_count(_q(f, k, c, n)).value
                            == oracle_global_count(_q(f, k, c, n))), (f.to_text(), k, c, n)
        for n in range(1, 31):
            for c in range(n):
                assert (global_count(_q(f, 4, c, n)).value
                        == oracle_global_count(_q(f, 4, c, n)))


@pytest.mark.parametrize("text, k_values", [
    ("1,0,1", (2, 3, 4, 7, 16, 31, 50)),        # x**2 + 1
    ("1,1,1", (2, 3, 4, 7, 16, 31, 50)),        # x**2 + x + 1
    ("3,2", (2, 3, 4, 7, 16, 31, 50)),          # 2x + 3
    ("0,-1,0,1", (2, 3, 4, 7, 16, 31, 50)),     # x**3 - x
    ("0,4,0,-5,0,1", (2, 3, 5, 8, 13, 20)),     # x**5 - 5x**3 + 4x
])
def test_global_count_matches_convolution_oracle(text, k_values):
    # W comes from an indicator (r = 1), a binomial class sum (r = 2) or a
    # composition walk (r >= 3), at high k and with many roots; the
    # per-prime column of count_table must give the same row for every c
    f = IntPolynomial.parse(text)
    for k in k_values:
        for n in range(1, 41):
            column = count_table(f, k, n)
            for c in range(n):
                q = _q(f, k, c, n)
                oracle = oracle_global_count_dp(q)
                assert global_count(q).value == oracle == column[c], (text, k, c, n)


@pytest.mark.parametrize("text", DEFAULT_POLYNOMIALS + (
    "0,-1,0,1",        # x**3 - x: r = p at p = 2 and 3, r = 3 above
    "0,4,0,-5,0,1",    # x**5 - 5x**3 + 4x: up to five roots
    "0,0,2",           # 2x**2: r = p at p = 2
))
def test_count_table_matches_per_target_counts(text):
    f = IntPolynomial.parse(text)
    for k in (2, 3, 4, 7):
        for n in range(1, 61):
            assert count_table(f, k, n) == [count(_q(f, k, c, n)).value
                                            for c in range(n)], (text, k, n)


def test_count_table_edges():
    assert count_table(X, 2, 1) == [1]
    assert count_table(X_MINUS_X2, 5, 1) == [1]
    with pytest.raises(DomainError):
        count_table(X, 1, 5)
    with pytest.raises(DomainError):
        count_table(X, 2, 0)


def test_query_validation():
    with pytest.raises(DomainError):
        CountQuery(X, 1, 0, 5)
    with pytest.raises(DomainError):
        CountQuery(X, 2, 0, 0)
    with pytest.raises(DomainError):
        CountQuery(X, 10**6 + 1, 0, 5)


# ---------------------------------------------------------------- fast paths


def test_linear_count_examples():
    assert linear_count(_q(X, 2, 0, 6)).value == 2
    assert linear_count(_q(X, 3, 0, 5)).value == 12
    assert linear_count(_q(X, 2, 1, 5)).value == 3


def test_linear_count_inapplicable():
    with pytest.raises(FastPathInapplicableError):
        linear_count(_q(IntPolynomial.parse("3,2"), 2, 1, 4))
    with pytest.raises(FastPathInapplicableError):
        linear_count(_q(X_MINUS_X2, 2, 1, 5))


def test_linear_count_agrees_with_general():
    for text in ("0,1", "1,1", "3,2", "-4,3"):
        f = IntPolynomial.parse(text)
        a = f.coeffs[1]
        for k in (2, 3, 5):
            for n in range(1, 30):
                if math.gcd(a, n) != 1:
                    continue
                for c in range(n):
                    assert (linear_count(_q(f, k, c, n)).value
                            == global_count(_q(f, k, c, n)).value)


def test_brauer_examples():
    assert brauer_count(2, 0, 6).value == 2
    assert brauer_count(2, 1, 5).value == 3
    for p in (3, 7, 13, 101):
        assert brauer_count(2, 0, p).value == p - 1


def test_brauer_equals_linear_on_plain_units():
    for k in (2, 3, 4):
        for n in range(1, 40):
            for c in range(n):
                assert brauer_count(k, c, n).value == linear_count(_q(X, k, c, n)).value


def test_brauer_absorbs_linear_shift():
    # counting exunits of a*x + b is counting units of the shifted target
    for text in ("1,1", "3,2"):
        f = IntPolynomial.parse(text)
        b, a = f.coeffs
        for k in (2, 3):
            for n in (5, 7, 9, 11):
                if math.gcd(a, n) != 1:
                    continue
                for c in range(n):
                    assert (linear_count(_q(f, k, c, n)).value
                            == brauer_count(k, (a * c + k * b) % n, n).value)


def test_quadratic_count_examples():
    assert quadratic_count(_q(X_MINUS_X2, 2, 1, 5)).value == 3
    assert quadratic_count(_q(X_MINUS_X2, 2, 0, 5)).value == 2
    for k in (2, 3, 4):
        for c in (0, 1, 5):
            assert quadratic_count(_q(X_MINUS_X2, k, c, 2 * 7)).value == 0


def test_quadratic_count_inapplicable():
    with pytest.raises(FastPathInapplicableError):
        quadratic_count(_q(X2_PLUS_1, 2, 0, 5))
    with pytest.raises(FastPathInapplicableError):
        quadratic_count(_q(IntPolynomial.parse("1,5,6"), 2, 0, 10))


def test_quadratic_count_agrees_with_general():
    for text in ("0,1,-1", "1,5,6", "-1,0,1"):
        f = IntPolynomial.parse(text)
        for k in (2, 3, 5):
            for n in range(1, 40):
                try:
                    fast = quadratic_count(_q(f, k, 3, n)).value
                except FastPathInapplicableError:
                    continue
                assert fast == global_count(_q(f, k, 3, n)).value


def test_quadratic_value_invariant_under_factor_presentation():
    # x - x**2 = (x - 0)(-x + 1) = (-x - 0)(x - 1): all presentations
    # satisfying the gcd conditions give the same count as the normalised one
    from exunits.counting import _binomial_class_sum

    def literal(a1, a2, b1, b2, k, c, n):
        value = 1
        for p, e in factorize(n):
            s = _binomial_class_sum(k, (a2 * b1 - a1 * b2) % p,
                                    (a1 * b1 * c - a1 * b2 * k) % p, p)
            bracket = p * s + (2 - p) ** k - 2**k
            unit = (-1) ** k * bracket // p
            value *= p ** ((e - 1) * (k - 1)) * unit
        return value

    for presentation in ((1, 0, -1, -1), (-1, 0, 1, 1), (-1, -1, 1, 0)):
        for k in (2, 3):
            for n in (5, 7, 35):
                for c in range(n):
                    assert (literal(*presentation, k, c, n)
                            == quadratic_count(_q(X_MINUS_X2, k, c, n)).value)


def test_yang_zhao_examples():
    assert yang_zhao_count(2, 1, 5).value == 3
    assert yang_zhao_count(2, 1, 6).value == 0
    assert yang_zhao_count(3, 0, 5).value == 6


def test_yang_zhao_matches_quadratic():
    for k in (2, 3, 4, 5):
        for n in range(1, 60):
            for c in range(n):
                assert (yang_zhao_count(k, c, n).value
                        == quadratic_count(_q(X_MINUS_X2, k, c, n)).value)


def test_fast_paths_match_classical_counts_beyond_every_oracle():
    # n = 5 * 7 * (10**12 + 39): f-exunits of a*x + b are units of the target
    # a*c + k*b, and x = a2/a1 + (b2/b1 - a2/a1)*y carries the exceptional
    # units onto those of (a1*x - a2)(b1*x - b2)
    n = 5 * 7 * 1000000000039
    for k in (2, 41, 5000):
        for c in (0, 1, 12345, n - 3):
            for text in ("0,1", "3,2", "-4,3"):
                form = classify(IntPolynomial.parse(text), n)
                assert isinstance(form, LinearCoprime)
                assert (linear_count(_q(IntPolynomial.parse(text), k, c, n)).value
                        == brauer_count(k, (form.a * c + k * form.b) % n, n).value)
            for text in ("0,1,-1", "1,5,6", "6,-5,1"):
                form = classify(IntPolynomial.parse(text), n)
                assert isinstance(form, SplitQuadratic)
                scale = mod_inverse(form.a1 * form.b2 - form.a2 * form.b1, n)
                shifted = (form.a1 * form.b1 * c - k * form.a2 * form.b1) * scale % n
                assert (quadratic_count(_q(IntPolynomial.parse(text), k, c, n)).value
                        == yang_zhao_count(k, shifted, n).value)


def test_degenerate_prime_contributions():
    # r = 0 at every prime of n: N = n**(k-1)
    k = 3
    n = 3 * 7  # x**2 + 1 has no roots mod 3 or 7
    report = global_count(_q(X2_PLUS_1, k, 1, n))
    assert report.value == n ** (k - 1)
    assert all(lf.obstruction_count == 0 for lf in report.per_prime)
    # r = p at some prime: that factor, and hence N, is 0
    report2 = global_count(_q(X_MINUS_X2, 2, 1, 10))
    assert report2.value == 0
    assert report2.per_prime[0] == report2.per_prime[0].__class__(2, 1, 2, 0)


# ---------------------------------------------------------------- dispatch


def test_count_dispatch_auto():
    rep = count(_q(X, 2, 0, 6))
    assert (rep.value, rep.method) == (2, "linear")
    rep = count(_q(X2_PLUS_1, 2, 0, 5))
    assert rep.method == "general"
    rep = count(_q(X_MINUS_X2, 2, 1, 5))
    assert (rep.value, rep.method) == (3, "quadratic")


def test_count_dispatch_explicit():
    assert count(_q(X_MINUS_X2, 2, 1, 5), "general").value == 3
    assert count(_q(X_MINUS_X2, 2, 1, 5), "quadratic").value == 3
    with pytest.raises(FastPathInapplicableError):
        count(_q(X2_PLUS_1, 2, 0, 5), "linear")
    with pytest.raises(DomainError):
        count(_q(X, 2, 0, 6), "magic")


def test_all_methods_agree_when_applicable(family):
    for f in family:
        for k in (2, 3):
            for n in (1, 6, 15, 28):
                for c in range(n):
                    q = _q(f, k, c, n)
                    reference = count(q, "general").value
                    assert count(q, "auto").value == reference
                    for method in ("linear", "quadratic"):
                        try:
                            assert count(q, method).value == reference
                        except FastPathInapplicableError:
                            pass
