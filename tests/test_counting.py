import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exunits import counting
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
from exunits.errors import (
    BudgetExceededError,
    DomainError,
    FastPathInapplicableError,
    InvariantViolationError,
)
from exunits.oracle import oracle_global_count, oracle_global_count_dp, oracle_local_count
from exunits.poly import IntPolynomial, LinearCoprime, SplitQuadratic, classify, exunit_set
from exunits.verify import DEFAULT_POLYNOMIALS, _independent_count
from conftest import SMALL_PRIMES

PRIMES_TO_60 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)

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
    cases = [(p, tuple(r for r in roots if r < p))
             for p in (3, 5, 7) for roots in ((), (1,), (0, 2), (1, 2, 4))]
    cases += [(7, (0, 1, 3, 4)), (7, (0, 1, 3, 4, 6)), (11, (1, 2, 4, 8, 9))]
    for p, roots in cases:
        for k in (1, 2, 3, 4, 5):
            for c in range(p):
                direct = sum(
                    1 for tup in itertools.product(roots, repeat=k)
                    if sum(tup) % p == c)
                assert root_composition_count(roots, k, c, p) == direct, (roots, k, c, p)


def _cyclic_convolutions(roots, p, ks):
    # {k: [k-tuples of roots summing to c mod p for every c]}, one step of
    # the cyclic convolution per unit of k
    dist, out = [1] + [0] * (p - 1), {}
    for k in range(1, max(ks) + 1):
        dist = [sum(dist[(a - x) % p] for x in roots) for a in range(p)]
        if k in ks:
            out[k] = dist
    return out


def _over_budget(p, k, r):
    # the refusal W must raise for r >= 3 roots, or None within the budget
    cost = min(counting._power_cost(p, k, r), counting._walk_cost(p, k, r))
    if cost <= counting.W_COST_BUDGET:
        return None
    return (f"W for {r} roots mod {p} at k = {k}: estimated {cost:.3g} s, "
            f"over the W budget of {counting.W_COST_BUDGET:g} s")


def test_root_composition_matches_convolution_up_to_the_budget():
    # the k-fold cyclic convolution of the root indicator over Z_p, past
    # the old composition budget (k = 445 for r = 3, k = 30 for r = 5) up to
    # k = 10**4; k = 10**6 is over the W budget and refused before any work
    for roots, p, ks in (((0, 1, 6), 7, (445, 1000, 10**4)), ((1, 2, 4, 8, 9), 11, (30, 1000))):
        for k, dist in _cyclic_convolutions(roots, p, ks).items():
            assert [root_composition_count(roots, k, c, p) for c in range(p)] == dist, k
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError) as refused:
        root_composition_count((0, 1, 6), 10**6, 1, 7)
    assert time.perf_counter() - started < 0.1
    assert str(refused.value) == _over_budget(7, 10**6, 3)


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


def _class_sum(k, a, b, c, p):
    return sum(math.comb(k, j) for j in range(k + 1) if (a * j + b * (k - j) - c) % p == 0)


@st.composite
def _two_root_cases(draw):
    p = draw(st.sampled_from(PRIMES_TO_60))
    a, b = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
    return (a, b), draw(st.integers(-1000, 1000)), p


@given(st.integers(0, 400), st.lists(_two_root_cases(), max_size=6))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_two_root_sums_match_math_comb(k, cases):
    # odd and even k on both sides of the math.comb cut-off, several primes
    # in one walk, p > k included
    assert counting._two_root_sums(k, cases) == [
        _class_sum(k, a, b, c, p) for (a, b), c, p in cases]
    if k >= 1 and cases:     # the public wrapper takes k >= 1
        (a, b), c, p = cases[0]
        assert root_composition_count((a, b), k, c, p) == _class_sum(k, a, b, c, p)


def test_two_root_sums_across_walk_chunks(monkeypatch):
    # a chunk of 7 steps puts class hits on both sides of many chunk edges
    monkeypatch.setattr(counting, "_WALK_CHUNK", 7)
    for k in (65, 66, 100, 101):
        cases = [((1, 0), c, p) for p in (2, 3, 7, 13, 101, 1009) for c in range(min(p, 15))]
        cases += [((5, 2), c, 13) for c in range(13)]
        assert counting._two_root_sums(k, cases) == [
            _class_sum(k, a, b, c, p) for (a, b), c, p in cases]


def test_root_composition_with_a_memo_that_keeps_starting_over(monkeypatch):
    # the walk memo, shared by the targets of one (roots, k, p), changes no
    # sum when it is cleared every few entries
    monkeypatch.setattr(counting, "_MEMO_ENTRIES", 3)
    monkeypatch.setattr(counting, "_w_strategy", lambda *args: "walk")
    counting._w_memo.cache_clear()
    for roots, k, p in (((0, 1, 6), 40, 7), ((1, 2, 4, 8, 9), 12, 11), ((0, 2, 3, 5), 9, 101)):
        dist = _cyclic_convolutions(roots, p, {k})[k]
        assert [root_composition_count(roots, k, c, p) for c in range(p)] == dist


@st.composite
def _root_sets(draw):
    p = draw(st.sampled_from(PRIMES_TO_60[1:]))
    r = draw(st.integers(3, min(p, 6)))
    return tuple(draw(st.lists(st.integers(0, p - 1), min_size=r, max_size=r, unique=True))), p


@given(_root_sets(), st.sampled_from(range(1, 301)), st.sampled_from(["power", "walk"]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_forced_w_strategies_match_convolution(root_set, k, strategy):
    # each strategy, forced past the chooser, gives every target's W; the
    # walk only where it is cheap, since with many roots and repeated
    # residues it restarts its memo over and over
    roots, p = root_set
    if strategy == "walk":
        assume(counting._walk_cost(p, k, len(roots)) < 0.05)
    counting._w_memo.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_w_strategy", lambda *args: strategy)
        sums = [root_composition_count(roots, k, c, p) for c in range(p)]
    assert sums == _cyclic_convolutions(roots, p, {k})[k]


def test_packed_root_sums_add_up_to_r_to_the_k():
    assert sum(counting._packed_root_sums((0, 1, 6), 445, 7)) == 3**445
    # k = 1 is the indicator itself; the root set Z_p spreads r**k evenly
    assert counting._packed_root_sums((0, 2, 5), 1, 7) == (1, 0, 1, 0, 0, 1, 0)
    assert counting._packed_root_sums((0, 1, 2, 3, 4), 9, 5) == (5**8,) * 5


def test_w_strategy_by_cost():
    # the power wherever p*k*log2 r is small, the walk at large p
    assert counting._w_strategy(7, 445, 3) == "power"
    assert counting._w_strategy(11, 30, 5) == "power"
    assert counting._w_strategy(19, 171, 3) == "power"
    assert counting._w_strategy(1009, 50, 3) == "walk"
    assert counting._w_strategy(999983, 3, 3) == "walk"
    # never the power at a scanned prime of 10**3 and above at small k
    for p in (1009, 10007, 99991, 999983, 9999991):
        for k in range(2, 7):
            for r in range(3, 6):
                assert counting._w_strategy(p, k, r) == "walk", (p, k, r)


def test_root_composition_budget():
    # refused before any work: r >= 3 when both strategies are over the
    # budget, and r = 2 by its class sums (a walk, or one math.comb when
    # p > k)
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError) as refused:
        root_composition_count((0, 1, 2, 3, 4), 300, 1, 999983)
    assert str(refused.value) == _over_budget(999983, 300, 5)
    with pytest.raises(BudgetExceededError, match=r"^binomial class sums at k = 1000000: "):
        root_composition_count((0, 1), 10**6, 1, 7)
    with pytest.raises(BudgetExceededError, match=r"^binomial class sums at k = 1000000: "):
        root_composition_count((0, 1), 10**6, 5 * 10**5, 1000003)
    with pytest.raises(BudgetExceededError, match=r"^binomial class sums at k = 1000000: "):
        count(CountQuery(X_MINUS_X2, 10**6, 1, 35))
    with pytest.raises(BudgetExceededError, match=r"^binomial class sums at k = 1000000: "):
        count_table(X_MINUS_X2, 10**6, 35)
    assert time.perf_counter() - started < 0.5
    # one class member far from k/2 is cheap at any k
    assert root_composition_count((0, 1), 10**6, 3, 1000003) == math.comb(10**6, 3)
    assert root_composition_count((0, 1), 10**6, 1000002, 1000003) == 0
    # a polynomial vanishing identically mod p needs no W at any k
    cubic = IntPolynomial.parse("0,-1,0,1")
    assert local_count(cubic, 800, 1, 3).obstruction_count == 3**799


def test_single_count_prices_every_w_before_any_runs():
    # x(x - 1)(x - 3) has two roots mod 3 and three mod 10007: at k = 10**5
    # the r = 3 prime is refused before the two-root walk mod 3 (about a
    # second) starts. The first count takes the roots mod 10007.
    f = IntPolynomial.parse("0,3,-4,1")
    assert count(CountQuery(f, 2, 1, 3 * 10007)).value > 0
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"^W for 3 roots mod 10007 at k = 100000: "):
        count(CountQuery(f, 100000, 1, 3 * 10007))
    assert time.perf_counter() - started < 0.25


WT_GRID_KS = (1, 2, 3, 4, 7, 12, 30, 90, 250)


def test_w_and_t_grid_matches_convolution():
    # every p <= 13, up to 12 evenly spaced root sets of each size
    # r <= min(p, 6), every k of WT_GRID_KS and every c: 21,366 (W, T)
    # inputs against the convolutions of the roots and of the non-roots
    inputs = 0
    for p in SMALL_PRIMES:
        for r in range(min(p, 6) + 1):
            sets = list(itertools.combinations(range(p), r))
            for roots in (sets[i * len(sets) // 12] for i in range(min(12, len(sets)))):
                others = [x for x in range(p) if x not in roots]
                w_dists = _cyclic_convolutions(roots, p, WT_GRID_KS)
                t_dists = _cyclic_convolutions(others, p, WT_GRID_KS)
                for k in WT_GRID_KS:
                    refusal = _over_budget(p, k, r) if r >= 3 else None
                    for c in range(p):
                        inputs += 1
                        if refusal:
                            with pytest.raises(BudgetExceededError) as refused:
                                root_composition_count(roots, k, c, p)
                            assert str(refused.value) == refusal
                            continue
                        assert root_composition_count(roots, k, c, p) == w_dists[k][c]
                        assert count_avoiding_tuples(p, roots, k, c) == t_dists[k][c]
    assert inputs == 21366


def test_count_avoiding_tuples_examples():
    assert count_avoiding_tuples(5, [0, 1], 2, 1) == 3
    assert count_avoiding_tuples(3, [], 2, 0) == 3
    assert count_avoiding_tuples(2, [0, 1], 2, 0) == 0


def test_count_avoiding_tuples_matches_direct_enumeration():
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
    assert len(none.roots) == 0 and none.obstruction_count == 0
    full = local_count(IntPolynomial((3, 3)), 3, 1, 3)
    assert len(full.roots) == 3 and full.obstruction_count == 9


def test_local_count_profile_consistency(family):
    for f in family:
        for p in (2, 3, 5, 7):
            for k in (2, 3):
                for c in range(p):
                    prof = local_count(f, k, c, p)
                    r = len(prof.roots)
                    assert 0 <= r <= p
                    assert 0 <= prof.root_sum_count <= r**k
                    assert 0 <= prof.avoiding_sum_count <= (p - r) ** k
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
    assert len(prof.roots) == 1
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
    # W is one walk over the roots whose base cases are the indicator
    # (r = 1) and the binomial class sum (r = 2), here at high k and with
    # many roots; the per-prime column of count_table must give the same
    # row for every c
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


def test_closed_form_columns_take_no_root_sum(monkeypatch):
    # x has one root and 99991*x vanishes identically mod 99991, so both
    # columns are closed forms and no residue takes a walk of its own
    calls = []
    original = counting._root_sum

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(counting, "_root_sum", counted)
    p = 99991
    table = count_table(X, 50, p)
    assert sum(table) == (p - 1) ** 50
    assert [table[c] for c in (0, 1, p - 1)] == [count(_q(X, 50, c, p)).value
                                                  for c in (0, 1, p - 1)]
    assert count_table(IntPolynomial((0, p)), 50, p) == [0] * p
    assert calls == []


def test_count_table_edges():
    assert count_table(X, 2, 1) == [1]
    assert count_table(X_MINUS_X2, 5, 1) == [1]
    with pytest.raises(DomainError):
        count_table(X, 1, 5)
    with pytest.raises(DomainError):
        count_table(X, 2, 0)
    # refused before the rows are allocated
    with pytest.raises(BudgetExceededError, match="n = 10000000000 exceeds the table budget"):
        count_table(X, 2, 10**10)


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
    def literal(a1, a2, b1, b2, k, c, n):
        value = 1
        for p, e in factorize(n):
            s = sum(math.comb(k, j) for j in range(k + 1)
                    if ((a2 * b1 - a1 * b2) * j - (a1 * b1 * c - a1 * b2 * k)) % p == 0)
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


def test_split_quadratics_at_large_k_match_yang_zhao():
    # every prime of n has two roots, so one binomial-row walk serves them all
    rng = random.Random(10)
    for text, n in (("2,-3,1", 3**2 * 5 * 7**3 * 13 * 47), ("0,1,-1", 3 * 5 * 7 * 11),
                    ("1,5,6", 5**2 * 7 * 11 * 13), ("6,-5,1", 7 * 11 * 13 * 31)):
        f = IntPolynomial.parse(text)
        form = classify(f, n)
        assert isinstance(form, SplitQuadratic)
        for k in (1000, 4001, 8000):
            for c in (0, 1, rng.randrange(n)):
                assert count(_q(f, k, c, n)).value == _independent_count(form, k, c, n)


def test_count_table_at_large_k_matches_per_target_counts():
    # x - x**2 has no exunit mod 2, so every row of the first table is 0
    rng = random.Random(11)
    for n in (30030, 3 * 5 * 7 * 11):
        table = count_table(X_MINUS_X2, 5000, n)
        for c in sorted(rng.sample(range(n), 8)):
            assert table[c] == count(_q(X_MINUS_X2, 5000, c, n)).value, (n, c)


def test_count_table_power_column_matches_walked_targets():
    # x**3 - x has three roots mod 10007: its table column takes one power,
    # since one walk per residue would cost more, while each single count
    # takes the walk
    cubic = IntPolynomial.parse("0,-1,0,1")
    n = 3 * 10007
    assert counting._w_strategy(10007, 6, 3) == "walk"
    assert counting._w_strategy(10007, 6, 3, 10007) == "power"
    table = count_table(cubic, 6, n)
    for c in sorted(random.Random(12).sample(range(n), 8)):
        assert table[c] == count(_q(cubic, 6, c, n)).value, c


@pytest.mark.parametrize("text, source", [
    ("0,1,-1", "_two_root_sums"),             # x - x**2: two roots mod 5 and 7
    ("0,-1,0,1", "root_composition_count"),   # x**3 - x: three roots mod 5 and 7
])
def test_shared_local_factors_keep_both_invariant_checks(monkeypatch, text, source):
    # T = ((p - r)**k + (-1)**k * (p*W - r**k)) / p takes W only as p*W, so
    # the remainder check sees a numerator one off a multiple of p (W + 1/p)
    # and the range check a T off by p**k (W + p**k). Both the column and
    # the single-query paths must raise through them.
    f, original = IntPolynomial.parse(text), getattr(counting, source)

    def perturbed(offset):
        def two_root_sums(k, cases):
            return [w + offset(p) for w, (_, _, p) in zip(original(k, cases), cases)]

        def one_root_sum(roots, k, c, p):
            return original(roots, k, c, p) + offset(p)
        return two_root_sums if source == "_two_root_sums" else one_root_sum

    for offset, match in ((lambda p: Fraction(1, p), "not an integer"),
                          (lambda p: p**3, "out of range")):
        monkeypatch.setattr(counting, source, perturbed(offset))
        counting._w_memo.cache_clear()
        with pytest.raises(InvariantViolationError, match=match):
            count_table(f, 3, 35)
        with pytest.raises(InvariantViolationError, match=match):
            global_count(_q(f, 3, 1, 35))
        if source == "root_composition_count":
            with pytest.raises(InvariantViolationError, match=match):
                local_count(f, 3, 1, 7)
            with pytest.raises(InvariantViolationError, match=match):
                count_avoiding_tuples(7, (0, 1, 6), 3, 1)
    # a unit outside [0, p**(k-1)] is refused, its ends are not; the closed
    # forms regroup through the same check
    with pytest.raises(InvariantViolationError, match="out of range"):
        counting._regrouped(7, 1, 3, [-1])
    with pytest.raises(InvariantViolationError, match="out of range"):
        counting._regrouped(7, 2, 3, [0, 50])
    assert counting._regrouped(7, 2, 3, [0, 49]) == (49, [0, 49], [0, 49**2])


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
