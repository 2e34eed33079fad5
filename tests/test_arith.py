import math
import random
import time

import pytest
from hypothesis import given, settings
from click.testing import CliRunner
from hypothesis import strategies as st

from exunits import arith
from exunits.arith import factorize, is_prime, mod_inverse, prime_test
from exunits.cli import cli
from exunits.counting import CountQuery, count
from exunits.errors import BudgetExceededError, DomainError, NotInvertibleError
from exunits.poly import IntPolynomial

# The least strong pseudoprimes to the first 1, 2, ..., 13 prime bases (OEIS
# A014233, with repeats dropped); every one is a strong pseudoprime to base 2.
# The last two lie at and above _MR_BOUND, where only BPSW's Lucas half can
# reject them.
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
# Carmichael numbers, the last (6k+1)(12k+1)(18k+1) with k = 6300850 above
# _MR_BOUND.
CARMICHAEL_NUMBERS = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    37805101 * 75610201 * 113415301,
)
# The strong Lucas pseudoprimes with Selfridge's parameters below 130140
# (OEIS A217255).
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    75077, 97439, 100127, 113573, 115639, 130139,
)


def _trial_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _random_prime(rng, lo, hi):
    while True:
        candidate = rng.randrange(lo, hi)
        if is_prime(candidate):
            return candidate


def test_factorize_examples():
    assert factorize(360).entries == ((2, 3), (3, 2), (5, 1))
    assert factorize(1).entries == ()
    assert factorize(9999999967).entries == ((9999999967, 1),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(DomainError):
        factorize(-6)


def test_factorize_reconstructs_everything_up_to_10000():
    for n in range(1, 10001):
        assert factorize(n).value == n


def test_factorize_splits_semiprime_beyond_trial_division():
    assert factorize(1000003 * 1000033).entries == ((1000003, 1), (1000033, 1))


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(341)  # 11 * 31, a classical base-2 pseudoprime


def test_is_prime_matches_trial_division():
    for n in range(2500):
        assert is_prime(n) == _trial_is_prime(n), n


def test_bpsw_matches_trial_division_on_small_odd_numbers():
    # below _MR_BOUND is_prime never runs BPSW, so test it directly here
    for n in range(3, 50000, 2):
        assert arith._bpsw(n) == _trial_is_prime(n), n


def test_strong_lucas_test_passes_exactly_its_pseudoprimes():
    liars = tuple(n for n in range(3, 130140, 2)
                  if math.isqrt(n) ** 2 != n and not _trial_is_prime(n)
                  and arith._strong_lucas_probable_prime(n))
    assert liars == STRONG_LUCAS_PSEUDOPRIMES


def test_is_prime_rejects_pseudoprimes_and_carmichael_numbers():
    for n in STRONG_PSEUDOPRIMES:
        assert arith._strong_probable_prime(n, 2), n
        assert not is_prime(n), n
    for n in CARMICHAEL_NUMBERS:
        assert not is_prime(n), n
    assert CARMICHAEL_NUMBERS[-1] > arith._MR_BOUND


def test_is_prime_above_the_proven_bound():
    for e in (89, 107, 127, 521):
        assert is_prime(2**e - 1), e
        assert prime_test(2**e - 1) == "bpsw"
    for e in (101, 103, 109, 512):      # composite Mersenne numbers
        assert not is_prime(2**e - 1), e
    assert not is_prime((2**89 - 1) ** 2)
    assert not is_prime((2**89 - 1) * (2**107 - 1))
    assert prime_test(2**61 - 1) == "mr"
    assert prime_test(arith._MR_BOUND - 1) == "mr"
    assert prime_test(arith._MR_BOUND) == "bpsw"


def test_is_prime_matches_sympy_across_the_bound():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20260601)
    bound = arith._MR_BOUND
    for lo, hi in ((2, 10**7), (10**12, 10**20), (bound // 1000, bound),
                   (bound, bound * 1000), (2**79, 2**256)):
        for _ in range(300):
            n = rng.randrange(lo, hi) | 1
            assert is_prime(n) == sympy.isprime(n), n
        # and a prime in each range, which random odd numbers rarely hit
        p = sympy.nextprime(rng.randrange(lo, hi))
        assert is_prime(p), p


def test_factorize_matches_sympy_around_the_trial_limit_and_the_bound():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20260602)
    limit, bound = arith._TRIAL_LIMIT, arith._MR_BOUND
    ranges = ((2, 50), (limit // 2, limit), (limit, 2 * limit),
              (limit * limit // 2, 2 * limit * limit), (10**6, 10**9))
    for i in range(80):
        expected = {}
        for lo, hi in rng.sample(ranges, rng.randint(1, 4)):
            expected[sympy.nextprime(rng.randrange(lo, hi))] = rng.randint(1, 2)
        # at most one prime beyond rho's reach: below the bound or above it
        big = rng.choice((1, 10**12, 10**18, bound // 10, bound, 2**100))
        if big > 1:
            expected[sympy.nextprime(rng.randrange(big, 2 * big))] = 1
        n = math.prod(p**e for p, e in expected.items())
        arith._factorize_cached.cache_clear()
        assert dict(factorize(n).entries) == expected, n
        if i % 5 == 0:      # factorint is slow on these; a fifth suffices
            assert sympy.factorint(n) == expected, n


def test_factorize_splits_seeded_semiprimes_below_the_bound():
    # the rho budget refuses nothing with both factors up to 10**11
    rng = random.Random(20260603)
    for lo, hi, count in ((10**5, 10**7, 4), (10**8, 10**10, 4), (10**10, 10**11, 4)):
        for _ in range(count):
            p = _random_prime(rng, lo, hi)
            q = _random_prime(rng, lo, hi)
            arith._factorize_cached.cache_clear()
            assert factorize(p * q).value == p * q
            assert {f for f, _ in factorize(p * q)} == {p, q}


def test_factorize_refuses_a_balanced_semiprime_within_its_rho_budget():
    n = (10**15 + 37) * (10**15 + 91)
    arith._factorize_cached.cache_clear()
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="Pollard rho budget"):
        factorize(n)
    assert time.perf_counter() - started < 5.0


@pytest.mark.parametrize("n, entries", [
    (35 * (2**89 - 1) ** 2, ((5, 1), (7, 1), (2**89 - 1, 2))),
    ((2**61 - 1) ** 2, ((2**61 - 1, 2),)),
    (35 * (10**12 + 39) ** 2, ((5, 1), (7, 1), (10**12 + 39, 2))),
], ids=["35*(2^89-1)^2", "(2^61-1)^2", "35*(10^12+39)^2"])
def test_factorize_takes_roots_of_prime_power_cofactors(n, entries):
    # rho cannot split p**2 for a large prime p; the perfect-power check does
    arith._factorize_cached.cache_clear()
    started = time.perf_counter()
    assert factorize(n).entries == entries
    assert time.perf_counter() - started < 0.05


def test_factorize_nested_perfect_powers():
    arith._factorize_cached.cache_clear()
    assert factorize(1009**2 * 1013**2 * 10007**4).entries == (
        (1009, 2), (1013, 2), (10007, 4))
    assert factorize((1009 * 1013) ** 6).entries == ((1009, 6), (1013, 6))
    assert factorize((2**31 - 1) ** 5).entries == ((2**31 - 1, 5),)


@given(st.integers(min_value=1, max_value=10**40), st.integers(min_value=2, max_value=12))
@settings(max_examples=200, deadline=None)
def test_integer_root_is_the_floor(n, e):
    root = arith._integer_root(n, e)
    assert root**e <= n < (root + 1) ** e


def test_count_on_a_prime_square_modulus():
    # N is multiplicative and N(q**2) = q**(k-1) * N(q), so the CLI's count at
    # 35 * q**2 follows from counts at 35 and at q
    q, k = 2**89 - 1, 3
    f = IntPolynomial.parse("0,1,-1")
    arith._factorize_cached.cache_clear()
    result = CliRunner().invoke(cli, ["count", "--poly", "0,1,-1", "--k", str(k), "--c", "1",
                                      "--n", str(35 * q**2)])
    assert result.exit_code == 0
    expected = (count(CountQuery(f, k, 1, 35)).value * q ** (k - 1)
                * count(CountQuery(f, k, 1, q)).value)
    assert int(result.output) == expected


def test_factorize_above_the_bound():
    m89, m127 = 2**89 - 1, 2**127 - 1
    assert factorize(35 * m89).entries == ((5, 1), (7, 1), (m89, 1))
    assert factorize(1009**2 * 999983 * m127).entries == (
        (1009, 2), (999983, 1), (m127, 1))
    assert factorize(2**67 - 1).entries == ((193707721, 1), (761838257287, 1))


def test_mod_inverse_examples():
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(2, 7) == 4
    assert mod_inverse(3, 5) == 2


def test_mod_inverse_all_units_below_100():
    for p in (q for q in range(2, 101) if is_prime(q)):
        for a in range(1, p):
            assert mod_inverse(a, p) * a % p == 1


def test_mod_inverse_rejects_multiples_of_modulus():
    with pytest.raises(NotInvertibleError):
        mod_inverse(14, 7)


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=50, deadline=None)
def test_factorize_entries_are_prime_and_sorted(n):
    fac = factorize(n)
    assert fac.value == n
    assert all(is_prime(p) and e >= 1 for p, e in fac)
    primes = [p for p, _ in fac]
    assert primes == sorted(set(primes))
