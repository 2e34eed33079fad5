import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exunits.arith import factorize, is_prime, mod_inverse
from exunits.errors import DomainError, NotInvertibleError


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
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(2500):
        assert is_prime(n) == trial(n), n


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
    primes = fac.distinct_primes
    assert list(primes) == sorted(set(primes))
