import math

import pytest

from exunits.arith import factorize, is_prime
from exunits.errors import BudgetExceededError, DomainError
from exunits.poly import (
    DEFAULT_ENUM_BUDGET,
    General,
    IntPolynomial,
    LinearCoprime,
    SplitQuadratic,
    classify,
    exunit_set,
    root_set_mod_p,
)
from conftest import FAMILY_TEXTS

X_MINUS_X2 = IntPolynomial.parse("0,1,-1")


def _value(f, x):
    # f(x) over the integers, by Horner's rule
    acc = 0
    for coef in reversed(f.coeffs):
        acc = acc * x + coef
    return acc


def test_construction_trims_trailing_zeros():
    assert IntPolynomial((0, 1, 0)).coeffs == (0, 1)
    assert IntPolynomial((1, 2, 3)).degree == 2


def test_parse_examples():
    assert IntPolynomial.parse("0,1,-1").coeffs == (0, 1, -1)
    assert IntPolynomial.parse(" 3 , 2 ").coeffs == (3, 2)


@pytest.mark.parametrize("text", ["5", "", "+1,2", "0,0", "a,b", "1.5,2", "1,,2", "- 1,2"])
def test_parse_rejects_bad_text(text):
    with pytest.raises(DomainError):
        IntPolynomial.parse(text)


def test_text_round_trip():
    for text in FAMILY_TEXTS:
        assert IntPolynomial.parse(text).to_text() == text


def test_root_set_examples():
    assert root_set_mod_p(X_MINUS_X2, 5) == (0, 1)
    assert root_set_mod_p(IntPolynomial.parse("1,0,1"), 3) == ()
    assert root_set_mod_p(IntPolynomial.parse("3,2"), 7) == (2,)


def test_root_set_matches_pointwise_evaluation_above_vector_threshold():
    # p = 101 exercises the vectorised scan; compare with a plain loop
    f = IntPolynomial.parse("1,1,0,1")
    expected = tuple(x for x in range(101) if _value(f, x) % 101 == 0)
    assert root_set_mod_p(f, 101) == expected


def test_root_set_full_when_polynomial_vanishes():
    f = IntPolynomial((3, 3))  # 3x + 3 vanishes identically mod 3
    assert root_set_mod_p(f, 3) == (0, 1, 2)


def test_root_set_rejections():
    with pytest.raises(DomainError):
        root_set_mod_p(X_MINUS_X2, 6)
    # 10000019 is the least prime above the root-scan cap of 10**7
    with pytest.raises(BudgetExceededError, match="root-scan cap 10000000"):
        root_set_mod_p(X_MINUS_X2, 10000019)


def test_roots_and_exunits_partition_prime_residues(family):
    primes = [p for p in range(2, 101) if is_prime(p)]
    for f in family:
        for p in primes:
            roots = set(root_set_mod_p(f, p))
            exunits = set(exunit_set(f, p))
            assert roots | exunits == set(range(p))
            assert roots & exunits == set()


def test_exunit_set_examples():
    assert exunit_set(X_MINUS_X2, 5) == (2, 3, 4)
    assert exunit_set(X_MINUS_X2, 6) == ()
    assert exunit_set(IntPolynomial.parse("0,1"), 6) == (1, 5)
    assert exunit_set(X_MINUS_X2, 1) == (0,)


def test_exunit_set_matches_definition_above_vector_threshold():
    f = IntPolynomial.parse("1,1,0,1")
    n = 210
    expected = tuple(a for a in range(n) if math.gcd(_value(f, a), n) == 1)
    assert exunit_set(f, n) == expected


def test_exunit_set_budget():
    # refused before any scan
    with pytest.raises(BudgetExceededError, match="exceeds the enumeration budget 1000000"):
        exunit_set(X_MINUS_X2, DEFAULT_ENUM_BUDGET + 1)


def test_exunit_set_size_has_per_prime_shape(family):
    # |E_f(n)| = prod over p**e || n of p**(e-1) * (p - r_p)
    for f in family:
        for n in range(1, 501):
            expected = 1
            for p, e in factorize(n):
                expected *= p ** (e - 1) * (p - len(root_set_mod_p(f, p)))
            assert len(exunit_set(f, n)) == expected, (f.to_text(), n)


def test_classify_examples():
    assert classify(IntPolynomial.parse("0,1"), 10) == LinearCoprime(1, 0)
    assert classify(X_MINUS_X2, 35) == SplitQuadratic(1, 0, -1, -1)
    assert classify(IntPolynomial.parse("1,0,1"), 5) == General()


def test_classify_linear_requires_coprime_lead():
    f = IntPolynomial.parse("3,2")
    assert classify(f, 9) == LinearCoprime(2, 3)
    assert classify(f, 10) == General()


def test_classify_split_quadratics():
    assert classify(IntPolynomial.parse("1,5,6"), 35) == SplitQuadratic(2, -1, 3, -1)
    assert classify(IntPolynomial.parse("-1,0,1"), 9) == SplitQuadratic(1, -1, 1, 1)
    # 6 shares a factor with the modulus, so the gcd conditions fail
    assert classify(IntPolynomial.parse("1,5,6"), 10) == General()
    # irreducible over the integers
    assert classify(IntPolynomial.parse("1,1,1"), 5) == General()


def test_classify_double_root_splits_only_for_trivial_modulus():
    f = IntPolynomial.parse("1,4,4")  # (2x + 1)**2
    assert classify(f, 1) == SplitQuadratic(2, -1, 2, -1)
    assert classify(f, 15) == General()


def test_classify_rejects_bad_modulus():
    with pytest.raises(DomainError):
        classify(X_MINUS_X2, 0)


def test_split_roots_match_scanned_roots(family):
    # whenever the split form applies, the two residues a2/a1 and b2/b1
    # are exactly the scanned root set, and they are distinct
    from exunits.arith import mod_inverse

    for f in family:
        for n in (5, 7, 25, 35, 77, 143):
            form = classify(f, n)
            if not isinstance(form, SplitQuadratic):
                continue
            for p, _ in factorize(n):
                x = form.a2 * mod_inverse(form.a1, p) % p
                y = form.b2 * mod_inverse(form.b1, p) % p
                assert x != y
                assert root_set_mod_p(f, p) == tuple(sorted((x, y)))


def test_classified_split_form_multiplies_back(family):
    for f in family:
        form = classify(f, 1)
        if isinstance(form, SplitQuadratic):
            c0, c1, c2 = f.coeffs
            assert form.a2 * form.b2 == c0
            assert -(form.a1 * form.b2 + form.a2 * form.b1) == c1
            assert form.a1 * form.b1 == c2
