import pytest

from exunits.poly import IntPolynomial
from exunits.verify import DEFAULT_POLYNOMIALS as FAMILY_TEXTS

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@pytest.fixture(scope="session")
def family():
    return tuple(IntPolynomial.parse(text) for text in FAMILY_TEXTS)
