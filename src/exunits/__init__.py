"""Exact counting of k-term sums of f-exunits modulo n.

A residue a is an f-exunit mod n when gcd(f(a), n) = 1; with f = x these are
the units of Z_n and with f = x(1-x) the exceptional units. The package
counts the k-tuples of f-exunits summing to a given residue, through
multiplicative closed forms cross-checked by independent brute-force
oracles, and ships the `exunits` command line tool on top.
"""

from .arith import (
    PrimeFactorization,
    factorize,
    is_prime,
    mod_inverse,
)
from .counting import (
    MAX_K,
    CountQuery,
    CountReport,
    LocalFactor,
    RootProfile,
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
from .errors import (
    BudgetExceededError,
    DomainError,
    ExunitsError,
    FastPathInapplicableError,
    InvariantViolationError,
    NotInvertibleError,
)
from .oracle import (
    count_zero_product_tuples,
    oracle_global_count,
    oracle_global_count_dp,
    oracle_local_count,
)
from .poly import (
    DEFAULT_ENUM_BUDGET,
    General,
    IntPolynomial,
    LinearCoprime,
    PolynomialForm,
    SplitQuadratic,
    classify,
    exunit_set,
    root_set_mod_p,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CountQuery",
    "CountReport",
    "DEFAULT_ENUM_BUDGET",
    "DomainError",
    "ExunitsError",
    "FastPathInapplicableError",
    "General",
    "IntPolynomial",
    "InvariantViolationError",
    "LinearCoprime",
    "LocalFactor",
    "MAX_K",
    "NotInvertibleError",
    "PolynomialForm",
    "PrimeFactorization",
    "RootProfile",
    "SplitQuadratic",
    "brauer_count",
    "classify",
    "count",
    "count_avoiding_tuples",
    "count_table",
    "count_zero_product_tuples",
    "exunit_set",
    "factorize",
    "global_count",
    "is_prime",
    "linear_count",
    "local_count",
    "mod_inverse",
    "oracle_global_count",
    "oracle_global_count_dp",
    "oracle_local_count",
    "quadratic_count",
    "root_composition_count",
    "root_set_mod_p",
    "yang_zhao_count",
]
