"""Exact construction and verification of large planar point sets over F_q
whose distance sets miss part of the field.

The toolkit builds, for odd primes p and every r >= 1, a set E of exactly
q^(4/3) points in F_q^2 with q = p^(6r), computes its distance set three
independent ways, and exhibits a concrete field element no pair of points
realizes as a distance.
"""

from .construction import (
    Construction,
    E_indices,
    Subspace,
    build_construction,
    build_subspace,
    enumerate_E,
)
from .errors import (
    BudgetExceeded,
    ClaimViolation,
    DependentBasis,
    FieldMismatch,
    FqdistError,
    InvalidInput,
    NoSqrtMinusOne,
    NotADivisor,
    NotPrime,
    SizeGuard,
    UnsupportedSize,
    WrongSubfieldDegree,
    ZeroInverse,
)
from .ff import (
    ExtField,
    FieldElem,
    SubfieldHandle,
    find_generator,
    find_irreducible,
    frobenius,
    is_irreducible,
    is_prime,
    locate_subfield,
    make_prime_field,
    sqrt_minus_one,
)
from .setalg import (
    ElemSet,
    Point,
    distance,
    distance_set_bruteforce,
    distance_set_of_indices,
    distance_set_structured,
    product_set,
)
from .verify import (
    CensusResult,
    ScanRow,
    VerificationReport,
    census,
    ir_threshold,
    ratio_scan,
    report_digest,
    verify_counterexample,
)

__version__ = "0.1.0"
