"""Exception types shared across the package."""


class FqdistError(Exception):
    """Base class for all package errors."""


class InvalidInput(FqdistError, ValueError):
    """An argument outside its documented range; a usage error, not a fault."""


class NotPrime(FqdistError):
    def __init__(self, p):
        super().__init__(f"{p} is not prime")
        self.p = p


class SizeGuard(FqdistError):
    """Field order p^n beyond the bitset / trial-division comfort zone."""

    def __init__(self, p, n, limit):
        super().__init__(f"field order {p}^{n} exceeds the size guard {limit}")
        self.p = p
        self.n = n
        self.limit = limit


class ZeroInverse(FqdistError):
    def __init__(self):
        super().__init__("zero has no multiplicative inverse")


class FieldMismatch(FqdistError):
    def __init__(self, a, b):
        super().__init__(f"elements belong to different field contexts: {a} vs {b}")


class NoSqrtMinusOne(FqdistError):
    def __init__(self, q):
        super().__init__(f"-1 has no square root in GF({q}): 4 does not divide q-1")
        self.q = q


class NotADivisor(FqdistError):
    def __init__(self, m, n):
        super().__init__(f"subfield degree {m} does not divide {n}")
        self.m = m
        self.n = n


class DependentBasis(FqdistError):
    def __init__(self, i1, i2):
        super().__init__(
            f"elements #{i1} and #{i2} are linearly dependent over the subfield"
        )
        self.i1 = i1
        self.i2 = i2


class WrongSubfieldDegree(FqdistError):
    def __init__(self, m, n):
        super().__init__(f"subfield degree {m} must be exactly {n}/3 (cubic extension)")
        self.m = m
        self.n = n


class BudgetExceeded(FqdistError):
    """Hard failure: the exact computation would exceed its budget.

    Never downgraded to sampling; a sampled set cannot witness a claim.
    """

    def __init__(self, what, needed, budget):
        super().__init__(f"{what}: {needed} exceeds the budget of {budget}")
        self.what = what
        self.needed = needed
        self.budget = budget


class UnsupportedSize(FqdistError):
    def __init__(self, q):
        super().__init__(f"census supports q in {{2, 3, 5}}, got {q}")
        self.q = q


class ClaimViolation(FqdistError):
    """A verified assertion failed; this signals an implementation bug."""
