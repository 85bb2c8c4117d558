"""Exact arithmetic in prime fields Z_p and extensions GF(p^n).

Elements are coefficient vectors over Z_p reduced modulo a monic
irreducible polynomial.  Every context is deterministic: the modulus is
the lexicographically smallest irreducible of its degree (Ben-Or's test
decides each candidate), the generator is the lowest-index element of
full multiplicative order, and the canonical index of an element is the
base-p value of its coefficient vector.  That index addresses the bitsets
used throughout the package.

FieldElem is the scalar API.  Bulk work takes base-p digit planes, one
plane per coefficient, and multiplies them with one exact kernel
(ExtField.mul_digits): the field's structure tensor times the outer
products of the digits, in float64 through BLAS, where every sum is an
integer below 2^53.  Powers with one exponent per lane (pow_digits) drive
the field set-up: the generator search, the subfield and the square root
of -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    FieldMismatch,
    InvalidInput,
    NoSqrtMinusOne,
    NotADivisor,
    NotPrime,
    SizeGuard,
    ZeroInverse,
)

MAX_FIELD_ORDER = 2**31

# lanes per float64 block of the multiply kernel: its n^2 outer products
# take n^2 * 4 KB, 590 KB at n = 12, so only one block is converted at a time
_LANES = 512

# the generator search tests candidates in blocks that start at 16 and
# double up to this many
_GENERATOR_BLOCK_MAX = 1024

# the largest subfield locate_subfield enumerates; the family needs at most
# q^(1/3) <= 1290 elements
MAX_SUBFIELD_ORDER = 2**20


def is_prime(n: int) -> bool:
    """Deterministic trial division; plenty for n <= 2^31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# polynomials over Z_p: lists of ints in [0, p), constant term first,
# trailing zeros stripped; [] is the zero polynomial


def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pdeg(f):
    return len(f) - 1


def _psub(f, g, p):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return _ptrim(out)


def _pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _ptrim([c % p for c in out])


def _pdivmod(f, g, p):
    """Quotient and remainder of f by nonzero g."""
    f = list(f)
    dg = _pdeg(g)
    lead_inv = pow(g[-1], -1, p)
    quot = [0] * max(len(f) - dg, 0)
    for k in range(len(f) - dg - 1, -1, -1):
        c = (f[k + dg] * lead_inv) % p
        if c:
            quot[k] = c
            for j, b in enumerate(g):
                f[k + j] = (f[k + j] - c * b) % p
    return _ptrim(quot), _ptrim(f[:dg])


def _pgcd(f, g, p):
    """Monic gcd."""
    a, b = list(f), list(g)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _ppowmod(f, e, mod, p):
    """f^e mod (mod, p) by square and multiply."""
    result = [1]
    base = _pdivmod(f, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def is_irreducible(f, p: int) -> bool:
    """Irreducibility of a monic polynomial over Z_p, by Ben-Or's test.

    f of degree d is irreducible iff gcd(f, x^(p^i) - x) = 1 for i = 1 ..
    d//2: a factor of degree i would divide x^(p^i) - x.  The test stops
    at the first nontrivial gcd, so most reducible candidates take one or
    two Frobenius steps (M. Ben-Or, Probabilistic algorithms in finite
    fields, FOCS 1981).
    """
    f = _ptrim([c % p for c in f])
    d = _pdeg(f)
    if d < 1:
        raise ValueError("degree must be at least 1")
    if f[-1] != 1:
        raise ValueError("polynomial must be monic")
    x = [0, 1]
    frob = x
    for _ in range(d // 2):
        frob = _ppowmod(frob, p, f, p)
        if _pdeg(_pgcd(_psub(frob, x, p), f, p)) != 0:
            return False
    return True


def _digits(t: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        t, rem = divmod(t, p)
        out.append(rem)
    return out


def digits_to_index(ds, p: int) -> np.ndarray:
    """Canonical indices of reduced base-p digit planes, least significant first.

    ds has shape (n,) + shape; plane k holds coefficient k.
    """
    out = ds[-1].astype(np.int64)
    for d in ds[-2::-1]:
        out *= p
        out += d
    return out


def _digits_of(idx, p: int, n: int):
    """The base-p digits of canonical indices, least significant first."""
    rest = np.asarray(idx, dtype=np.int64)
    for _ in range(n):
        rest, d = np.divmod(rest, p)
        yield d


def index_digits(idx, p: int, n: int) -> np.ndarray:
    """Base-p digit planes of canonical indices; the inverse of digits_to_index."""
    return np.stack(list(_digits_of(idx, p, n)))


def find_irreducible(p: int, n: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree n over Z_p.

    Candidates are ordered by the base-p value of their coefficient vector
    (constant term first), so the result is identical across runs and
    platforms.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    for t in range(p**n):
        f = _digits(t, p, n) + [1]
        if is_irreducible(f, p):
            return f
    raise AssertionError("unreachable: irreducibles exist in every degree")


# ---------------------------------------------------------------------------
# field contexts and elements


class ExtField:
    """Arithmetic context for GF(p^n): modulus, generator, element indexing.

    Immutable after construction; all operations are pure.
    """

    __slots__ = ("p", "n", "q", "modulus", "key", "_red", "_T", "_tables", "_cosets",
                 "_gen_coeffs")

    def __init__(self, p: int, n: int = 1, modulus=None, generator_index=None):
        # p >= 2 gives p^n >= 2^n, so this refuses a huge p or n before
        # trial division or a big power is computed
        if p >= 2 and (p > MAX_FIELD_ORDER or n >= MAX_FIELD_ORDER.bit_length()):
            raise SizeGuard(p, n, MAX_FIELD_ORDER)
        if not is_prime(p):
            raise NotPrime(p)
        if n < 1:
            raise InvalidInput("extension degree must be positive")
        q = p**n
        if q > MAX_FIELD_ORDER:
            raise SizeGuard(p, n, MAX_FIELD_ORDER)
        self.p = p
        self.n = n
        self.q = q
        if modulus is None:
            modulus = find_irreducible(p, n)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise InvalidInput("modulus must be monic of degree n")
            if not is_irreducible(modulus, p):
                raise InvalidInput("modulus is not irreducible over Z_p")
        self.modulus = tuple(modulus)
        self.key = (p, n, self.modulus)
        self._red = self._reduction_rows()
        self._T = _structure_tensor(p, n, self._red) if n > 1 else None
        self._tables = None
        self._cosets = None
        if generator_index is None:
            g = find_generator(self)
        else:
            g = self.from_index(generator_index)
            if not _has_full_order(g):
                raise InvalidInput(
                    f"element #{generator_index} does not generate the multiplicative group"
                )
        # only the coefficients are kept: an element refers back to its
        # field, and that cycle would keep the field and its tables alive
        # until cyclic garbage collection runs
        self._gen_coeffs = g.coeffs

    def _reduction_rows(self):
        # row k holds the coefficients of x^(n+k) mod modulus, k = 0..n-2
        p, n = self.p, self.n
        rows = []
        r = [(-c) % p for c in self.modulus[:n]]
        rows.append(tuple(r))
        for _ in range(n - 2):
            top = r[n - 1]
            r = [0] + r[: n - 1]
            if top:
                base = rows[0]
                r = [(r[t] + top * base[t]) % p for t in range(n)]
            rows.append(tuple(r))
        return rows

    # -- digit-plane arithmetic (bulk)

    def mul_digits(self, a, b) -> np.ndarray:
        """Digit planes of the products of the elements with digit planes a and b.

        a and b have shape (n,) + s and broadcast over s; the result is
        int64 of shape (n,) + s.  For n > 1 each block of _LANES lanes takes
        the n^2 products a_i*b_j in float64 and multiplies them by the
        structure tensor: every sum is at most n^2 (p-1)^3 < 2^53, so it is
        exact, and is reduced mod p in int64.  For n = 1 the one product is
        below (p-1)^2 < 2^62 and is taken in int64.
        """
        p, n = self.p, self.n
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if n == 1:
            return a * b % p
        shape = a.shape[1:] if a.shape == b.shape else np.broadcast(a[0], b[0]).shape
        a, b = _lanes(a, shape), _lanes(b, shape)
        out = np.empty(a.shape, dtype=np.int64)
        for s in range(0, out.shape[1], _LANES):
            fa = a[:, s : s + _LANES].astype(np.float64)
            fb = b[:, s : s + _LANES].astype(np.float64)
            outer = (fa[:, None] * fb[None, :]).reshape(n * n, -1)
            out[:, s : s + _LANES] = self._T @ outer
        out %= p
        return out.reshape((n,) + shape)

    def pow_digits(self, a, e) -> np.ndarray:
        """Digit planes of a^e by square and multiply, each lane with its own e >= 0.

        a has shape (n,) + s and e a shape that broadcasts with s; the base
        is squared at its own shape, so lanes that share a base share its
        squares.
        """
        e = np.asarray(e, dtype=np.int64)
        base = np.asarray(a, dtype=np.int64)
        out = np.zeros((self.n,) + np.broadcast(base[0], e).shape, dtype=np.int64)
        out[0] = 1
        started = False  # until a lane's lowest set bit, every lane holds 1
        for k in range(int(e.max(initial=0)).bit_length()):
            if k:
                base = self.mul_digits(base, base)
            bit = (e >> k) & 1 == 1
            if bit.any():
                out = np.where(bit, self.mul_digits(out, base) if started else base, out)
                started = True
        return out

    def generator_power(self, e) -> np.ndarray:
        """Digit planes of g^e for the generator g, one column per exponent in e."""
        e = np.atleast_1d(e)
        return self.pow_digits(np.reshape(self._gen_coeffs, (self.n, 1)), e)

    # -- element constructors

    @property
    def generator(self) -> "FieldElem":
        """The lowest-index element of full multiplicative order q - 1."""
        return FieldElem(self, self._gen_coeffs)

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, (0,) * self.n)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, (1,) + (0,) * (self.n - 1))

    @property
    def root(self) -> "FieldElem":
        """The adjoined root of the modulus (the class of x)."""
        if self.n < 2:
            raise ValueError("prime fields adjoin no root")
        return FieldElem(self, (0, 1) + (0,) * (self.n - 2))

    def element(self, coeffs) -> "FieldElem":
        coeffs = [c % self.p for c in coeffs]
        if len(coeffs) > self.n:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.n - len(coeffs))
        return FieldElem(self, tuple(coeffs))

    def from_int(self, k: int) -> "FieldElem":
        return FieldElem(self, (k % self.p,) + (0,) * (self.n - 1))

    def from_index(self, index: int) -> "FieldElem":
        if not 0 <= index < self.q:
            raise InvalidInput(f"index {index} out of range [0, {self.q})")
        return FieldElem(self, tuple(_digits(index, self.p, self.n)))

    def elements(self):
        """All q elements in index order (meant for small fields)."""
        for i in range(self.q):
            yield self.from_index(i)

    # -- coefficient arithmetic (internal)

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a, b):
        p, n = self.p, self.n
        if n == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        out = [c % p for c in conv[:n]]
        for k in range(n - 1):
            c = conv[n + k] % p
            if c:
                row = self._red[k]
                for t in range(n):
                    out[t] = (out[t] + c * row[t]) % p
        return tuple(out)

    def _inv(self, a):
        # extended Euclid against the (irreducible) modulus
        p = self.p
        r0, r1 = list(self.modulus), _ptrim(list(a))
        if not r1:
            raise ZeroInverse()
        t0, t1 = [], [1]
        while _pdeg(r1) > 0:
            quot, rem = _pdivmod(r0, r1, p)
            r0, r1 = r1, rem
            t0, t1 = t1, _psub(t0, _pmul(quot, t1, p), p)
        c_inv = pow(r1[0], -1, p)
        out = [(c * c_inv) % p for c in t1]
        out += [0] * (self.n - len(out))
        return tuple(out)

    # -- serialization

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "modulus": list(self.modulus),
            "generator_index": self.generator.index,
        }

    @classmethod
    def from_json(cls, d: dict) -> "ExtField":
        return cls(
            d["p"], d["n"], modulus=d["modulus"], generator_index=d["generator_index"]
        )

    def __eq__(self, other):
        return isinstance(other, ExtField) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"ExtField(p={self.p}, n={self.n}, q={self.q})"


def _lanes(x: np.ndarray, shape) -> np.ndarray:
    """The planes x broadcast to (n,) + shape, flattened to (n, lanes)."""
    if x.shape[1:] != shape:
        full = np.empty(x.shape[:1] + shape, dtype=x.dtype)
        full[...] = x
        x = full
    return x.reshape(len(x), -1)


def _structure_tensor(p: int, n: int, red) -> np.ndarray:
    """T[t, i*n + j] = coefficient t of x^(i+j) mod the modulus, as float64.

    red holds the rows x^n .. x^(2n-2) mod the modulus.  The multiply
    kernel sums n^2 products of a coefficient and two digits, each at most
    p - 1, so it is exact only while n^2 (p-1)^3 < 2^53; under
    MAX_FIELD_ORDER the largest such sum is 3.98e14, at GF(46337^2).
    """
    if n * n * (p - 1) ** 3 >= 2**53:
        raise AssertionError(f"GF({p}^{n}) products overflow the float64 multiply kernel")
    powers = np.vstack([np.eye(n), np.reshape(red, (-1, n))])
    return powers[np.add.outer(np.arange(n), np.arange(n)).ravel()].T.copy()


class FieldElem:
    """One element of an ExtField, stored as a reduced coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    @property
    def index(self) -> int:
        """Base-p value of the coefficient vector; bijective onto [0, q)."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.field.p + c
        return out

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field.key != self.field.key:
                raise FieldMismatch(self.field, other.field)
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.field, self.field._add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.field, self.field._sub(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.field, self.field._sub(o.coeffs, self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.field, self.field._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElem(self.field, self.field._neg(self.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def inv(self) -> "FieldElem":
        return FieldElem(self.field, self.field._inv(self.coeffs))

    def __pow__(self, e: int) -> "FieldElem":
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base = self.inv()
            e = -e
        result = self.field.one
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.key, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"<GF({self.field.q})#{self.index}>"


def make_prime_field(p: int) -> ExtField:
    """The prime field Z_p (errors on composite p)."""
    return ExtField(p, 1)


def _cofactors(q: int) -> np.ndarray:
    """(q-1)/l for the distinct primes l dividing q - 1."""
    return np.array([(q - 1) // l for l in prime_factors(q - 1)], dtype=np.int64)


def _full_order(field: ExtField, idx, cofactors) -> np.ndarray:
    """Whether each nonzero element idx has order q - 1: no a^((q-1)/l) is 1.

    One lane per element and cofactor, all raised in one pow_digits call.
    """
    digits = index_digits(idx, field.p, field.n)
    powers = field.pow_digits(digits[..., None], cofactors)
    is_one = (powers[0] == 1) & ~powers[1:].any(axis=0)
    return ~is_one.any(axis=-1)


def _has_full_order(e: FieldElem) -> bool:
    if not e:
        return False
    f = e.field
    return bool(_full_order(f, [e.index], _cofactors(f.q))[0])


def find_generator(field: ExtField) -> FieldElem:
    """Lowest-index element whose multiplicative order is q - 1.

    Candidates are tested in index order, in blocks of 16 that double up
    to _GENERATOR_BLOCK_MAX.  For n > 1 the indices below p are skipped:
    they are Z_p, whose orders divide p - 1 < q - 1.
    """
    p, q = field.p, field.q
    cofactors = _cofactors(q)
    start, size = (p if field.n > 1 else 1), 16
    while start < q:
        idx = np.arange(start, min(start + size, q))
        full = _full_order(field, idx, cofactors)
        if full.any():
            return field.from_index(int(idx[np.argmax(full)]))
        start += size
        size = min(2 * size, _GENERATOR_BLOCK_MAX)
    raise AssertionError("unreachable: every finite field is cyclic")


@dataclass(frozen=True)
class SubfieldHandle:
    """The subfield of order p^m located inside GF(p^n), m | n.

    elements = {0} union {g^(k*step)}, as a tuple sorted by canonical index.
    """

    m: int
    order: int
    step: int
    elements: tuple


def locate_subfield(field: ExtField, m: int) -> SubfieldHandle:
    """Locate the order-p^m subfield as generator powers of stride step.

    The powers of gamma = g^step are taken by doubling: the first k
    powers times gamma^k are the next k.  Raises BudgetExceeded, before
    anything is computed, for a subfield above MAX_SUBFIELD_ORDER elements.
    """
    if m < 1 or field.n % m != 0:
        raise NotADivisor(m, field.n)
    order = field.p**m
    if order > MAX_SUBFIELD_ORDER:
        raise BudgetExceeded("subfield elements", order, MAX_SUBFIELD_ORDER)
    step = (field.q - 1) // (order - 1)
    gamma_k = field.generator_power(step)
    powers = np.eye(field.n, 1, dtype=np.int64)
    while powers.shape[1] < order - 1:
        powers = np.concatenate([powers, field.mul_digits(powers, gamma_k)], axis=1)
        gamma_k = field.mul_digits(gamma_k, gamma_k)
    powers = powers[:, : order - 1]
    idx = digits_to_index(powers, field.p)
    rank = np.argsort(idx)
    if (np.diff(idx[rank]) == 0).any():
        raise AssertionError("subfield enumeration produced duplicates")
    # zero has the lowest index, and no power of gamma is zero
    nonzero = tuple(FieldElem(field, tuple(c)) for c in powers[:, rank].T.tolist())
    return SubfieldHandle(m=m, order=order, step=step, elements=(field.zero,) + nonzero)


def frobenius(a: FieldElem, m: int) -> FieldElem:
    """The m-fold Frobenius power a^(p^m)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return a ** (a.field.p**m)


def sqrt_minus_one(field: ExtField) -> FieldElem:
    """A square root of -1: g^((q-1)/4), negated if that lowers the index.

    The two roots give identical downstream sets (the point set is
    permuted), so the tie-break is cosmetic but fixed for determinism.
    """
    q = field.q
    if (q - 1) % 4 != 0:
        raise NoSqrtMinusOne(q)
    c = field.generator_power((q - 1) // 4)
    i = field.from_index(int(digits_to_index(np.hstack([c, -c % field.p]), field.p).min()))
    if i * i != -field.one:
        raise AssertionError("generator order is inconsistent")
    return i
