"""Exact arithmetic in prime fields Z_p and extensions GF(p^n).

Elements are coefficient vectors over Z_p reduced modulo a monic
irreducible polynomial.  Every context is deterministic: the modulus is
the lexicographically smallest irreducible of its degree (Ben-Or's test
decides each candidate), the generator is the lowest-index element of
full multiplicative order, and the canonical index of an element is the
base-p value of its coefficient vector.  That index addresses the bitsets
used throughout the package.

FieldElem is the scalar API.  Bulk work takes int64 arrays of canonical
indices: add_indices and sub_indices carry base-p digits, and ExtField.mul
converts blocks of indices to digit planes for one exact kernel, the
field's structure tensor times the outer products of the digits through
BLAS, where every sum is an integer of at most n^2 (p-1)^3: in float32
where that is below 2^24, every field of the family included, and in
float64, below 2^53, otherwise.  Only this module multiplies digit planes.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field as dc_field
from functools import cached_property

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

# the most bytes one temporary of a block pass may take; only _block_rows
# reads it.  A pass holds a few such temporaries at once, which stay well
# under the 1 MiB M_MMAP_THRESHOLD that _tune_malloc sets, so they come from
# the heap and warm calls reuse its pages instead of faulting new ones
_BLOCK_BYTES = 2**17


def _block_rows(width: int, itemsize: int = 8) -> int:
    """Rows per block, at least one, whose temporaries of width items a row fit _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (itemsize * max(width, 1)))


# glibc's malloc takes blocks from M_MMAP_THRESHOLD on from mmap, and gives
# the free top of its heap back to the system once it exceeds
# M_TRIM_THRESHOLD; both start at 128 KiB and rise only when a larger
# mmapped block is freed.  A warm verify call at (11, 1) takes and frees
# about 1.5 MB of heap in block temporaries, coset-name tables and its
# q/8-byte set, so at those values each call gave the heap back and faulted
# 570-610 pages in again (glibc 2.36).  Blocks up to 1 MiB stay on the heap
# and up to 4 MiB of it stays free, for the whole process; larger arrays
# still come from mmap and go back when freed.
_MALLOC_OPTIONS = {-3: 2**20, -1: 2**22}  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _tune_malloc() -> None:
    """Apply _MALLOC_OPTIONS through mallopt, where the C library has it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for option, value in _MALLOC_OPTIONS.items():
        mallopt(option, value)


_tune_malloc()


def _lanes(n: int, itemsize: int) -> int:
    """Lanes per multiply kernel call in GF(p^n): _block_rows of its n^2 outer products, up to 512.

    itemsize is that of the structure tensor: 4 for float32, 8 for float64.
    That is 512 lanes for n <= 8 in float32 (n <= 5 in float64) and fewer
    above, 227 at n = 12 in float32.  With OpenBLAS 0.3.31, T @ outer at
    n = 12 took about 6 ns per multiply-add at 768 or 1024 lanes, against
    0.05 ns at 512, so no n gets more than 512.
    """
    return min(512, _block_rows(n * n, itemsize))


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

    ds has shape (n,) + shape; plane k holds coefficient k.  One integer
    matmul with the powers of p takes every plane: about 5 us on a few
    lanes against 15-29 us for a multiply-add per plane, and 16 against
    47 us on 1 365 lanes at n = 12 (numpy 2.4, 2-vCPU KVM guest).
    """
    ds = np.asarray(ds)
    n = len(ds)
    return (p ** np.arange(n, dtype=np.int64) @ ds.reshape(n, ds[0].size)).reshape(ds.shape[1:])


def _digits_of(idx, p: int, n: int):
    """The base-p digits of canonical indices, least significant first."""
    rest = np.asarray(idx, dtype=np.int64)
    for _ in range(n):
        # a floor division and a multiply-subtract take about half the time of np.divmod
        high = rest // p
        yield rest - high * p
        rest = high


def index_digits(idx, p: int, n: int) -> np.ndarray:
    """Base-p digit planes of canonical indices; the inverse of digits_to_index.

    One broadcast division gives every idx // p^(k+1), and digit k is idx
    // p^k less p times idx // p^(k+1).  The division is taken in float64
    and truncated: for 0 <= idx and idx + p^k <= 2^53 the rounded quotient
    never reaches the next integer, so it is exact for every index below
    MAX_FIELD_ORDER.  numpy divides int64 by a scalar through a fast
    reciprocal but not by an array: on 2 730 lanes at n = 6 an int64
    broadcast took 90 us, float64 45 us and a division per digit with a
    stack 52 us, and on 6 lanes float64 6 us against 19 us for the
    division per digit (numpy 2.4, 2-vCPU KVM guest).
    """
    idx = np.asarray(idx, dtype=np.int64)
    high = (idx / p ** np.arange(1.0, n + 1).reshape((n,) + (1,) * idx.ndim)).astype(np.int64)
    out = high * -p
    out[0] += idx
    out[1:] += high[:-1]
    return out


def _carries(a, b, p: int, n: int, borrow: bool):
    """Sum of p^(k+1) over the digit positions k where a + b carries (a - b borrows).

    Digits are taken one position at a time, so the temporaries have the
    broadcast shape of a and b, never n times it.
    """
    out = 0
    for k, (da, db) in enumerate(zip(_digits_of(a, p, n), _digits_of(b, p, n))):
        out = out + p ** (k + 1) * (da < db if borrow else da + db >= p)
    return out


def add_indices(a, b, p: int, n: int) -> np.ndarray:
    """Canonical indices of the sums a + b in GF(p^n); a and b broadcast.

    Digit k of the sum is da_k + db_k, less p where that reaches p, so the
    index is the integer a + b less p^(k+1) for each such k.
    """
    return np.add(a, b) - _carries(a, b, p, n, borrow=False)


def sub_indices(a, b, p: int, n: int) -> np.ndarray:
    """Canonical indices of the differences a - b in GF(p^n); a and b broadcast.

    Digit k of the difference is da_k - db_k, plus p where that is negative.
    """
    return np.subtract(a, b) + _carries(a, b, p, n, borrow=True)


def _scale_digits(idx, s, p: int, n: int) -> np.ndarray:
    """The indices whose n base-p digits are those of idx times s mod p.

    For idx the canonical indices of elements of GF(p^n) and s in Z_p,
    these are the indices of s times those elements.  idx and s broadcast.
    """
    return digits_to_index([d * s % p for d in _digits_of(idx, p, n)], p)


def _has_root(f, p: int) -> bool:
    """Whether f over Z_p vanishes at some a in Z_p; a zero constant term is the root 0."""
    if f[0] == 0:
        return True
    for a in range(1, p):
        v = 0
        for c in reversed(f):
            v = (v * a + c) % p
        if v == 0:
            return True
    return False


def find_irreducible(p: int, n: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree n over Z_p.

    Candidates are ordered by the base-p value of their coefficient vector
    (constant term first), so the result is identical across runs and
    platforms.  A candidate of degree n >= 2 with a root in Z_p has a
    linear factor, so it is skipped before Ben-Or's test wherever the root
    check is the cheaper: it takes about p*n steps, against about 4 n^2
    log2(p) for the test's first Frobenius step.  The result is the same.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    roots_first = n >= 2 and p <= 4 * n * p.bit_length()
    for t in range(p**n):
        f = _digits(t, p, n) + [1]
        if roots_first and _has_root(f, p):
            continue
        if is_irreducible(f, p):
            return f
    raise AssertionError("unreachable: irreducibles exist in every degree")


# ---------------------------------------------------------------------------
# field contexts and elements


class ExtField:
    """Arithmetic context for GF(p^n): modulus, generator, element indexing.

    Immutable after construction; all operations are pure.
    """

    __slots__ = ("p", "n", "q", "modulus", "key", "_red", "_T", "_gen_coeffs")

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

    # -- bulk arithmetic on canonical indices

    def mul(self, a, b) -> np.ndarray:
        """Canonical indices of the products a*b; a and b are index arrays that broadcast.

        _block_rows(n) lanes at a time are converted to n digit planes and
        multiplied (_mul_digits).  A broadcast operand is read per block,
        never materialized; when b is a, each block is converted once.
        """
        p, n = self.p, self.n
        square = b is a
        a = np.asarray(a, dtype=np.int64)
        ops = [a, None] if square else [a, np.asarray(b, dtype=np.int64), None]
        it = np.nditer(ops, flags=["external_loop", "buffered", "zerosize_ok"],
                       op_flags=[["readonly"]] * (len(ops) - 1) + [["writeonly", "allocate"]],
                       op_dtypes=[np.int64] * len(ops), order="C", buffersize=_block_rows(n))
        with it:
            for *xs, out in it:
                ds = [index_digits(x, p, n) for x in xs]
                out[...] = digits_to_index(self._mul_digits(ds[0], ds[-1]), p)
            return it.operands[-1]

    def _mul_digits(self, a, b) -> np.ndarray:
        """Digit planes of the products of the digit planes a and b, both (n, lanes).

        For n > 1 each block of _lanes(n, itemsize) lanes is converted to
        the structure tensor's dtype on its own, never all of a and b, takes
        the n^2 products a_i*b_j and is multiplied by the tensor: every
        product and partial sum is an integer of at most n^2 (p-1)^3, below
        2^24 in float32 and 2^53 in float64, so it is exact in any summation
        order, and the result is reduced mod p in int64.  For n = 1 the
        one product is below (p-1)^2 < 2^62 and is taken in int64.  The
        reduction subtracts p times the floor quotient: on a 12 x 4096 block
        int64 % took 218 us against 119 us for that (numpy 2.4).
        """
        n, p = self.n, self.p
        if n == 1:
            out = a * b
        else:
            T = self._T
            out = np.empty(a.shape, dtype=np.int64)
            lanes = _lanes(n, T.itemsize)
            for s in range(0, a.shape[1], lanes):
                fa = a[:, s : s + lanes].astype(T.dtype)
                fb = fa if b is a else b[:, s : s + lanes].astype(T.dtype)
                outer = fa[:, None] * fb[None]
                out[:, s : s + lanes] = T @ outer.reshape(n * n, -1)
        high = out // p
        high *= p
        out -= high
        return out

    def _pow(self, a, e) -> np.ndarray:
        """Canonical indices of a^e by square and multiply, each lane with its own e >= 0.

        a and e broadcast.  The field set-up takes few lanes, so they are
        converted to digit planes once, and lanes that share a base share
        its squares.  A kernel call on few lanes is mostly overhead, so each
        exponent bit takes one call, its multiply lanes side by side with
        the base's square; the last bit needs no square.
        """
        n = self.n
        a = np.asarray(a, dtype=np.int64)
        shape = np.broadcast_shapes(a.shape, np.shape(e))
        e = np.broadcast_to(np.asarray(e, dtype=np.int64), shape).ravel()
        # lane j of the result raises base lane pick[j]
        pick = np.broadcast_to(np.arange(a.size).reshape(a.shape), shape).ravel()
        base = index_digits(a.ravel(), self.p, n)
        out = np.zeros((n, e.size), dtype=np.int64)
        out[0] = 1
        nbits = int(e.max(initial=0)).bit_length()
        for k in range(nbits):
            bit = (e >> k) & 1 == 1
            if k + 1 < nbits:
                prod = self._mul_digits(np.concatenate([out, base], axis=1),
                                        np.concatenate([base[:, pick], base], axis=1))
                out, base = np.where(bit, prod[:, : e.size], out), prod[:, e.size :]
            else:
                out = np.where(bit, self._mul_digits(out, base[:, pick]), out)
        return digits_to_index(out, self.p).reshape(shape)

    def generator_power(self, e) -> np.ndarray:
        """Canonical indices of g^e for the generator g, one per exponent in e."""
        return self._pow(self.generator.index, np.atleast_1d(e))

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


def _structure_tensor(p: int, n: int, red) -> np.ndarray:
    """T[t, i*n + j] = coefficient t of x^(i+j) mod the modulus, as float32 or float64.

    red holds the rows x^n .. x^(2n-2) mod the modulus.  The multiply
    kernel sums n^2 products of a coefficient and two digits, each at most
    p - 1, so every product and partial sum is an integer of at most
    n^2 (p-1)^3.  Below 2^24 float32 holds all of them exactly, and T is
    float32: the bound is 1 152 at GF(3^12) and 36 000 at GF(11^6), so
    every field of the family runs sgemm.  Otherwise T is float64, exact
    while the bound stays below 2^53; under MAX_FIELD_ORDER the largest is
    3.98e14, at GF(46337^2).
    """
    bound = n * n * (p - 1) ** 3
    if bound >= 2**53:
        raise AssertionError(f"GF({p}^{n}) products overflow the float64 multiply kernel")
    powers = np.vstack([np.eye(n), np.reshape(red, (-1, n))])
    T = powers[np.add.outer(np.arange(n), np.arange(n)).ravel()].T
    return np.ascontiguousarray(T, dtype=np.float32 if bound < 2**24 else np.float64)


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


def _full_order(field: ExtField, idx) -> np.ndarray:
    """Whether each nonzero element idx has order q - 1: no a^((q-1)/l), l | q - 1 prime, is 1."""
    cofactors = [(field.q - 1) // l for l in prime_factors(field.q - 1)]
    return ~(field._pow(np.asarray(idx)[:, None], cofactors) == 1).any(axis=-1)


def _has_full_order(e: FieldElem) -> bool:
    return bool(e) and bool(_full_order(e.field, [e.index])[0])


def find_generator(field: ExtField) -> FieldElem:
    """Lowest-index element whose multiplicative order is q - 1.

    Candidates are tested in index order, in blocks of 16 that double up
    to _GENERATOR_BLOCK_MAX.  For n > 1 the indices below p are skipped:
    they are Z_p, whose orders divide p - 1 < q - 1.
    """
    p, q = field.p, field.q
    start, size = (p if field.n > 1 else 1), 16
    while start < q:
        idx = np.arange(start, min(start + size, q))
        full = _full_order(field, idx)
        if full.any():
            return field.from_index(int(idx[np.argmax(full)]))
        start += size
        size = min(2 * size, _GENERATOR_BLOCK_MAX)
    raise AssertionError("unreachable: every finite field is cyclic")


@dataclass(frozen=True)
class SubfieldHandle:
    """The subfield of order p^m located inside GF(p^n), m | n.

    indices holds {0} union {g^(k*step)} as sorted, read-only canonical
    indices, and powers the same nonzero members gamma^k = g^(k*step),
    k < order - 1, in exponent order; both are functions of (field, m), so
    equality ignores them.  elements is the members of indices as
    FieldElems, built on first use.
    """

    field: ExtField
    m: int
    order: int
    step: int
    indices: np.ndarray = dc_field(compare=False, repr=False)
    powers: np.ndarray = dc_field(compare=False, repr=False)

    @cached_property
    def elements(self) -> tuple:
        return tuple(self.field.from_index(i) for i in self.indices.tolist())


def locate_subfield(field: ExtField, m: int) -> SubfieldHandle:
    """Locate the order-p^m subfield as generator powers of stride step.

    The powers of gamma = g^step are taken by doubling on digit planes:
    the first k powers times gamma^k are the next k.  Raises
    BudgetExceeded, before anything is computed, for a subfield above
    MAX_SUBFIELD_ORDER elements.
    """
    if m < 1 or field.n % m != 0:
        raise NotADivisor(m, field.n)
    order = field.p**m
    if order > MAX_SUBFIELD_ORDER:
        raise BudgetExceeded("subfield elements", order, MAX_SUBFIELD_ORDER)
    step = (field.q - 1) // (order - 1)
    gamma_k = index_digits(field.generator_power(step), field.p, field.n)
    powers = np.eye(field.n, 1, dtype=np.int64)
    while powers.shape[1] < order - 1:
        powers = np.hstack([powers, field._mul_digits(powers, gamma_k.repeat(powers.shape[1], 1))])
        gamma_k = field._mul_digits(gamma_k, gamma_k)
    powers = digits_to_index(powers[:, : order - 1], field.p)
    ranked = np.sort(powers)
    if (np.diff(ranked) == 0).any():
        raise AssertionError("subfield enumeration produced duplicates")
    # zero has the lowest index, and no power of gamma is zero
    indices = np.concatenate([[0], ranked])
    indices.flags.writeable = False
    powers.flags.writeable = False
    return SubfieldHandle(field=field, m=m, order=order, step=step, indices=indices, powers=powers)


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
    return _lower_root_of_minus_one(field, int(field.generator_power((q - 1) // 4)[0]))


def _lower_root_of_minus_one(field: ExtField, index: int) -> FieldElem:
    """c = the element #index, or -c if that has the lower index.

    AssertionError unless the root squares to -1.
    """
    c = field.from_index(index)
    i = min(c, -c, key=lambda e: e.index)
    if i * i != -field.one:
        raise AssertionError("generator order is inconsistent")
    return i


def _subfield_sqrt_minus_one(subF: SubfieldHandle) -> FieldElem:
    """sqrt_minus_one(subF.field), read off subF.powers instead of taken as a power.

    gamma = g^step with step = (q-1)/(Q-1), so gamma^((Q-1)/4) =
    g^((q-1)/4) when 4 divides Q - 1; the tie-break and the check are
    sqrt_minus_one's.  Raises NoSqrtMinusOne when 4 does not divide q - 1.
    4 then divides Q - 1 for an index-3 subfield (q = Q^3 = Q mod 4 for odd
    Q); for another subfield it may not, and the check raises
    AssertionError.
    """
    q, Q = subF.field.q, subF.order
    if (q - 1) % 4 != 0:
        raise NoSqrtMinusOne(q)
    return _lower_root_of_minus_one(subF.field, int(subF.powers[(Q - 1) // 4]))
