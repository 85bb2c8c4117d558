"""Bulk set algebra over F_q: membership bitsets, distance sets, product sets.

Sets of field elements are bitsets addressed by canonical element index.
Bulk work runs over precomputed index-space tables -- base-p digit planes
for addition, a squares table, discrete exp/log for coset names -- so
everything stays inside vectorized numpy code.  The exp table is built by
block doubling: multiplying digit planes by a fixed power of g, an n x n
matrix over Z_p, in BLAS floating point where the bound makes it exact
and in int64 otherwise.  The structured sets are
unions of cosets of subgroups <g^k>; only brute force loops over all pairs.
Budgets are hard limits: an oversized request raises instead of sampling.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ClaimViolation, FieldMismatch

DEFAULT_PAIR_BUDGET = 10**9

# elements per block temporary in the pair loop (2 MB as int64) and in the
# exp-table build.  The allocator keeps freed blocks in each worker
# thread's arena, so peak RSS grows with the block size, in steps that
# depend on thread timing.
_BLOCK_ELEMS = 2**18

# below this order it is cheaper to precompute full q x q add/sub tables
_PAIR_TABLE_MAX_Q = 2048


class ElemSet:
    """Membership bitset over the canonical element indices [0, q)."""

    __slots__ = ("q", "bits")

    def __init__(self, q: int):
        self.q = q
        self.bits = np.zeros(q, dtype=bool)

    @classmethod
    def from_indices(cls, q: int, indices) -> "ElemSet":
        s = cls(q)
        s.add_array(np.fromiter(indices, dtype=np.int64))
        return s

    @classmethod
    def full_set(cls, q: int) -> "ElemSet":
        s = cls(q)
        s.bits[:] = True
        return s

    def add_array(self, indices) -> None:
        if len(indices):
            self.bits[indices] = True

    def has(self, index: int) -> bool:
        return bool(self.bits[index])

    def __contains__(self, index: int) -> bool:
        return self.has(index)

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElemSet):
            return NotImplemented
        return self.q == other.q and bool(np.array_equal(self.bits, other.bits))

    __hash__ = None  # mutable

    def issubset(self, other: "ElemSet") -> bool:
        if self.q != other.q:
            return False
        return not bool(np.any(self.bits & ~other.bits))

    def complement_witness(self):
        """Smallest index not in the set, or None if the set is all of F_q."""
        if self.bits.all():
            return None
        return int(np.argmin(self.bits))

    def sha256(self) -> str:
        """Hash of the bitset packed little-endian, for cross-run comparison."""
        packed = np.packbits(self.bits, bitorder="little")
        return hashlib.sha256(packed.tobytes()).hexdigest()

    def to_json(self, include_bits: bool = False) -> dict:
        d = {"q": self.q, "count": self.count, "sha256_of_bitset": self.sha256()}
        witness = self.complement_witness()
        if witness is not None:
            d["missing_witness"] = witness
        if include_bits:
            d["bits_hex"] = np.packbits(self.bits, bitorder="little").tobytes().hex()
        return d

    def __repr__(self):
        return f"ElemSet(q={self.q}, count={self.count})"


@dataclass(frozen=True, slots=True)
class Point:
    """A point of F_q^2; both coordinates must live in the same field."""

    x: object
    y: object


def distance(a: Point, b: Point):
    """The algebraic distance (a-b).(a-b); no square root is taken."""
    if a.x.field is not b.x.field and a.x.field.key != b.x.field.key:
        raise FieldMismatch(a.x.field, b.x.field)
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


# ---------------------------------------------------------------------------
# vectorized index-space arithmetic


def digits_to_index(ds, p: int) -> np.ndarray:
    """Canonical indices of reduced base-p digit planes, least significant first.

    ds has shape (n,) + shape; plane k holds coefficient k.
    """
    out = ds[-1].astype(np.int64)
    for d in ds[-2::-1]:
        out *= p
        out += d
    return out


def _digit_dtype(p: int):
    return np.int16 if p < 2**14 else np.int32


def _digit_planes(p: int, n: int) -> np.ndarray:
    """Digit planes of the indices 0 .. p^n - 1: plane k of i is (i // p^k) % p.

    Plane k repeats each digit p^k times and the run of p digits p^(n-k-1)
    times, so it is filled by broadcasting, with no division.
    """
    out = np.empty((n, p**n), dtype=_digit_dtype(p))
    digit = np.arange(p, dtype=out.dtype)[:, None]
    for k in range(n):
        out[k].reshape(p ** (n - k - 1), p, p**k)[...] = digit
    return out


class FieldTables:
    """Bulk arithmetic on canonical indices of one field.

    exp/log tables give multiplication; per-position base-p digit planes
    give addition and subtraction.  All lookups vectorize over numpy index
    arrays of any shape.
    """

    __slots__ = ("q", "p", "n", "exp", "log", "sq", "_digits", "_pair")

    def __init__(self, field):
        q, p, n = field.q, field.p, field.n
        self.q = q
        self.p = p
        self.n = n
        self.exp = exp = _exp_table(field)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        self.log = log
        # (g^k)^2 = exp[2k mod (q-1)], gathered through log with the index
        # wrapped; for odd q, q-1 = 2h and 2k mod 2h = 2(k mod h), so the
        # even-position entries wrapped at h give it without doubling log.
        # log[0] = -1 picks an arbitrary entry, overwritten by 0^2 = 0.
        # Taking into a preallocated sq measured no peak RSS above the table
        # bytes at q = 11^6; letting np.take allocate it left 6 MB more.
        sq = np.empty(q, dtype=np.int64)
        if q % 2:
            np.take(exp[0::2], log, mode="wrap", out=sq)
        else:
            np.take(exp, 2 * log, mode="wrap", out=sq)
        sq[0] = 0
        self.sq = sq
        self._digits = _digit_planes(p, n)
        self._pair = None

    def add(self, a, b):
        ds = self._digits[:, a] + self._digits[:, b]
        ds[ds >= self.p] -= self.p
        return digits_to_index(ds, self.p)

    def sub(self, a, b):
        ds = self._digits[:, a] - self._digits[:, b]
        ds[ds < 0] += self.p
        return digits_to_index(ds, self.p)

    def pair_tables(self):
        """Full (q, q) add/sub lookup tables; only built for small q."""
        if self._pair is None:
            idx = np.arange(self.q, dtype=np.int64)
            addt = self.add(idx[:, None], idx[None, :])
            subt = self.sub(idx[:, None], idx[None, :])
            self._pair = (addt, subt)
        return self._pair


def _exp_table(field):
    """Indices of g^0 .. g^(q-2) by repeated block-doubling.

    The powers are built as base-p digit planes.  Each doubling step
    multiplies the known columns by the fixed element g^filled, which acts
    linearly on coefficient vectors, so the whole table costs O(q n^2)
    vectorized work instead of q scalar products.  Columns are multiplied
    in chunks of at most _BLOCK_ELEMS digits, which bounds the
    temporaries; one pass at the end turns the planes into indices.
    """
    p, n, q = field.p, field.n, field.q
    planes = np.zeros((n, q - 1), dtype=_digit_dtype(p))
    planes[0, 0] = 1
    chunk = max(1, _BLOCK_ELEMS // n)
    filled = 1
    while filled < q - 1:
        c = field.generator ** filled
        # column j holds the coefficients of c * x^j
        m = np.array([(c * field.from_index(p**j)).coeffs for j in range(n)]).T
        span = min(filled, q - 1 - filled)
        for a in range(0, span, chunk):
            b = min(a + chunk, span)
            planes[:, filled + a : filled + b] = _mul_planes(m, planes[:, a:b], p)
        filled += span
    return digits_to_index(planes, p)


def _mul_planes(m, ds, p: int) -> np.ndarray:
    """(m @ ds) mod p, exactly, for an n x n matrix and digit planes over Z_p.

    The result has the dtype of ds.  An entry t of the product is a sum of
    n terms at most (p-1)^2.  While n(p-1)^2 + p is below 2^24 (float32)
    or 2^53 (float64), every term, partial sum and multiple k*p with
    k <= t/p + 1 is an exactly represented integer, in any summation
    order, so BLAS computes t exactly; t/p is correctly rounded, so
    floor(t/p) is off by at most one and t - p*floor(t/p) lies in [-p, 2p)
    before the fix-up.  Every other
    accepted field has n = 1 (n >= 2 forces p < 2^16) and p above about
    9.5e7; it takes int64, where t <= (p-1)^2 < 2^62.
    """
    n = m.shape[0]
    top = n * (p - 1) ** 2 + p
    if top >= 2**53:
        t = m.astype(np.int64) @ ds.astype(np.int64)
        t %= p
        return t.astype(ds.dtype)
    ft = np.float32 if top < 2**24 else np.float64
    t = m.astype(ft) @ ds.astype(ft)
    k = t / p
    np.floor(k, out=k)
    k *= p
    t -= k
    # p < 2^27 here, so [-p, 2p) fits the digit dtype
    r = t.astype(ds.dtype)
    r[r < 0] += p
    r[r >= p] -= p
    return r


def get_tables(field) -> FieldTables:
    t = field._tables
    if t is None:
        t = FieldTables(field)
        field._tables = t
    return t


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_chunks(nrows: int, threads: int) -> list:
    """At most min(threads, CPUs available, nrows) strided row sets, none empty.

    Each chunk gets its own OS thread and q-byte bitset, so chunks beyond
    the CPUs this process may run on would only cost memory.
    """
    k = min(max(threads, 1), _available_cpus(), nrows)
    return [np.arange(w, nrows, k) for w in range(k)]


def _accumulate(q: int, threads: int, nrows: int, fill) -> ElemSet:
    """Run fill(rows, bits) once per row chunk, OR-merging the bitsets.

    fill walks its chunk in blocks itself, so the large block temporaries
    stay alive from one block to the next and their memory is reused
    instead of being returned and faulted in again.  Each worker owns one
    chunk and a private bitset.  The merge is
    associative, commutative and idempotent, so the result is bit-identical
    for any worker count, including sequential execution.
    """
    out = ElemSet(q)
    chunks = _row_chunks(nrows, threads)
    if len(chunks) <= 1:
        for ch in chunks:
            fill(ch, out.bits)
        return out

    def run(ch):
        bits = np.zeros(q, dtype=bool)
        fill(ch, bits)
        return bits

    with ThreadPoolExecutor(max_workers=len(chunks)) as ex:
        for bits in ex.map(run, chunks):
            out.bits |= bits
    return out


# ---------------------------------------------------------------------------
# distance sets and product sets


def distance_set_bruteforce(points, budget: int = DEFAULT_PAIR_BUDGET, threads: int = 1) -> ElemSet:
    """Exact distance set over all ordered pairs of the given points.

    Refuses (rather than samples) when len(points)^2 exceeds the budget.
    """
    npts = len(points)
    if npts == 0:
        raise ValueError("empty point list carries no field context")
    if npts * npts > budget:
        raise BudgetExceeded("ordered distance pairs", npts * npts, budget)
    fld = points[0].x.field
    tabs = get_tables(fld)
    xs = np.fromiter((pt.x.index for pt in points), dtype=np.int64, count=npts)
    ys = np.fromiter((pt.y.index for pt in points), dtype=np.int64, count=npts)
    sq = tabs.sq
    if fld.q <= _PAIR_TABLE_MAX_Q:
        addt, subt = tabs.pair_tables()
        add, sub = (lambda a, b: addt[a, b]), (lambda a, b: subt[a, b])
    else:
        add, sub = tabs.add, tabs.sub

    block = max(1, _BLOCK_ELEMS // npts)

    def fill(rows, bits):
        for j0 in range(0, len(rows), block):
            blk = rows[j0 : j0 + block]
            dx2 = sq[sub(xs[blk][:, None], xs[None, :])]
            dy2 = sq[sub(ys[blk][:, None], ys[None, :])]
            bits[add(dx2, dy2).ravel()] = True

    return _accumulate(fld.q, threads, npts, fill)


def _coset_names(tabs, k: int, members, what: str):
    """Names log mod k of the cosets of <g^k> met by distinct members.

    Returns the sorted names and one nonzero member of each.  A coset has
    (q-1)/k members, so the members are a union of whole cosets (0 aside)
    exactly when len(names) * (q-1)/k of them are nonzero; any other count
    raises ClaimViolation.
    """
    nonzero = members[members != 0]
    names, first = np.unique(tabs.log[nonzero] % k, return_index=True)
    if len(names) * ((tabs.q - 1) // k) != len(nonzero):
        raise ClaimViolation(f"{what} is not a union of cosets of <g^{k}>")
    return names, nonzero[first]


def _coset_union(tabs, k: int, names, zero: bool) -> ElemSet:
    """The union of the cosets of <g^k> with the given names, plus 0 if zero."""
    mask = np.zeros(k, dtype=bool)
    mask[names] = True
    out = ElemSet(tabs.q)
    # exp[j] = g^j lies in coset j mod k, and k divides q - 1
    out.bits[tabs.exp] = np.tile(mask, (tabs.q - 1) // k)
    out.bits[0] = zero
    return out


def product_set(V, budget: int = DEFAULT_PAIR_BUDGET, threads: int = 1) -> ElemSet:
    """Exact VV = {u*v : u, v in V} for a subspace V over the subfield F.

    F*.V = V, so V minus 0 is a union of |F|+1 cosets of F* = <g^step>, and
    coset products add names.  Raises ClaimViolation if V is not F*-closed,
    BudgetExceeded if |V|^2 exceeds the budget.  threads has no effect;
    callers may still pass it.
    """
    idx = V.indices
    m = len(idx)
    if m * m > budget:
        raise BudgetExceeded("ordered product pairs", m * m, budget)
    tabs = get_tables(V.field)
    step = V.subfield.step
    names, _ = _coset_names(tabs, step, idx, "V")
    products = (names[:, None] + names[None, :]) % step
    return _coset_union(tabs, step, products, zero=0 in idx)


def distance_set_structured(c, threads: int = 1) -> ElemSet:
    """Distance set of the constructed point set, S - S for S = {v^2 : v in V}.

    F*.V = V gives H.S = S for H = (F*)^2 = <g^(2 step)>, so S minus 0 is a
    union of H-cosets.  With one member r per coset, plus 0 if 0 is in S,
    S - S = H.({r} - S): s = h*r gives s - t = h*(r - t/h) with t/h in S,
    and h*(r - t) = h*r - h*t.  That is (|F|+2)*|S| differences instead
    of |S|^2.  Raises ClaimViolation if S is not H-closed.  threads has no
    effect; callers may still pass it.
    """
    tabs = get_tables(c.field)
    k = 2 * c.subF.step
    squares = np.unique(tabs.sq[c.V.indices])
    _, rows = _coset_names(tabs, k, squares, "the squares of V")
    if squares[0] == 0:
        rows = np.append(rows, 0)
    diffs = tabs.sub(rows[:, None], squares[None, :])
    return _coset_union(tabs, k, tabs.log[diffs[diffs != 0]] % k, zero=True)
