"""Bulk set algebra over F_q: membership bitsets, distance sets, product sets.

Sets of field elements are bitsets addressed by canonical element index.
The structured sets are unions of cosets of F* and H = (F*)^2 for the
subfield F, and those cosets are named as points of the projective plane
PG(2, F) (CosetNames): one change of basis mod p, computed exactly in
int64, gives the F-coordinates of an element, and every later step reads
tables of |F| or |F|^2 entries.  Δ pairs H-cosets, VV pairs F*-coset
representatives and brute force pairs points, each row with the rows from
its own on, and one walker takes that triangle for all three
(_walk_triangle): in blocks, over worker chunks, with an exact count of
the pairs taken.  Brute force has one kernel, distance_set_of_indices,
on the points' coordinates as two index arrays; distance_set_bruteforce
hands it the indices of Points.  For q <= _PAIR_TABLE_MAX_Q a block
copies the rows its points select from the q x q difference tables
(FieldTables.pair_tables, built from two half tables), gathers its
columns from those copies into a bitset of difference vectors, and one
pass over that bitset takes their norms; above that it subtracts and adds base-p digits per pair
(add_indices, sub_indices) and reads the squares table FieldTables.sq.
Every product, squares included, goes through ExtField.mul on indices.
Budgets are hard limits: an oversized request raises instead of sampling.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceeded, ClaimViolation, FieldMismatch, InvalidInput,
                     WrongSubfieldDegree)
from .ff import _DIGIT_BLOCK, _scale_digits, add_indices, digits_to_index, index_digits, sub_indices

DEFAULT_PAIR_BUDGET = 10**9

# elements per block of the passes that stream many elements or pairs
# through a few int64 temporaries: coset names, name-to-bitset gathers, the
# squares and pair tables, and the brute-force pair loop.  The temporaries
# then fit a 2 MB L2 cache.  2^18-element blocks measured 1.3-3x slower for
# the names; in the pair loop they were no faster and raised peak RSS (83
# against 47 MB over 1500 points of GF(3^8), 2 threads on a 2-vCPU guest).
_CACHE_BLOCK = 2**16

# up to this order brute force reads q x q difference tables (6*q^2 bytes,
# 25.2 MB at q = 2048) and a q^2-byte bitset per worker instead of adding
# base-p digits.  The bound keeps every difference below 2^16 and q times one
# below 2^31, as FieldTables.pair_tables stores them.
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


class FieldTables:
    """Per-field tables for the brute-force pass, addressed by canonical index.

    sq holds the square of every element, from one ExtField.mul call;
    brute force reads it to take norms.
    pair_tables() adds q x q difference tables for small q.  The structured
    sets do not use these tables: they name cosets through CosetNames.
    """

    __slots__ = ("q", "p", "n", "sq", "_pair")

    def __init__(self, field):
        self.q, self.p, self.n = field.q, field.p, field.n
        idx = np.arange(field.q)
        self.sq = field.mul(idx, idx)
        self._pair = None

    def pair_tables(self):
        """(subq, sub): flat q x q difference tables, built from half tables; only for small q.

        sub[a*q + b] is the index of a - b, as uint16; subq is q*sub, as
        int32.  So subq[xa*q + xb] + sub[ya*q + yb] is dx*q + dy, the
        position of the difference vector (dx, dy) = (xa - xb, ya - yb) in
        a q^2-entry bitset.  Together they take 6*q^2 bytes.  Digits
        subtract independently, so with h = n//2, a = a_hi*p^h + a_lo and
        b likewise, a - b is (a_hi - b_hi)*p^h + (a_lo - b_lo) for the
        differences in GF(p^(n-h)) and GF(p^h) (_sub_table).  sub is one
        broadcast sum of those two half tables, written in place as a
        (p^(n-h), p^h, p^(n-h), p^h) array, and subq one multiply of sub.
        """
        if self._pair is None:
            q, p, n = self.q, self.p, self.n
            h = n // 2
            hi, lo = _sub_table(p, n - h), _sub_table(p, h)
            hi *= p**h
            sub = np.empty(q * q, dtype=np.uint16)
            np.add(hi[:, None, :, None], lo[None, :, None, :],
                   out=sub.reshape(len(hi), len(lo), len(hi), len(lo)))
            self._pair = (np.multiply(sub, q, dtype=np.int32), sub)
        return self._pair


def _sub_table(p: int, k: int) -> np.ndarray:
    """The p^k x p^k uint16 table of the indices of a - b in GF(p^k), for p^k <= 2^16.

    It is built in row blocks of at most _CACHE_BLOCK differences, so the
    digit temporaries of sub_indices stay small even when k = n.
    """
    size = p**k
    idx = np.arange(size, dtype=np.int64)
    out = np.empty((size, size), dtype=np.uint16)
    block = max(1, _CACHE_BLOCK // size)
    for a in range(0, size, block):
        out[a : a + block] = sub_indices(idx[a : a + block, None], idx, p, k)
    return out


def square_indices(V) -> np.ndarray:
    """S = {v^2 : v in V} as sorted distinct canonical indices."""
    return np.unique(V.field.mul(V.indices, V.indices))


def _inverse_mod(rows, p: int) -> list:
    """Inverse of an invertible square matrix over Z_p, by Gauss-Jordan."""
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            raise AssertionError("singular change of basis")
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, p)
        m[col] = [v * inv % p for v in m[col]]
        for i in range(n):
            f = m[i][col]
            if i != col and f:
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[col])]
    return [r[n:] for r in m]


class CosetNames:
    """Names of the cosets of F* and H = (F*)^2 in F_q*, read off PG(2, F).

    F is the subfield subF of order Q = p^m, m = n/3, and gamma = g^step
    with step = (q-1)/(Q-1) = Q^2 + Q + 1 generates F*; subF.powers holds
    its powers.  x has degree 3 over F, so {gamma^i x^j : i < m, j < 3} is
    a basis of F_q over Z_p, and one change of basis gives every z its
    F-coordinates (t0, t1, t2).  F is coded in [0, Q) by its digits over
    {gamma^i}.  The F*-coset of z != 0 is the projective point of (t0, t1,
    t2): the coordinates divided by the last nonzero one, t_l.  Those
    points get the names [0, step): (a, b, 1) is a + Q*b, (a, 1, 0) is Q^2
    + a and (1, 0, 0) is Q^2 + Q.  H has index 2 in F*, so the H-name adds
    step * (log_gamma(t_l) mod 2).  Zero gets the name 2*step.  All of
    this reads only Q- and Q x Q-sized tables.  Raises WrongSubfieldDegree,
    before any table is built, unless 3m = n.

    names holds the H-names of all of [0, q) in index order, as a
    (p^(n-h), p^h) array of rows hi and columns lo, h = n//2: the element
    hi*p^h + lo has the low digits lo and the high digits hi.  Scaling by
    s in Z_p* multiplies every digit by s, so row s.hi is row hi with its
    columns permuted by lo -> lo/s.  s fixes the F*-name, and it fixes the
    H-name too exactly when s is a square in F: always when m is even,
    otherwise when s is a residue mod p; a non-residue moves a nonzero
    H-name by step.  So only row 0 and the rows whose leading nonzero digit
    is 1, a 1/(p-1) share, are named: from the coordinates of their halves,
    added in F through the Q x Q table, in blocks of at most _CACHE_BLOCK
    elements.  Each block is copied to its p - 2 multiples right after it
    is named.  That is about 1/(p-1) of a naming per element, plus one
    gather.
    """

    __slots__ = ("Q", "step", "zero", "_split", "_lo", "_hi_q", "_add", "_sub",
                 "_n0", "_n1", "names")

    def __init__(self, subF):
        field, m = subF.field, subF.m
        p, n, q = field.p, field.n, field.q
        if 3 * m != n:
            raise WrongSubfieldDegree(m, n)
        Q = self.Q = subF.order
        self.step = step = subF.step
        self.zero = 2 * step
        dtype = np.min_scalar_type(self.zero)
        # the basis: basis[j, i] is gamma^i x^j, where x^j has the index p^j;
        # column j*m + i of the matrix holds its digits
        gamma = subF.powers
        basis = field.mul(p ** np.arange(3)[:, None], gamma[:m])
        inv = np.array(_inverse_mod(index_digits(basis.ravel(), p, n).tolist(), p),
                       dtype=np.int64)

        def codes(k, cols):
            # the three F-codes of the indices [0, p^k) read as the digits in
            # positions cols; a sum is at most n(p-1)^2 < 2^63, exact in int64
            c = inv[:, cols] @ index_digits(np.arange(p**k), p, k) % p
            return [digits_to_index(c[j * m : (j + 1) * m], p) for j in range(3)]

        h = n // 2
        self._split = split = p**h
        self._lo = codes(h, slice(0, h))
        self._hi_q = [t * Q for t in codes(n - h, slice(h, n))]

        # F arithmetic on codes: digit sums, and the powers of gamma, which
        # lie in F, so their codes are their t0
        fq = np.arange(Q)
        self._add = add_indices(fq[:, None], fq, p, m).ravel()
        self._sub = sub_indices(fq[:, None], fq, p, m).ravel()
        exp = self.coords(gamma)[0]
        log = np.zeros(Q, dtype=np.int64)
        log[exp] = np.arange(Q - 1)
        # ratio[a, b] = a/b for b != 0; the name tables for t_l = b
        ratio = exp[(log[:, None] - log[None, :]) % (Q - 1)]
        ratio[0] = 0
        self._n0 = (ratio + step * (log % 2)[None, :]).astype(dtype).ravel()
        self._n1 = (Q * ratio).astype(dtype).ravel()

        self.names = out = np.empty(q, dtype=dtype)
        rows = out.reshape(-1, split)
        block = max(1, _CACHE_BLOCK // split)
        lo = [t[None, :] for t in self._lo]
        # the scalars s = 2 .. p-1, the columns lo/s of each, and whether s
        # moves the H-name
        scales = np.arange(2, p).reshape(-1, 1)
        inverses = np.array([pow(s, -1, p) for s in range(2, p)], dtype=np.int64).reshape(-1, 1)
        perms = _scale_digits(np.arange(split), inverses, p, h)
        moves = [m % 2 and pow(s, (p - 1) // 2, p) != 1 for s in range(2, p)]
        # row 0, then the rows [p^k, 2p^k) with leading digit 1 in position k
        for a0, a1 in [(0, 1)] + [(p**k, 2 * p**k) for k in range(n - h)]:
            for a in range(a0, a1, block):
                b = min(a + block, a1)
                hi = [t[a:b, None] for t in self._hi_q]
                named = rows[a:b] = self.name(*(self._add[u + v] for u, v in zip(hi, lo)))
                if not a:
                    continue  # every s fixes row 0
                targets = _scale_digits(np.arange(a, b), scales, p, n - h)
                for perm, move, target in zip(perms, moves, targets):
                    copy = named[:, perm]
                    if move:
                        copy = np.where(copy < step, copy + step, copy - step)
                    rows[target] = copy

    def coords(self, idx):
        """The F-codes (t0, t1, t2) of the elements with canonical indices idx."""
        hi, lo = np.divmod(idx, self._split)
        return tuple(self._add[u[hi] + v[lo]] for u, v in zip(self._hi_q, self._lo))

    def name(self, t0, t1, t2) -> np.ndarray:
        """H-names of the elements with F-codes (t0, t1, t2); F*-names mod step."""
        Q = self.Q
        out = self._n0[t0 * Q + t2] + self._n1[t1 * Q + t2]
        (k,) = np.nonzero(t2.ravel() == 0)
        if len(k):
            # t2 = 0: the points (a, 1, 0), (1, 0, 0) and zero
            a, b = t0.ravel()[k], t1.ravel()[k]
            sub = Q * Q + self._n0[a * Q + b]
            on_line = b == 0
            sub[on_line] = Q * Q + Q + self._n0[a[on_line]]
            sub[on_line & (a == 0)] = self.zero
            out.ravel()[k] = sub
        return out

    def union(self, mask) -> ElemSet:
        """The elements whose names are set in mask, which has 2*step + 1 entries."""
        out = ElemSet(len(self.names))
        for a in range(0, out.q, _CACHE_BLOCK):
            b = a + _CACHE_BLOCK
            np.take(mask, self.names[a:b], out=out.bits[a:b])
        return out


def coset_names(subF) -> CosetNames:
    """The CosetNames over the subfield subF, built on first use and kept with its field.

    A handle of another order is refused as on first use, even once the
    field keeps its names.
    """
    c = subF.field._cosets
    if c is None or c.Q != subF.order:
        c = CosetNames(subF)
        subF.field._cosets = c
    return c


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


def _chunk_count(nrows: int, threads: int) -> int:
    """min(threads, CPUs available, nrows), and at least 1 when there are rows."""
    return min(max(threads, 1), _available_cpus(), nrows)


def _row_chunks(nrows: int, threads: int) -> list:
    """_chunk_count(nrows, threads) strided row sets, none empty.

    Each chunk gets its own OS thread and private bitset in _walk_triangle,
    so chunks beyond the CPUs this process may run on would only cost memory.
    """
    k = _chunk_count(nrows, threads)
    return [np.arange(w, nrows, k) for w in range(k)]


def _blocks(rows, block: int):
    """The row blocks of a chunk, each as a column with its first row."""
    for j0 in range(0, len(rows), block):
        blk = rows[j0 : j0 + block]
        yield blk[:, None], int(blk[0])


def _triangle_pairs(nrows: int, chunks: int, block: int) -> int:
    """The number of pairs the blocks of _blocks take over _row_chunks.

    Chunk w has m rows, w, w + chunks, ...; its j-th block starts at row
    w + chunks*block*j and takes nrows minus that many columns per row.
    Summed over the full blocks and the partial last one.
    """
    total = 0
    for w in range(chunks):
        m = len(range(w, nrows, chunks))
        full, rest = divmod(m, block)
        stride = chunks * block
        total += block * (full * (nrows - w) - stride * full * (full - 1) // 2)
        total += rest * (nrows - w - stride * full)
    return total


def _walk_triangle(what: str, size: int, nrows: int, block: int, threads: int, pairs,
                   per_pair: int = 1) -> ElemSet:
    """The bitset over [0, size) of the positions pairs(blk, c0) returns over the row triangle.

    The rows [0, nrows) are split into _row_chunks, each with one worker
    thread and a private size-byte bitset (q bytes for brute force's digit
    route, q^2 on its table route), OR-merged at the end, so the result is
    bit-identical for any worker count.  A worker walks its chunk in
    _blocks of block rows, reusing the block temporaries.  A block pairs
    its rows with the rows (or their members) from its own first row c0
    on, so row a meets every row b >= a once, which suffices wherever a, b
    gives what b, a gives.  pairs(blk, c0) gets the rows as a column and
    returns the positions to set, per_pair of them per pair.

    A pass that skips a row can still give the right set, so the number of
    positions must equal per_pair * _triangle_pairs(nrows,
    _chunk_count(nrows, threads), block), or AssertionError is raised with
    the message what.format(done=..., want=...).
    """
    out = ElemSet(size)

    def fill(rows, bits):
        done = 0
        for blk, c0 in _blocks(rows, block):
            k = pairs(blk, c0)
            bits[k] = True
            done += k.size
        return done

    chunks = _row_chunks(nrows, threads)
    if len(chunks) <= 1:
        done = sum(fill(ch, out.bits) for ch in chunks)
    else:

        def run(ch):
            bits = np.zeros(size, dtype=bool)
            return bits, fill(ch, bits)

        done = 0
        with ThreadPoolExecutor(max_workers=len(chunks)) as ex:
            for bits, taken in ex.map(run, chunks):
                out.bits |= bits
                done += taken
    want = per_pair * _triangle_pairs(nrows, _chunk_count(nrows, threads), block)
    if done != want:
        raise AssertionError(what.format(done=done, want=want))
    return out


def _vector_norms(vectors: ElemSet, tabs: FieldTables) -> ElemSet:
    """The norms dx^2 + dy^2 of the difference vectors set in vectors.

    vectors is a bitset over [0, q^2) in which dx*q + dy stands for the
    vector (dx, dy).  It is read in blocks of _CACHE_BLOCK entries.
    """
    q, sq = tabs.q, tabs.sq
    out = ElemSet(q)
    for a in range(0, q * q, _CACHE_BLOCK):
        dx, dy = np.divmod(np.flatnonzero(vectors.bits[a : a + _CACHE_BLOCK]) + a, q)
        out.add_array(add_indices(sq[dx], sq[dy], tabs.p, tabs.n))
    return out


# ---------------------------------------------------------------------------
# distance sets and product sets


def distance_set_bruteforce(points, budget: int = DEFAULT_PAIR_BUDGET, threads: int = 1) -> ElemSet:
    """Exact distance set over all ordered pairs of the given Points.

    Raises FieldMismatch, before any table is built, when the coordinates
    do not share one field; their indices then go to
    distance_set_of_indices, which refuses (rather than samples) when
    len(points)^2 exceeds the budget.
    """
    npts = len(points)
    if npts == 0:
        raise ValueError("empty point list carries no field context")
    fld = points[0].x.field
    for pt in points:
        for e in (pt.x, pt.y):
            # identity first, then key, as distance() compares fields
            if e.field is not fld and e.field.key != fld.key:
                raise FieldMismatch(fld, e.field)
    xs = np.fromiter((pt.x.index for pt in points), dtype=np.int64, count=npts)
    ys = np.fromiter((pt.y.index for pt in points), dtype=np.int64, count=npts)
    return distance_set_of_indices(fld, xs, ys, budget, threads)


def _index_array(a, q: int, what: str) -> np.ndarray:
    """a as an int64 array, or InvalidInput unless it is a 1-D integer array in [0, q).

    A negative index would wrap in the gathers, and one from q on would
    read another row of a flat table, so either would give a wrong set.
    """
    a = np.asarray(a)
    if a.ndim != 1 or a.dtype.kind not in "iu":
        raise InvalidInput(f"{what} must be a 1-D integer array, not {a.dtype} of shape {a.shape}")
    if len(a) and (a.min() < 0 or a.max() >= q):
        raise InvalidInput(f"{what} holds an index outside [0, {q})")
    return a.astype(np.int64, copy=False)


def distance_set_of_indices(field, xs, ys, budget: int = DEFAULT_PAIR_BUDGET,
                            threads: int = 1) -> ElemSet:
    """Exact distance set over all ordered pairs of the points (xs[k], ys[k]) of field.

    xs and ys are 1-D integer arrays of one length with every canonical
    index in [0, q), or InvalidInput is raised; more than budget ordered
    pairs raise BudgetExceeded.  Both are checked before any table is
    built.  The distance is symmetric, so _walk_triangle pairs each point
    with those from its own on, in blocks of about _CACHE_BLOCK pairs and
    up to threads chunks, and checks the count.

    For q <= _PAIR_TABLE_MAX_Q a block copies the rows its points r
    select from the q x q difference tables (FieldTables.pair_tables),
    subq[xs[r]] and sub[ys[r]], and takes the columns xs[c0:] and ys[c0:]
    from those copies.  A pair then costs two gathers from the copies, one add into
    int64, dx*q + dy, and one scatter into a q^2-entry bitset of
    difference vectors; one pass over that bitset takes the norms
    (_vector_norms).  A block has at most min(len(xs), _CACHE_BLOCK //
    len(xs)) <= 256 rows, so its copies hold at most 6*256*q bytes, 3 MB
    at q = 2048.  Above that a pair subtracts and adds base-p digits and
    reads the squares table.
    """
    q = field.q
    xs, ys = _index_array(xs, q, "xs"), _index_array(ys, q, "ys")
    npts = len(xs)
    if len(ys) != npts:
        raise InvalidInput(f"xs has {npts} indices but ys has {len(ys)}")
    if npts * npts > budget:
        raise BudgetExceeded("ordered distance pairs", npts * npts, budget)
    tabs = get_tables(field)

    tables = q <= _PAIR_TABLE_MAX_Q
    if tables:
        subq, sub = (t.reshape(q, q) for t in tabs.pair_tables())

        def pairs(blk, c0):
            rows = blk[:, 0]
            dx = np.take(subq[xs[rows]], xs[c0:], axis=1)
            dy = np.take(sub[ys[rows]], ys[c0:], axis=1)
            # an int64 sum, so the scatter casts no index array
            return np.add(dx, dy, dtype=np.int64)

    else:
        sq, p, n = tabs.sq, field.p, field.n

        def pairs(blk, c0):
            dx2 = sq[sub_indices(xs[blk], xs[c0:], p, n)]
            dy2 = sq[sub_indices(ys[blk], ys[c0:], p, n)]
            return add_indices(dx2, dy2, p, n)

    found = _walk_triangle("brute force evaluated {done} of {want} pairs", q * q if tables else q,
                           npts, max(1, _CACHE_BLOCK // max(npts, 1)), threads, pairs)
    return _vector_norms(found, tabs) if tables else found


def _coset_runs(names, size: int, what: str) -> np.ndarray:
    """The positions of the members in order of their coset names.

    names holds one coset name per distinct nonzero member, and a coset has
    size members, so the members are a union of whole cosets exactly when
    each name that occurs, occurs size times.  The order then holds one run
    of size positions per coset met, run j from position j*size on; any
    other count raises ClaimViolation.
    """
    order = np.argsort(names, kind="stable")
    runs = names[order]
    if len(runs) % size == 0:
        runs = runs.reshape(-1, size)
        if (runs == runs[:, :1]).all() and (runs[1:, 0] != runs[:-1, 0]).all():
            return order
    raise ClaimViolation(f"{what} is not a union of cosets of a subgroup of order {size}")


def product_set(V, budget: int = DEFAULT_PAIR_BUDGET, threads: int = 1) -> ElemSet:
    """Exact VV = {u*v : u, v in V} for a subspace V over the subfield F.

    F*.V = V, so V minus 0 is a union of |F|+1 cosets of F*, and VV minus 0
    is the union of the F*-cosets of the products of one member of each.
    Products commute, so _walk_triangle takes each representative against
    those from its own on, in blocks of about _DIGIT_BLOCK products: 9 340
    at (11, 1), not (|F|+1)^2 = 14 884.  Raises ClaimViolation if V is not
    F*-closed, BudgetExceeded if |V|^2 exceeds the budget, and
    AssertionError if the walk missed a product.  The walk takes one chunk,
    so threads has no effect; callers may still pass it.
    """
    idx = V.indices
    m = len(idx)
    if m * m > budget:
        raise BudgetExceeded("ordered product pairs", m * m, budget)
    cn = coset_names(V.subfield)
    nonzero = idx[idx != 0]
    runs = _coset_runs(cn.name(*cn.coords(nonzero)) % cn.step, cn.Q - 1, "V")
    reps = nonzero[runs[:: cn.Q - 1]]

    def pairs(blk, c0):
        return cn.name(*cn.coords(V.field.mul(reps[blk], reps[c0:]))) % cn.step

    named = _walk_triangle("product set took {done} of {want} products", cn.step, len(reps),
                           max(1, _DIGIT_BLOCK // len(reps)), 1, pairs).bits
    # an F*-coset is the union of its two H-cosets, step apart
    return cn.union(np.concatenate([named, named, [0 in idx]]))


def distance_set_structured(c, threads: int = 1) -> ElemSet:
    """Distance set of the constructed point set, S - S for S = {v^2 : v in V}.

    F*.V = V gives H.S = S for H = (F*)^2, so S minus 0 is a union of
    H-cosets, and S - S is H times the differences r_a - t of one member
    r_a per coset a and every t in S.  For t = h*r_b, -1 in H (|F| = 1 mod
    4) makes r_a - h*r_b = -h*(r_b - r_a/h) share its H-name with r_b -
    r_a/h, so coset a against the members of coset b names the same cosets
    as coset b against those of coset a, and only b >= a is taken.  The
    nonzero squares are sorted by H-name, so each coset is a run
    (_coset_runs), and _walk_triangle takes each coset against the members
    of the cosets from its own on, in blocks of about _CACHE_BLOCK
    differences.  When 0 is in S the names of S itself stand for the zero
    row and column: s - 0 = s and 0 - t = -t.  That is about
    (|F|+1)*|S|/2 differences, taken in F-coordinates: 475 440 at (11, 1),
    against (|F|+2)*|S| = 900 483 for every row against all of S and
    |S|^2 = 5.4e7 for all pairs.  Raises ClaimViolation if S is not
    H-closed, and AssertionError if -1 is not in H or the walk missed a
    difference.  The walk takes one chunk, so threads has no effect;
    callers may still pass it.
    """
    cn = coset_names(c.subF)
    Q, size = cn.Q, (cn.Q - 1) // 2
    if (Q - 1) % 4:
        raise AssertionError(f"-1 is not a square in the subfield of order {Q}")
    squares = c.V.squares
    nonzero = squares[squares != 0]
    t = cn.coords(nonzero)
    names = cn.name(*t)
    order = _coset_runs(names, size, "the squares of V")
    t = [u[order] for u in t]

    def pairs(blk, c0):
        return cn.name(*(cn._sub[u[blk * size] * Q + u[c0 * size :]] for u in t))

    named = _walk_triangle("structured distance set took {done} of {want} differences",
                           cn.zero + 1, len(nonzero) // size, max(1, _CACHE_BLOCK // len(squares)),
                           1, pairs, per_pair=size).bits
    if squares[0] == 0:
        named[names] = True
        named[cn.zero] = True
    return cn.union(named)
