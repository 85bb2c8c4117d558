"""Bulk set algebra over F_q: membership bitsets, distance sets, product sets.

Sets of field elements are bitsets addressed by canonical element index.
The structured sets are unions of cosets of F* and H = (F*)^2 for the
subfield F, and those cosets are named as points of the projective plane
PG(2, F) (CosetNames): one change of basis mod p, computed exactly in
int64, gives the F-coordinates of an element, and every later step reads
tables of |F| or |F|^2 entries.  Δ and VV are computed as masks over those
names, and one naming pass expands a mask to a bitset (CosetNames.union).
Δ takes three rows against every square, one per orbit of the F-linear
map L = Sym^2 diag(gamma, 1) on the cosets of S, and closes the names
under L (_distance_mask); L's permutation of the names takes the name
of B u to that of L B u, B the basis e1^2, e1 e2, e2^2 (_l_on_names).
VV pairs F*-coset representatives and brute force pairs points or grid
coordinates, each row with the rows from its own on, and one walker
takes that triangle for them (_walk_triangle): on the calling thread, in
row blocks sized by their own widths.  It, Δ's walk and the grid's
sumset set bool masks through one scatter that checks the exact count
of positions (_scatter).  Brute force on a grid X x Y,
such as E = V x iV, is distance_set_of_grid: one walk over the pairs of
each axis gives {dx^2 : dx in X - X} and {dy^2 : dy in Y - Y}, and one
sumset of the two gives the distance set.  Brute force on any point list is
distance_set_of_indices, on the points' coordinates as two index arrays;
distance_set_bruteforce hands it the indices of Points.  It subtracts
and adds base-p digits per pair (sub_indices, add_indices) and reads the
squares table FieldTables.sq, as the grid's axis walks do.
VV's products are taken on F-coordinates, through CosetNames' log, exp
and addition tables (CosetNames._product_names); every other product,
the squares of V and of brute force and the columns of B and L B
included, goes through ExtField.mul on indices, so Δ = VV compares two
multiplication algorithms, and VV does not use L.
Budgets are hard limits on the work a route takes, checked before it
runs: an oversized request raises instead of sampling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceeded, ClaimViolation, FieldMismatch, InvalidInput,
                     WrongSubfieldDegree)
from .ff import (_block_rows, _scale_digits, add_indices, digits_to_index, index_digits,
                 sub_indices)

DEFAULT_PAIR_BUDGET = 10**9


# set bits per byte value; np.bitwise_count, from numpy 2.0 on, counts them faster
_BYTE_BITS = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
_bitcount = getattr(np, "bitwise_count", _BYTE_BITS.take)


def _pack_into(packed, pos: int, bits) -> int:
    """Write the bools bits in order from bit pos of the packed bytes on; the position after them.

    The bits from pos on must be clear.  Those up to the next byte boundary
    are or-ed into the byte that holds bit pos, and the rest are packed
    into whole bytes, the last of which keeps its bits past them clear.
    """
    bits = bits.ravel()
    head = -pos % 8
    if head and len(bits):
        packed[pos >> 3] |= int(np.packbits(bits[:head], bitorder="little")[0]) << (pos & 7)
    if len(bits) > head:
        a = (pos + head) >> 3
        packed[a : a + (len(bits) - head + 7) // 8] = np.packbits(bits[head:], bitorder="little")
    return pos + len(bits)


class ElemSet:
    """Membership bitset over the canonical element indices [0, q).

    The set is kept as its bits packed little-endian, ceil(q/8) bytes with
    the padding bits of the last byte zero: bit i & 7 of byte i >> 3 is
    element i.  Those are the bytes its sha256 and bits_hex are taken
    over, so equal sets have equal bytes.  bits is a read-only bool view,
    unpacked on each access.
    """

    __slots__ = ("q", "packed")

    def __init__(self, q: int):
        self.q = q
        self.packed = np.zeros((q + 7) // 8, dtype=np.uint8)

    @classmethod
    def _from_bits(cls, bits) -> "ElemSet":
        """The set of the True entries of the bool array bits, with q its length."""
        s = cls.__new__(cls)
        s.q, s.packed = len(bits), np.packbits(bits, bitorder="little")
        return s

    @classmethod
    def from_indices(cls, q: int, indices) -> "ElemSet":
        """The set of the given indices; InvalidInput for a non-integer or one outside [0, q)."""
        s = cls(q)
        items = list(indices)
        s.add_array(_index_array(np.array(items) if items else np.zeros(0, np.int64), q,
                                 "indices"))
        return s

    @classmethod
    def full_set(cls, q: int) -> "ElemSet":
        s = cls(q)
        s.packed[:] = 0xFF
        if q % 8:
            s.packed[-1] = (1 << q % 8) - 1
        return s

    def add_array(self, indices) -> None:
        """Set the given indices.

        Unchecked: the callers pass the results of index arithmetic, which
        lie in [0, q), and a negative index would wrap silently.
        """
        if len(indices):
            indices = np.asarray(indices, dtype=np.int64)
            np.bitwise_or.at(self.packed, indices >> 3,
                             np.left_shift(1, indices & 7).astype(np.uint8))

    @property
    def bits(self) -> np.ndarray:
        """The membership of every index as a read-only bool array of q entries."""
        b = np.unpackbits(self.packed, count=self.q, bitorder="little").view(bool)
        b.flags.writeable = False
        return b

    def has(self, index: int) -> bool:
        """Membership; InvalidInput for anything but an integer in [0, q).

        Python and numpy integers are indices.  numpy would refuse or
        truncate a float or a bool, wrap a negative index and overflow on
        one from q on.
        """
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise InvalidInput(f"index {index!r} is not an integer")
        if not 0 <= index < self.q:
            raise InvalidInput(f"index {index} is outside [0, {self.q})")
        index = int(index)
        return bool(self.packed[index >> 3] >> (index & 7) & 1)

    def __contains__(self, index: int) -> bool:
        return self.has(index)

    @property
    def count(self) -> int:
        """The popcount of the bytes, in blocks of _block_rows(1, 1)."""
        block = _block_rows(1, 1)
        return sum(int(_bitcount(self.packed[a : a + block]).sum(dtype=np.int64))
                   for a in range(0, len(self.packed), block))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElemSet):
            return NotImplemented
        return self.q == other.q and bool(np.array_equal(self.packed, other.packed))

    __hash__ = None  # mutable

    def issubset(self, other: "ElemSet") -> bool:
        if self.q != other.q:
            return False
        return not bool(np.any(self.packed & ~other.packed))

    def complement_witness(self):
        """Smallest index not in the set, or None if the set is all of F_q.

        The first byte that is not 0xFF holds it in its lowest clear bit,
        unless that bit is padding; bytes are searched in blocks of
        _block_rows(1, 1).
        """
        block = _block_rows(1, 1)
        for a in range(0, len(self.packed), block):
            k = a + int(np.argmax(self.packed[a : a + block] != 0xFF))
            byte = int(self.packed[k])
            if byte != 0xFF:
                i = 8 * k + (~byte & (byte + 1)).bit_length() - 1
                return i if i < self.q else None
        return None

    def sha256(self) -> str:
        """Hash of the bitset packed little-endian, for cross-run comparison."""
        return hashlib.sha256(self.packed).hexdigest()

    def to_json(self) -> dict:
        d = {"q": self.q, "count": self.count, "sha256_of_bitset": self.sha256()}
        witness = self.complement_witness()
        if witness is not None:
            d["missing_witness"] = witness
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
    """The squares table of brute force, addressed by canonical index.

    sq holds the square of every element, from one ExtField.mul call, 8*q
    bytes; brute force reads it to take norms.  The structured sets do not
    use it: they name cosets through CosetNames.
    """

    __slots__ = ("sq",)

    def __init__(self, field):
        idx = np.arange(field.q)
        self.sq = field.mul(idx, idx)


def square_indices(V) -> np.ndarray:
    """S = {v^2 : v in V} as sorted distinct canonical indices.

    V = -V and (-v)^2 = v^2, so only the member of each pair {v, -v} with
    the smaller index is squared, (|V| + 1)/2 products; the negations are
    taken in blocks of _block_rows(1).  v^2 = w^2 forces w = +-v, so those
    squares are pairwise distinct, and AssertionError is raised if two
    coincide.
    """
    field, idx, block = V.field, V.indices, _block_rows(1)
    half = np.empty(len(idx), dtype=bool)
    for j in range(0, len(idx), block):
        blk = idx[j : j + block]
        half[j : j + block] = blk <= sub_indices(0, blk, field.p, field.n)
    half = idx[half]
    s = np.sort(field.mul(half, half))
    if (s[1:] == s[:-1]).any():
        raise AssertionError("two members of V that are not +-each other have one square")
    return s


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
    step * (log_gamma(t_l) mod 2).  Zero gets the name 2*step.  Naming
    reads only Q- and Q x Q-sized tables: the sums and differences of codes
    are kept both as codes, t2's in one or two bytes, and as Q times codes,
    so that one kernel (_names) reads the two name tables at t0*Q + t2 and
    t1*Q + t2 with two in-place additions; a third table, read at t0*Q +
    t1, names the elements with t2 = 0.  A union of H-cosets and {0} is
    kept as the mask of its names, which union() expands.  Products are
    named from codes too (_product_names): F multiplies through the logs
    of gamma, with 2(Q-1) as the log of 0, and the codes of x^3 = c0 + c1
    x + c2 x^2 take z to x*z, so no digit plane of F_q is built; a matrix
    over F into this chart names the image of each name's representative
    with the same tables (_permutation).  Raises WrongSubfieldDegree,
    before any table is built, unless 3m = n.
    """

    __slots__ = ("Q", "step", "zero", "_p", "_n", "_split", "_lo", "_hi_q", "_add", "_add_q",
                 "_sub_q", "_add_t2", "_sub_t2", "_n0", "_n1", "_n2", "_log", "_exp", "_exp_q",
                 "_x3")

    def __init__(self, subF):
        field, m = subF.field, subF.m
        p, n = field.p, field.n
        if 3 * m != n:
            raise WrongSubfieldDegree(m, n)
        Q = self.Q = subF.order
        self.step = step = subF.step
        self.zero = 2 * step
        self._p, self._n = p, n
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
        self._split = p**h
        self._lo = codes(h, slice(0, h))
        self._hi_q = [t * Q for t in codes(n - h, slice(h, n))]

        # F arithmetic on codes: digit sums, and the powers of gamma, which
        # lie in F, so their codes are their t0
        fq = np.arange(Q)
        add, sub = (f(fq[:, None], fq, p, m).ravel() for f in (add_indices, sub_indices))
        self._add, self._add_q, self._sub_q = add, Q * add, Q * sub
        # the t2 tables of union() and Δ's walk hold codes in one or two bytes,
        # which keeps a warm (3, 2) call's temporaries under glibc's trim threshold
        self._add_t2, self._sub_t2 = (t.astype(np.min_scalar_type(Q)) for t in (add, sub))
        # x^3 has the index p^3, or at n = 3 that of -(m0 + m1 x + m2 x^2) for
        # the modulus m; its F-codes come with those of the powers of gamma
        x3 = p**3 if n > 3 else sum(-c % p * p**k for k, c in enumerate(field.modulus[:3]))
        t = self.coords(np.append(gamma, x3))
        exp, x3 = t[0][:-1], [u[-1] for u in t]
        log = np.zeros(Q, dtype=np.int64)
        log[exp] = np.arange(Q - 1)
        # ratio[a, b] = a/b for b != 0; the name tables for t_l = b
        ratio = exp[(log[:, None] - log[None, :]) % (Q - 1)]
        ratio[0] = 0
        self._n0 = (ratio + step * (log % 2)[None, :]).astype(dtype).ravel()
        self._n1 = (Q * ratio).astype(dtype).ravel()
        # the names of (t0, t1, 0) at t0*Q + t1: of (t0/t1, 1, 0), of (1, 0, 0) at t1 = 0, and zero
        self._n2 = Q * Q + self._n0
        self._n2[::Q] = Q * Q + Q + self._n0[:Q]
        self._n2[0] = self.zero
        # the tables of the products on F-codes: logs with the sentinel
        # 2(Q-1) at code 0, and exp read at a sum of two logs, which gives
        # code 0 from 2(Q-1) on; and the logs of x^3's F-codes
        self._log = log
        log[0] = 2 * (Q - 1)
        self._exp = np.concatenate([exp, exp, np.zeros(2 * Q - 1, dtype=np.int64)])
        self._exp_q = Q * self._exp
        self._x3 = log[x3].tolist()

    def coords(self, idx):
        """The F-codes (t0, t1, t2) of the elements with canonical indices idx."""
        hi, lo = np.divmod(idx, self._split)
        return tuple(self._add[u[hi] + v[lo]] for u, v in zip(self._hi_q, self._lo))

    def name(self, t0, t1, t2) -> np.ndarray:
        """H-names of the elements with F-codes (t0, t1, t2); F*-names mod step."""
        return self._names(t0 * self.Q, t1 * self.Q, t2)

    def _names(self, c0, c1, t2) -> np.ndarray:
        """H-names of the elements with F-codes (c0/Q, c1/Q, t2); c0 and c1 are overwritten.

        The three arrays share one shape.  t2 is added to c0 and c1 in
        place, and the name tables are read there.
        """
        Q = self.Q
        c0 += t2
        c1 += t2
        out = self._n0[c0]
        out += self._n1[c1]
        (k,) = np.nonzero(t2.ravel() == 0)
        if len(k):
            out.ravel()[k] = self._n2[c0.ravel()[k] + c1.ravel()[k] // Q]
        return out

    def _times_x(self, t):
        """The F-codes of x*z for the elements z with F-codes t = (t0, t1, t2).

        x*z = t0 x + t1 x^2 + t2 x^3, and x^3 = c0 + c1 x + c2 x^2 over F, so
        x*z has the coordinates (c0 t2, t0 + c1 t2, t1 + c2 t2).
        """
        l2, Q = self._log[t[2]], self.Q
        s0, s1, s2 = (self._exp[l2 + c] for c in self._x3)
        return s0, self._add[Q * t[0] + s1], self._add[Q * t[1] + s2]

    def _product_names(self, a, b) -> np.ndarray:
        """F*-names of the products of the elements with F-codes a = (a0, a1, a2) and b.

        The six arrays broadcast.  With z the element of a, the product is
        b0 z + b1 x z + b2 x^2 z, and the codes of x z and x^2 z come from
        those of z through x^3's coordinates (_times_x), once per element
        of a, so a should be the smaller operand.  Coordinate k of the
        product is then the sum over j of b_j times coordinate k of x^j z:
        nine products in F, each one read of the exp tables at a sum of
        logs, where a zero factor reads code 0, and six sums, each one read
        of the addition tables.  Nothing but |F|- and |F|^2-entry tables is
        read, and no digit plane is built.
        """
        log, exp, exp_q, add_q = self._log, self._exp, self._exp_q, self._add_q
        xa = self._times_x(a)
        rows = (a, xa, self._times_x(xa))
        lb = [log[t] for t in b]
        r = []
        # |F| times coordinates 0 and 1, and coordinate 2 in one or two bytes
        for k, last in enumerate((add_q, add_q, self._add_t2)):
            la = [log[z[k]] for z in rows]
            part = add_q[exp_q[la[0] + lb[0]] + exp[la[1] + lb[1]]]
            r.append(last[part + exp[la[2] + lb[2]]])
        return self._names(*r) % self.step

    def _permutation(self, M) -> np.ndarray:
        """The H-names of M u for the representative u of each H-name, as int32.

        M is a 3 x 3 list of F-codes taking coordinates over an F-basis of
        F_q, such as e1^2, e1 e2, e2^2, to this chart's.  Entry k is the
        H-name of M u for every u of H-name k, as M(h u) = h M(u) for h in
        F; the result is a permutation exactly when M is invertible.  Each
        F*-name k < step is taken at its representative (a, b, 1), (a, 1,
        0) or (1, 0, 0), whose last coordinate 1 makes k its H-name too.
        Coordinate j of M (a, b, 1) is a M[j][0] + (b M[j][1] + M[j][2]):
        two sets of |F| products, through the logs, and one read of an
        |F| x |F| addition table at their outer sum, in name order.  M(gamma
        u) = gamma M(u) moves both names by step, so the names from step on
        are the first step names moved by step, and zero is fixed.  int32
        keeps the result at 4 (2 step + 1) bytes, under _BLOCK_BYTES at (11, 1).
        """
        Q, step, log, exp, add = self.Q, self.step, self._log, self._exp, self._add
        coords = []
        # |F| times coordinates 0 and 1, and coordinate 2 in one or two bytes
        for (m0, m1, m2), tab in zip(M, (self._add_q, self._add_q, self._add_t2)):
            a, b = exp[log + log[m0]], exp[log + log[m1]]
            coords.append(np.concatenate([
                tab[Q * add[Q * b + m2][:, None] + a].ravel(), tab[Q * m1 + a], tab[[Q * m0]]]))
        names = self._names(*coords)
        P = np.empty(2 * step + 1, dtype=np.int32)
        P[:step] = names
        P[step:-1] = (P[:step] + step) % (2 * step)
        P[-1] = self.zero
        return P

    def union(self, mask) -> ElemSet:
        """The elements whose H-names are set in mask, a bool array of 2*step + 1 entries.

        F_q is walked as a (p^(n-h), p^h) array, h = n//2: the element
        hi*p^h + lo sits in row hi, column lo.  Scaling by s in Z_p*
        multiplies every digit by s, so row s.hi is row hi with its columns
        permuted by lo -> lo/s.  s fixes the F*-name, and the H-name too
        exactly when s is a square in F: always when m is even, otherwise
        when s is a residue mod p; a non-residue moves a nonzero H-name by
        step, so it reads the mask with its step-long halves swapped.

        The rows are emitted in index order and packed into the set's bytes
        as they come (_pack_into), so no q-byte array is built: row 0, then
        for each k the rows R_k = [p^k, 2p^k) with leading digit 1 in
        position k, then their multiples s.R_k = [s p^k, (s+1) p^k) for s =
        2 .. p-1.  Only row 0 and the R_k are named, from their halves'
        coordinates, in blocks whose int64 temporaries fit a quarter of
        _BLOCK_BYTES, into one byte per element, and into a second byte
        block through the swapped mask where a scalar moves H-names.  Row
        s p^k + u of s.R_k is row u/s of R_k's block with the columns lo/s,
        so one permutation of the digits per scalar (scaling by s^-1)
        gives both.  Each emit takes rows whose gathered copies fit
        _BLOCK_BYTES.  The largest block holds q/p bytes, beside the q/8 of
        the set.

        Each H-name below 2*step covers (Q-1)/2 elements and zero one, so
        AssertionError is raised unless the set counts (Q-1)/2 per name set
        below 2*step, plus one if zero's is, or unless q elements were
        emitted.  (At p = 2, F* has odd order Q - 1 and H = F*: a name below
        step covers the Q/2 members whose t_l has an even log, and that name
        plus step the other Q/2 - 1.)
        """
        p, n, step, split = self._p, self._n, self.step, self._split
        mask = np.asarray(mask, dtype=bool)
        masks = [mask]
        moves = [n // 3 % 2 == 1 and pow(s, (p - 1) // 2, p) != 1 for s in range(p)]
        if any(moves[1:]):
            masks.append(np.concatenate([mask[step : 2 * step], mask[:step], mask[2 * step :]]))
        out = ElemSet(p**n)
        h, block, chunk = n // 2, _block_rows(4 * split), _block_rows(2 * split, 1)
        lo = [t[None, :] for t in self._lo]
        # perms[s] holds the columns lo/s, digit by digit times s^-1 mod p
        inverse = np.array([0] + [pow(s, -1, p) for s in range(1, p)])
        perms = _scale_digits(np.arange(split), inverse[:, None], p, h)
        # one byte per element of the largest range, per mask: numpy's take
        # runs faster on uint8 than on bool
        blocks = [np.empty((p ** (n - h - 1), split), dtype=np.uint8) for _ in masks]
        pos = 0
        for a0, a1 in [(0, 1)] + [(p**k, 2 * p**k) for k in range(n - h)]:
            named = [blk[: a1 - a0] for blk in blocks]
            for a in range(a0, a1, block):
                b = min(a + block, a1)
                names = self._names(*(tab[u[a:b, None] + v] for tab, u, v in zip(
                    (self._add_q, self._add_q, self._add_t2), self._hi_q, lo)))
                for m, rows in zip(masks, named):
                    np.take(m.view(np.uint8), names, out=rows[a - a0 : b - a0])
            # row 0 has no other multiple
            for s in range(1, p if a0 else 2):
                rows, perm = named[moves[s]], perms[s]
                for a in range(0, a1 - a0, chunk):
                    b = min(a + chunk, a1 - a0)
                    pos = _pack_into(out.packed, pos, rows[a:b] if s == 1 else np.take(
                        rows[perm[a:b]], perm, axis=1, mode="clip"))
        Q = self.Q
        low, high = (int(np.count_nonzero(mask[a : a + step])) for a in (0, step))
        want = Q // 2 * low + (Q - 1) // 2 * high + int(mask[self.zero])
        if pos != out.q or out.count != want:
            raise AssertionError(f"union emitted {pos} of {out.q} elements and set {out.count} "
                                 f"of {want}")
        return out


def get_tables(field) -> FieldTables:
    """A FieldTables of field, built on each call: nothing is cached on the field."""
    return FieldTables(field)


def _check_threads(threads: int) -> None:
    """threads is accepted and has no effect: every walk runs on the calling thread.

    InvalidInput below 1, as the CLI refuses --threads 0.
    """
    if threads < 1:
        raise InvalidInput(f"threads must be at least 1, not {threads}")


def _heights(nrows: int):
    """The row counts of the blocks of a triangle walk, sized by their own widths.

    The block from row a has nrows - a columns, so it takes
    _block_rows(nrows - a) rows, or the nrows - a rows left if fewer.
    """
    a = 0
    while a < nrows:
        k = min(_block_rows(nrows - a), nrows - a)
        yield k
        a += k


def _plan(nrows: int):
    """The blocks of a triangle walk: rows [a, a + k) as a column, and a, where columns start."""
    a = 0
    for k in _heights(nrows):
        yield np.arange(a, a + k)[:, None], a
        a += k


def _scatter(what: str, size: int, blocks, want: int) -> np.ndarray:
    """The bool mask over [0, size) of the positions in the arrays blocks yields.

    Each block is set through intp indices: numpy scatters through them
    about twice as fast as through the narrow names of Δ and VV, cast
    included.  A pass that skips a block can still give the right set, so
    the positions must number exactly want, or AssertionError is raised
    with the message what.format(done=..., want=...).
    """
    mask = np.zeros(size, dtype=bool)
    done = 0
    for k in blocks:
        mask[k.astype(np.intp, copy=False)] = True
        done += k.size
    if done != want:
        raise AssertionError(what.format(done=done, want=want))
    return mask


def _triangle_count(nrows: int) -> int:
    """The pairs a walk over nrows rows takes: a block of k rows takes its own k(k-1)/2 twice."""
    return (nrows * (nrows + 1) + sum(k * (k - 1) for k in _heights(nrows))) // 2


def _walk_triangle(what: str, size: int, nrows: int, pairs) -> np.ndarray:
    """The bool mask over [0, size) of the positions pairs(blk, c0) returns over the row triangle.

    The rows [0, nrows) are taken on the calling thread in the blocks of
    _plan, at most _block_rows(1) pairs each, or one row when a single row
    is wider.  A block pairs its rows, as a column blk, with the rows from
    its own first row c0 on, so row a meets every row b >= a once, which
    suffices wherever a, b gives what b, a gives.  _scatter sets one position per
    pair and checks their number against _triangle_count.
    """
    return _scatter(what, size, (pairs(blk, c0) for blk, c0 in _plan(nrows)),
                    _triangle_count(nrows))


# ---------------------------------------------------------------------------
# distance sets and product sets


def distance_set_bruteforce(points, budget: int = DEFAULT_PAIR_BUDGET, threads: int = 1) -> ElemSet:
    """Exact distance set over all ordered pairs of the given Points.

    Raises FieldMismatch, before any table is built, when the coordinates
    do not share one field; their indices then go to
    distance_set_of_indices, which refuses (rather than samples) when
    len(points)^2 exceeds the budget.  threads must be at least 1 and has
    no effect.
    """
    npts = len(points)
    if npts == 0:
        raise InvalidInput("empty point list carries no field context")
    fld = points[0].x.field
    for pt in points:
        for e in (pt.x, pt.y):
            # identity first, then key, as distance() compares fields
            if e.field is not fld and e.field.key != fld.key:
                raise FieldMismatch(fld, e.field)
    xs = np.fromiter((pt.x.index for pt in points), dtype=np.int64, count=npts)
    ys = np.fromiter((pt.y.index for pt in points), dtype=np.int64, count=npts)
    _check_threads(threads)
    return distance_set_of_indices(fld, xs, ys, budget)


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


def distance_set_of_indices(field, xs, ys, budget: int = DEFAULT_PAIR_BUDGET) -> ElemSet:
    """Exact distance set over all ordered pairs of the points (xs[k], ys[k]) of field.

    xs and ys are 1-D integer arrays of one length with every canonical
    index in [0, q), or InvalidInput is raised; more than budget ordered
    pairs raise BudgetExceeded.  Both are checked before any table is
    built.  The distance is symmetric, so _walk_triangle pairs each point
    with those from its own on and checks the count.

    A pair subtracts base-p digits on each coordinate (sub_indices), reads
    both squares from FieldTables.sq and adds them (add_indices), into one
    q-byte mask; nothing q^2-sized is built.  It takes a norm per point
    pair, not a sumset of per-axis squares, so it checks
    distance_set_of_grid from outside.
    """
    q = field.q
    xs, ys = _index_array(xs, q, "xs"), _index_array(ys, q, "ys")
    npts = len(xs)
    if len(ys) != npts:
        raise InvalidInput(f"xs has {npts} indices but ys has {len(ys)}")
    if npts * npts > budget:
        raise BudgetExceeded("ordered distance pairs", npts * npts, budget)
    sq, p, n = get_tables(field).sq, field.p, field.n

    def pairs(blk, c0):
        dx2 = sq[sub_indices(xs[blk], xs[c0:], p, n)]
        dy2 = sq[sub_indices(ys[blk], ys[c0:], p, n)]
        return add_indices(dx2, dy2, p, n)

    return ElemSet._from_bits(_walk_triangle("brute force evaluated {done} of {want} pairs", q,
                                             npts, pairs))


def _axis_squares(field, a: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """{(u - v)^2 : u, v in a} as a bool mask over [0, q), from the unordered pairs of a.

    (u - v)^2 = (v - u)^2, so _walk_triangle pairs each entry with those
    from its own on and checks the count.
    """
    p, n = field.p, field.n

    def pairs(blk, c0):
        return sq[sub_indices(a[blk], a[c0:], p, n)]

    return _walk_triangle("grid brute force evaluated {done} of {want} axis pairs", field.q,
                          len(a), pairs)


def _sumset(field, a: np.ndarray, b: np.ndarray) -> ElemSet:
    """{s + t : s in a, t in b} for bool masks a, b: |a||b| sums, _block_rows(|b|) rows a block."""
    s, t = np.flatnonzero(a), np.flatnonzero(b)
    block = _block_rows(len(t))
    sums = (add_indices(s[j : j + block, None], t, field.p, field.n)
            for j in range(0, len(s), block))
    return ElemSet._from_bits(_scatter("grid sumset took {done} of {want} sums", field.q, sums,
                                       len(s) * len(t)))


def distance_set_of_grid(field, xs, ys, budget: int = DEFAULT_PAIR_BUDGET) -> ElemSet:
    """Exact distance set over all ordered pairs of points of the grid xs x ys of field.

    xs and ys are 1-D integer arrays with every canonical index in [0, q),
    of any lengths, or InvalidInput is raised; more than budget ordered
    pairs, (len(xs)*len(ys))^2, raise BudgetExceeded.  Both are checked
    before any table is built.  Between two grid points dx ranges over
    X - X and dy over Y - Y independently, so the distance set is the
    sumset of {dx^2} and {dy^2}.  Each axis is one _walk_triangle over its
    unordered pairs (_axis_squares), reading the squares table
    FieldTables.sq, and one blocked add_indices pass takes the sumset and
    counts its sums (_sumset).  That is about (len(xs)^2 + len(ys)^2)/2
    pairs and at most q^2 sums, where distance_set_of_indices on the same
    points takes about (len(xs)*len(ys))^2/2 pairs.  Nothing but the grid
    shape is used.
    """
    q = field.q
    xs, ys = _index_array(xs, q, "xs"), _index_array(ys, q, "ys")
    npairs = (len(xs) * len(ys)) ** 2
    if npairs > budget:
        raise BudgetExceeded("ordered distance pairs", npairs, budget)
    sq = get_tables(field).sq
    return _sumset(field, _axis_squares(field, xs, sq), _axis_squares(field, ys, sq))


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


def _product_mask(V, cn: CosetNames, budget: int) -> np.ndarray:
    """The H-name mask over cn of VV for a subspace V over the subfield F.

    F*.V = V, so V minus 0 is a union of |F|+1 cosets of F*, and VV minus 0
    is the union of the F*-cosets of the products of one member of each.
    The F-codes of V are taken once; they give the runs and the
    representatives' codes.  Products commute, so _walk_triangle takes
    each representative against those from its own on, in blocks of at
    most _block_rows(1) products, and CosetNames._product_names names
    each block's products from the codes, with no digit plane and no
    ExtField.mul.  One block holds every row up to |F| = 127: that is
    (|F|+1)^2 products, 100 at (3, 1) and 14 884 at (11, 1), and 213 020
    in 14 blocks at (5, 2) for a 196 251-pair triangle.  Raises
    BudgetExceeded if that count, _triangle_count of |F|+1 rows, exceeds
    the budget, before anything else, ClaimViolation if V is not
    F*-closed, and AssertionError if the walk missed a product.
    """
    products = _triangle_count(cn.Q + 1)
    if products > budget:
        raise BudgetExceeded("product set products", products, budget)
    idx = V.indices
    nonzero = idx[idx != 0]
    t = cn.coords(nonzero)
    runs = _coset_runs(cn.name(*t) % cn.step, cn.Q - 1, "V")
    reps = [u[runs[:: cn.Q - 1]] for u in t]

    def pairs(blk, c0):
        return cn._product_names([u[blk] for u in reps], [u[c0:] for u in reps])

    named = _walk_triangle("product set took {done} of {want} products", cn.step, len(reps[0]),
                           pairs)
    # an F*-coset is the union of its two H-cosets, step apart
    return np.concatenate([named, named, [0 in idx]])


def product_set(V, budget: int = DEFAULT_PAIR_BUDGET, threads: int = 1) -> ElemSet:
    """Exact VV = {u*v : u, v in V}, expanded from _product_mask.

    threads must be at least 1 and has no effect.
    """
    _check_threads(threads)
    cn = CosetNames(V.subfield)
    return cn.union(_product_mask(V, cn, budget))


def _intp_blocks(P):
    """(a, P[a:a + k] as intp) over the int32 array P, in blocks of _block_rows(1).

    numpy gathers and scatters about four times as fast through intp
    indices as through int32 ones, and the blocks keep the cast copies
    within _BLOCK_BYTES.
    """
    block = _block_rows(1)
    for a in range(0, len(P), block):
        yield a, P[a : a + block].astype(np.intp)


def _permutes(P) -> bool:
    """Whether the int32 array P is a permutation of [0, len(P)), read in _intp_blocks."""
    seen = np.zeros(len(P), dtype=bool)
    for _, idx in _intp_blocks(P):
        seen[idx] = True
    return bool(seen.all())


def _l_on_names(c, cn: CosetNames) -> tuple:
    """L's permutation P of cn's H-names, as int32, and the F-codes (t0, t1, t2) of the orbit rows.

    phi = diag(gamma, 1) takes e1 to gamma e1, one FieldElem product with
    gamma = subF.powers[1], and e2 to e2, so L = Sym^2 phi takes e1^2, e1
    e2 and e2^2 to (gamma e1)^2, (gamma e1) e2 and e2^2.  One ExtField.mul
    call gives the F-codes of those six products, the columns of B and of
    L B, and of the rows e1^2, e2^2 and (e1 + e2)^2.  For the
    representative u of each name in the chart of the e-basis, src =
    cn._permutation(B) names B u and dst = cn._permutation(L B) names L B
    u, so P[src] = dst is L on cn's names, scattered through _intp_blocks;
    no B^-1 is taken.  AssertionError unless src is a permutation, that
    is unless e1^2, e1 e2 and e2^2 are a basis of F_q over F, and unless P
    is one.
    """
    e1, e2 = c.V.basis
    g1, s = c.field.from_index(c.subF.powers[1]) * e1, e1 + e2
    pairs = [(e1, e1), (e1, e2), (e2, e2), (g1, g1), (g1, e2), (e2, e2), (e1, e1), (e2, e2), (s, s)]
    t = cn.coords(c.field.mul(*([u.index for u in side] for side in zip(*pairs))))
    src, dst = (cn._permutation([u[k : k + 3].tolist() for u in t]) for k in (0, 3))
    if not _permutes(src):
        raise AssertionError("e1^2, e1 e2 and e2^2 are not a basis of F_q over F")
    P = np.empty_like(src)
    for a, idx in _intp_blocks(src):
        P[idx] = dst[a : a + len(idx)]
    if not _permutes(P):
        raise AssertionError("L does not permute the H-names")
    return P, [u[6:] for u in t]


def _orbit_plan(nrows: int, ncols: int):
    """The blocks of a walk of every row against every column.

    Each block is the rows [0, nrows) as a column and the _block_rows(nrows)
    columns [a, b), or fewer in the last block.
    """
    rows = np.arange(nrows)[:, None]
    width = _block_rows(nrows)
    for a in range(0, ncols, width):
        yield rows, a, min(a + width, ncols)


def _distance_mask(c, cn: CosetNames, budget: int = DEFAULT_PAIR_BUDGET) -> np.ndarray:
    """The H-name mask over cn of the distance set S - S of c, S = {v^2 : v in V}.

    V = F e1 + F e2.  For phi in GL(2, F) acting on V, L = Sym^2 phi, L(v
    w) = phi(v) phi(w), is an F-linear bijection of F_q, since e1^2, e1 e2
    and e2^2 are a basis of F_q over F.  It maps S onto S, so S - S onto S
    - S, and L(h z) = h L(z) makes it permute the H-names.  With phi =
    diag(gamma, 1), L^(|F|-1) = 1, and L's orbits on the |F|+1 H-cosets of
    S (F*.V = V gives H.S = S for H = (F*)^2) are those of e1^2, of e2^2
    and of the (a e1 + e2)^2, a != 0.  A member s = h L^j(r) of S minus 0,
    h in H and r one of the rows e1^2, e2^2, (e1 + e2)^2, gives s - t =
    h L^j(r - t') with t' = L^-j(t/h) in S.  So the names of S - S are the
    closure under L of the names of r - t for the three rows r and every t
    in S, 3 |S| differences (21 963 at (11, 1), 9 843 at (3, 2), against
    |S|^2 = 5.4e7 at (11, 1)).  s = 0 gives the names of -S, which are
    those of S as -1 is in H (|F| = 1 mod 4), and those are in the
    closure: t = 0 gives the rows' own names, whose closure is checked to
    cover S's.  The differences are taken in F-coordinates in blocks of
    _orbit_plan, at most _block_rows(1) each, and set by _scatter.
    L's permutation P of the names comes from L's definition, as the names
    of B u and of L B u for the names u of the e-basis chart
    (_l_on_names), and the mask is closed under it by doubling, mask |=
    mask[P] and P = P[P], in ceil(log2(|F|-1)) rounds, through intp blocks
    of P (_intp_blocks).  BudgetExceeded is raised first if 3 |S| = 3
    (|F|^2 + 1)/2 exceeds the budget.  Nothing is assumed: AssertionError
    is raised if -1 is not in H (before V is read), if e1^2, e1 e2 and
    e2^2 are not a basis, if P is not a permutation, if P does not map
    S's names into S's names, if the closure of the rows' own names
    misses a name of S, so that the rows miss an orbit, or if the walk's
    count is wrong; ClaimViolation if S is not H-closed.
    """
    Q = cn.Q
    differences = 3 * (Q * Q + 1) // 2
    if differences > budget:
        raise BudgetExceeded("structured distance set differences", differences, budget)
    if (Q - 1) % 4:
        raise AssertionError(f"-1 is not a square in the subfield of order {Q}")
    squares = c.V.squares
    t = cn.coords(squares)
    names = cn.name(*t)
    _coset_runs(names[squares != 0], (Q - 1) // 2, "the squares of V")
    in_s = np.zeros(cn.zero + 1, dtype=bool)
    in_s[names] = True
    P, rows = _l_on_names(c, cn)
    if not in_s[P[in_s]].all():
        raise AssertionError("L does not map S onto S")

    reps = [Q * u[:, None] for u in rows]
    diffs = (cn._names(*(tab[r[blk] + u[a:b]]
                         for tab, r, u in zip((cn._sub_q, cn._sub_q, cn._sub_t2), reps, t)))
             for blk, a, b in _orbit_plan(3, len(squares)))
    # bit 0 of mask marks the names of the walk's differences, bit 1 the
    # rows' own names
    mask = _scatter("structured distance set took {done} of {want} differences", cn.zero + 1,
                    diffs, 3 * len(squares)).view(np.uint8)
    mask[cn.name(*rows)] |= 2
    for _ in range((Q - 2).bit_length()):
        grown, doubled = mask.copy(), np.empty_like(P)
        for a, idx in _intp_blocks(P):
            grown[a : a + len(idx)] |= mask[idx]
            doubled[a : a + len(idx)] = P[idx]
        mask, P = grown, doubled
    if (in_s[: cn.zero] & (mask[: cn.zero] < 2)).any():
        raise AssertionError("the orbit rows miss an orbit of L on the cosets of S")
    return (mask & 1).astype(bool)


def distance_set_structured(c, threads: int = 1) -> ElemSet:
    """Distance set S - S of the construction, expanded from _distance_mask.

    threads must be at least 1 and has no effect.
    """
    _check_threads(threads)
    cn = CosetNames(c.subF)
    return cn.union(_distance_mask(c, cn))
