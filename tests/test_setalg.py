"""Bitsets, bulk index tables, distance sets, product sets."""

import dataclasses
import functools
import hashlib
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fqdist
from fqdist import ff, setalg
from fqdist.errors import (BudgetExceeded, ClaimViolation, FieldMismatch, InvalidInput,
                           WrongSubfieldDegree)
from fqdist.setalg import ElemSet, Point

import oracles


# --- ElemSet ----------------------------------------------------------------


def test_elemset_insert_idempotent_and_count():
    s = ElemSet(10)
    assert s.count == 0
    s.add_array(np.array([3, 3]))
    assert s.count == 1
    s.add_array(np.array([3, 7, 7, 9]))
    assert s.count == 3
    assert 7 in s and 4 not in s


def test_elemset_complement_witness():
    s = ElemSet(5)
    assert s.complement_witness() == 0
    full = ElemSet.full_set(5)
    assert full.complement_witness() is None
    s = ElemSet.from_indices(5, [0, 1, 3])
    assert s.complement_witness() == 2


def test_elemset_equality_and_subset():
    a = ElemSet.from_indices(8, [1, 2, 5])
    b = ElemSet.from_indices(8, [1, 2, 5])
    c = ElemSet.from_indices(8, [1, 2])
    assert a == b and a != c
    assert c.issubset(a) and not a.issubset(c)


def test_elemset_json_and_hash():
    s = ElemSet.from_indices(6, [0, 4])
    d = s.to_json()
    assert d["q"] == 6 and d["count"] == 2 and d["missing_witness"] == 1
    assert len(d["sha256_of_bitset"]) == 64
    assert "bits_hex" not in d
    assert s.packed.tobytes().hex() == "11"
    full = ElemSet.full_set(6)
    assert "missing_witness" not in full.to_json()
    s2 = ElemSet.from_indices(6, [0, 4])
    assert s2.sha256() == s.sha256()
    s2.add_array(np.array([1]))
    assert s2.sha256() != s.sha256()


def test_elemset_refuses_indices_outside_the_field():
    # a negative index used to read bit q-1 and one from q on raised a bare IndexError
    s = ElemSet.from_indices(9, [8])
    assert s.has(8) and 8 in s and 0 not in s
    for bad in (-1, -9, 9, 10**12):
        with pytest.raises(InvalidInput, match=r"outside \[0, 9\)"):
            s.has(bad)
        with pytest.raises(InvalidInput, match=r"outside \[0, 9\)"):
            bad in s
        with pytest.raises(InvalidInput, match=r"outside \[0, 9\)"):
            ElemSet.from_indices(9, [0, bad])
    assert ElemSet.from_indices(9, []) == ElemSet(9)


def test_elemset_refuses_non_integer_indices():
    # np.fromiter used to truncate 1.7 to #1, and numpy raised its own
    # IndexError or ValueError for a float or bool membership query
    s = ElemSet.from_indices(9, [1, np.int64(5), np.uint8(7)])
    assert s.count == 3
    assert s.has(np.int32(5)) and np.uint64(7) in s and np.int16(2) not in s
    assert ElemSet.from_indices(9, np.array([1, 5, 7], dtype=np.uint16)) == s
    for bad in ([1.7], [1.0], [1, 2.0], [True], np.array([0.5]), [np.float64(3)], ["1"]):
        with pytest.raises(InvalidInput, match="integer"):
            ElemSet.from_indices(9, bad)
    for bad in (5.0, 1.7, True, False, np.float64(5), np.True_, "5", None):
        with pytest.raises(InvalidInput, match="is not an integer"):
            s.has(bad)
        with pytest.raises(InvalidInput, match="is not an integer"):
            bad in s


def _packed(bits) -> np.ndarray:
    return np.packbits(bits, bitorder="little")


def _padding(s: ElemSet) -> int:
    """The bits of the last byte past q, which must stay clear."""
    return int(s.packed[-1]) >> (s.q % 8) if s.q % 8 else 0


# q = 1, 7, 9 and 10 end in a partial byte, 729 too
@pytest.mark.parametrize("q", [1, 7, 9, 10, 729])
def test_packed_elemset_agrees_with_a_bool_reference(monkeypatch, q):
    rng = np.random.default_rng(q)
    for density in (0.0, 0.3, 0.7, 1.0):
        ref = rng.random(q) < density
        s = ElemSet.from_indices(q, np.flatnonzero(ref))
        assert len(s.packed) == (q + 7) // 8 and _padding(s) == 0
        assert np.array_equal(s.packed, _packed(ref))
        assert s.count == int(ref.sum())
        assert [i in s for i in range(q)] == ref.tolist()
        assert np.array_equal(s.bits, ref)
        assert s.sha256() == hashlib.sha256(_packed(ref).tobytes()).hexdigest()
        d = s.to_json()
        assert s.packed.tobytes().hex() == _packed(ref).tobytes().hex()
        assert d["count"] == int(ref.sum()) and d["sha256_of_bitset"] == s.sha256()
        # a subset, equal only to itself
        sub = ref & (rng.random(q) < 0.5)
        t = ElemSet.from_indices(q, np.flatnonzero(sub))
        assert t.issubset(s) and s.issubset(s)
        assert s.issubset(t) == (t == s) == np.array_equal(sub, ref)
        assert (s == ElemSet._from_bits(ref)) and not s.issubset(ElemSet(q + 1))
        # the table count, for numpy before 2.0, agrees
        monkeypatch.setattr(setalg, "_bitcount", setalg._BYTE_BITS.take)
        assert s.count == int(ref.sum())
        monkeypatch.undo()


@pytest.mark.parametrize("q", [1, 7, 9, 10, 729])
def test_packed_elemset_witness_and_padding(q):
    full = ElemSet.full_set(q)
    assert full.count == q and _padding(full) == 0 and full.complement_witness() is None
    assert full.sha256() == hashlib.sha256(_packed(np.ones(q, bool)).tobytes()).hexdigest()
    # the missing element is the last one, in the last partial byte at q = 1, 9 and 10
    last = ElemSet.from_indices(q, range(q - 1))
    assert last.complement_witness() == q - 1 and _padding(last) == 0
    assert last.issubset(full) and not full.issubset(last)
    last.add_array(np.array([q - 1, q - 1]))
    assert last == full and _padding(last) == 0
    assert ElemSet(q).complement_witness() == 0 and ElemSet(q).count == 0


def test_packed_elemset_bits_are_a_read_only_view():
    s = ElemSet.from_indices(10, [1, 9])
    with pytest.raises(ValueError, match="read-only"):
        s.bits[1] = False
    assert s.bits.tolist() == [i in (1, 9) for i in range(10)]
    s.packed[0] &= ~np.uint8(1 << 1)
    assert s.bits.tolist() == [i == 9 for i in range(10)] and 1 not in s


def test_elemset_witness_in_a_later_block(monkeypatch):
    # the search for a byte other than 0xFF runs in blocks of _BLOCK_BYTES
    monkeypatch.setattr(ff, "_BLOCK_BYTES", 4)
    for q, gap in [(100, 45), (100, 99), (96, 95), (96, None)]:
        s = ElemSet.from_indices(q, [i for i in range(q) if i != gap])
        assert s.complement_witness() == gap
        assert s.count == q - (gap is not None)


# --- bulk tables vs scalar arithmetic ----------------------------------------


def test_tables_match_scalar_ops(gf9, gf729):
    # GF(2), GF(4) and GF(16) have characteristic 2; GF(4099) is a prime
    # field larger than the others, one digit per index
    fields = (
        fqdist.make_prime_field(7), gf9, gf729,
        fqdist.ExtField(2, 1), fqdist.ExtField(2, 2), fqdist.ExtField(2, 4),
        fqdist.make_prime_field(4099),
    )
    rng = random.Random(11)
    for fld in fields:
        tabs = setalg.get_tables(fld)
        q, p, n = fld.q, fld.p, fld.n
        elems = list(fld.elements())
        idx = np.arange(q)
        digits = setalg.index_digits(idx, p, n)
        assert digits.tolist() == [list(c) for c in zip(*(e.coeffs for e in elems))]
        assert tabs.sq.tolist() == [(e * e).index for e in elems]
        # every element as a first operand, against all of F_q when it is small
        others = range(q) if q <= 81 else [0, 1, q - 1] + rng.sample(range(q), 5)
        for b in others:
            eb, bs = elems[b], np.full(q, b)
            assert setalg.add_indices(idx, bs, p, n).tolist() == [(e + eb).index for e in elems]
            assert setalg.sub_indices(idx, bs, p, n).tolist() == [(e - eb).index for e in elems]
            # a scalar second operand broadcasts against the array
            assert setalg.sub_indices(idx, b, p, n).tolist() == [(e - eb).index for e in elems]


_SMALL_FIELDS = [
    (p, n) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 97)
    for n in range(1, 13) if p**n <= 3**8
]


@functools.lru_cache(maxsize=None)
def _small_field(p: int, n: int):
    return fqdist.ExtField(p, n)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_SMALL_FIELDS), st.data())
def test_tables_agree_with_scalar_ops_on_random_fields(pn, data):
    fld = _small_field(*pn)
    tabs = setalg.get_tables(fld)
    q = fld.q
    a, b = (data.draw(st.integers(0, q - 1)) for _ in range(2))
    ea, eb = fld.from_index(a), fld.from_index(b)
    p, n = fld.p, fld.n
    assert tabs.sq[a] == (ea * ea).index
    assert setalg.index_digits(a, p, n).tolist() == list(ea.coeffs)
    assert setalg.add_indices(np.array([a]), np.array([b]), p, n)[0] == (ea + eb).index
    assert setalg.sub_indices(np.array([a]), np.array([b]), p, n)[0] == (ea - eb).index


# --- coset names over PG(2, F) ------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_coset_names_partition_the_field(p):
    fld = fqdist.ExtField(p, 6)
    sub = fqdist.locate_subfield(fld, 2)
    cn = setalg.CosetNames(sub)
    Q, step = cn.Q, cn.step
    assert Q == p**2 and step == Q * Q + Q + 1 == (fld.q - 1) // (Q - 1)
    names = cn.name(*cn.coords(np.arange(fld.q)))
    assert names.dtype.itemsize <= 4 and names[0] == cn.zero == 2 * step
    # every H-name has |H| = (Q-1)/2 members ...
    sizes = np.bincount(names, minlength=cn.zero + 1)
    assert sizes[cn.zero] == 1 and (sizes[: cn.zero] == (Q - 1) // 2).all()
    # ... and is closed under H, so the names are exactly the H-cosets;
    # scaling by F* keeps the name mod step
    lams = [lam for lam in sub.elements if lam]
    rng = random.Random(p)
    for z in [fld.one, fld.root] + [fld.from_index(rng.randrange(1, fld.q)) for _ in range(25)]:
        for lam in lams:
            assert names[(lam * z).index] % step == names[z.index] % step
            assert names[(lam * lam * z).index] == names[z.index]
    # coords() and name() of arbitrary indices agree with the full naming
    idx = np.array(rng.sample(range(fld.q), 500))
    assert (cn.name(*cn.coords(idx)) == names[idx]).all()
    with pytest.raises(WrongSubfieldDegree):
        setalg.CosetNames(fqdist.locate_subfield(fld, 1))


# odd m with p = 3, 7, 13 and 3^9 take the non-residue rule, the rest m even
# or p = 2; 3^6, 5^6, 7^6, 11^6 and 3^12 are the fields of (3, 1), (5, 1),
# (7, 1), (11, 1) and (3, 2)
@pytest.mark.parametrize("pn", [(3, 3), (7, 3), (13, 3), (3, 9), (3, 6), (5, 6), (7, 6),
                                (11, 6), (2, 6), (3, 12)], ids=lambda pn: f"{pn[0]}^{pn[1]}")
def test_coset_names_name_every_element_directly(pn):
    # union() names a 1/(p-1) share of the rows and permutes the rest by
    # scaling with Z_p*, streaming packed bytes; the packed direct naming
    # of every index must agree, padding bits included
    fld = _small_field(*pn)
    cn = setalg.CosetNames(fqdist.locate_subfield(fld, fld.n // 3))
    direct = cn.name(*cn.coords(np.arange(fld.q)))
    rng = np.random.default_rng(fld.q)
    for density in (0.5, 0.1, 0.9):
        mask = rng.random(cn.zero + 1) < density
        assert np.array_equal(cn.union(mask).packed, _packed(mask[direct]))


# 3^9 and 7^3 move the H-name with a non-residue: 3^9 with its one scalar,
# 7^3 with three, each read from the swapped block; 11^6 moves none
@pytest.mark.parametrize("pn", [(3, 9), (7, 3), (11, 6)], ids=lambda pn: f"{pn[0]}^{pn[1]}")
def test_union_names_and_copies_ranges_across_blocks(monkeypatch, pn):
    # a budget of four bytes per column names one row per block and emits
    # two rows per piece, so every leading-digit range of more than one row
    # spans several blocks and several pieces
    fld = _small_field(*pn)
    cn = setalg.CosetNames(fqdist.locate_subfield(fld, fld.n // 3))
    direct = cn.name(*cn.coords(np.arange(fld.q)))
    monkeypatch.setattr(ff, "_BLOCK_BYTES", 4 * cn._split)
    assert ff._block_rows(4 * cn._split) == 1 and ff._block_rows(2 * cn._split, 1) == 2
    rng = np.random.default_rng(fld.q)
    for density in (0.5, 0.1):
        mask = rng.random(cn.zero + 1) < density
        assert np.array_equal(cn.union(mask).bits, mask[direct])


def _coset_names(p: int, n: int):
    fld = _small_field(p, n)
    return fld, setalg.CosetNames(fqdist.locate_subfield(fld, n // 3))


@pytest.mark.parametrize("pn", [(3, 12), (11, 6)], ids=lambda pn: f"{pn[0]}^{pn[1]}")
def test_union_holds_less_than_q_bytes(pn):
    # the set takes q/8 bytes and R_k's named block q/p, beside blocks of
    # at most _BLOCK_BYTES; a q-byte bitset took 907 KB at (3, 2) and 2.5 MB
    # at (11, 1)
    fld, cn = _coset_names(*pn)
    mask = np.random.default_rng(1).random(cn.zero + 1) < 0.5
    tracemalloc.start()
    try:
        got = cn.union(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.count > 0
    assert peak < fld.q, f"peak {peak} bytes at q = {fld.q}"


@pytest.mark.parametrize("corrupt", ["flip a row", "drop a row"])
def test_union_refuses_a_corrupted_emit(monkeypatch, corrupt):
    # a row of odd length p^h with every bit flipped changes the count, and a
    # dropped row leaves fewer than q elements emitted
    fld, cn = _coset_names(3, 6)
    mask = np.random.default_rng(2).random(cn.zero + 1) < 0.5
    real, calls = setalg._pack_into, []

    def corrupted(packed, pos, bits):
        calls.append(pos)
        if len(calls) == 3:
            if corrupt == "drop a row":
                bits = bits[1:]
            else:
                bits = bits.copy()
                bits[0] ^= 1
        return real(packed, pos, bits)

    monkeypatch.setattr(setalg, "_pack_into", corrupted)
    with pytest.raises(AssertionError, match="union emitted"):
        cn.union(mask)
    assert len(calls) > 3


def test_pack_into_writes_across_byte_boundaries():
    rng = np.random.default_rng(5)
    bits = rng.random(300) < 0.5
    for cuts in ([0, 3, 3, 11, 12, 100, 300], [0, 1, 2, 9, 17, 24, 299, 300], [0, 300]):
        packed = np.zeros(38, dtype=np.uint8)
        pos = 0
        for a, b in zip(cuts, cuts[1:]):
            pos = setalg._pack_into(packed, pos, bits[a:b])
        assert pos == 300 and np.array_equal(packed, _packed(bits))


def test_coset_names_hold_nothing_q_sized():
    # the names of F_q exist only inside union's pass, one block at a time
    fld = _small_field(3, 6)
    cn = setalg.CosetNames(fqdist.locate_subfield(fld, 2))
    for slot in type(cn).__slots__:
        value = getattr(cn, slot)
        for a in value if isinstance(value, list) else [value]:
            assert np.size(a) < fld.q, slot


@pytest.mark.parametrize("pn", [(3, 4), (3, 5), (3, 2), (5, 1)], ids=lambda pn: f"{pn[0]}^{pn[1]}")
def test_coset_names_refuse_a_degree_not_divisible_by_three(monkeypatch, pn):
    fld = _small_field(*pn)
    # Z_p is a subfield of every field, and never the index-3 one here
    sub = fqdist.locate_subfield(fld, 1)

    def refuse(*args):
        raise AssertionError("a table was built")

    for table in ("_inverse_mod", "index_digits", "add_indices"):
        monkeypatch.setattr(setalg, table, refuse)
    with pytest.raises(WrongSubfieldDegree):
        setalg.CosetNames(sub)


def test_squaring_and_vv_products_are_blocked():
    # at (5, 2), |V| = 390 625 and n = 12: digit planes of every lane would
    # take n * 8 bytes each, 37.5 MB for V, so the peaks show whether
    # ExtField.mul converts one block at a time
    c = fqdist.build_construction(5, 2)
    f, V = c.field, c.V
    # one member per F*-coset of V: e1 and a*e1 + e2 for every a in F
    e1, e2 = (b.index for b in V.basis)
    reps = np.append(setalg.add_indices(f.mul(c.subF.indices, e1), e2, f.p, f.n), e1)
    assert len(np.unique(reps)) == c.subF.order + 1 == 626
    runs = [(lambda: setalg.square_indices(V), (len(V.indices) + 1) // 2),
            (lambda: f.mul(reps[:, None], reps), 626 * 626)]
    for run, size in runs:
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == size
        assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("pr, basis", [((3, 1), "auto"), ((5, 1), "auto"), ((3, 2), "auto"),
                                       ((3, 1), (5, 101))])
def test_square_indices_squares_one_of_each_pair(pr, basis):
    c = fqdist.build_construction(*pr, basis=basis)
    f, idx = c.field, c.V.indices
    want = np.unique(f.mul(idx, idx))
    assert np.array_equal(setalg.square_indices(c.V), want)
    assert len(want) == (len(idx) + 1) // 2


def test_square_indices_refuses_a_repeated_square(monkeypatch):
    # the squares of one member per pair {v, -v} are distinct; a multiply
    # that gives two of them one square must not be deduplicated away
    c = fqdist.build_construction(3, 1)
    mul = type(c.field).mul

    def repeat_one(self, a, b):
        out = mul(self, a, b)
        out[1] = out[0]
        return out

    monkeypatch.setattr(type(c.field), "mul", repeat_one)
    with pytest.raises(AssertionError, match="one square"):
        setalg.square_indices(c.V)


@pytest.mark.parametrize("pn", [(3, 6), (7, 3), (11, 6)], ids=lambda pn: f"{pn[0]}^{pn[1]}")
def test_name_kernel_matches_name_on_random_codes(pn):
    # _names on Q-scaled codes and name() on plain ones against the names
    # by definition: the projective point (t0, t1, t2) divided by its last
    # nonzero coordinate t_l, plus step if log_gamma(t_l) is odd; a quarter
    # of the codes have t2 = 0, some t1 = t2 = 0, and the first is zero
    fld = _small_field(*pn)
    sub = fqdist.locate_subfield(fld, fld.n // 3)
    cn = setalg.CosetNames(sub)
    Q, step = cn.Q, cn.step
    exp = cn.coords(sub.powers)[0].tolist()
    log = {code: k for k, code in enumerate(exp)}

    def div(x, y):
        return exp[(log[x] - log[y]) % (Q - 1)] if x else 0

    def by_definition(a, b, c):
        if c:
            return div(a, c) + Q * div(b, c) + step * (log[c] % 2)
        if b:
            return Q * Q + div(a, b) + step * (log[b] % 2)
        return Q * Q + Q + step * (log[a] % 2) if a else cn.zero

    rng = np.random.default_rng(Q)
    t0, t1, t2 = rng.integers(0, Q, size=(3, 4000))
    t2[:1000] = 0
    t1[:250] = 0
    t0[:20] = 0
    want = [by_definition(*t) for t in zip(t0.tolist(), t1.tolist(), t2.tolist())]
    assert want[0] == cn.zero
    assert cn._names(t0 * Q, t1 * Q, t2.copy()).tolist() == want
    assert cn.name(t0, t1, t2).tolist() == want


# 7^3 has m = 1, where x^3 is reduced by the modulus; 3^12 is the family's n = 12
@pytest.mark.parametrize("pn", [(3, 6), (7, 3), (11, 6), (3, 12)], ids=lambda pn: f"{pn[0]}^{pn[1]}")
def test_product_kernel_matches_extfield_products(pn):
    # the products on F-codes against ExtField.mul on indices, named after;
    # a third of the factors are f0 + f1 x + f2 x^2 with each f_j a random
    # member of F, zero a quarter of the time, so zero coordinates occur
    # in every position, and the zero element among them
    fld = _small_field(*pn)
    sub = fqdist.locate_subfield(fld, fld.n // 3)
    cn = setalg.CosetNames(sub)
    p, n = fld.p, fld.n
    rng = np.random.default_rng(fld.q)
    f = rng.choice(sub.indices, size=(3, 300))
    f[rng.random(f.shape) < 0.25] = 0
    f[:, 0] = 0
    tower = setalg.add_indices(setalg.add_indices(f[0], fld.mul(f[1], p), p, n),
                               fld.mul(f[2], p * p), p, n)
    a, b = (np.concatenate([tower, rng.integers(0, fld.q, 600)]) for _ in range(2))
    b = rng.permutation(b)
    assert (np.stack(cn.coords(a)) == 0).any(axis=1).all()

    def want(x, y):
        return cn.name(*cn.coords(fld.mul(x, y))) % cn.step

    assert np.array_equal(cn._product_names(cn.coords(a), cn.coords(b)), want(a, b))
    col, row = a[:40, None], b[:70]
    got = cn._product_names(cn.coords(col), cn.coords(row))
    assert got.shape == (40, 70) and np.array_equal(got, want(col, row))


@pytest.mark.parametrize("pr", [(3, 1), (3, 2), (11, 1)])
def test_product_walk_takes_no_extfield_products(monkeypatch, pr):
    # VV's mask from the walk on F-codes equals the names of ExtField.mul's
    # products of every pair of representatives, and once CosetNames is
    # built the walk multiplies nothing through ExtField.mul
    c = _construction(*pr)
    f = c.field
    cn = setalg.CosetNames(c.subF)
    nonzero = c.V.indices[c.V.indices != 0]
    names = cn.name(*cn.coords(nonzero)) % cn.step
    reps = nonzero[np.unique(names, return_index=True)[1]]
    assert len(reps) == cn.Q + 1
    want = np.zeros(cn.zero + 1, dtype=bool)
    named = cn.name(*cn.coords(f.mul(reps[:, None], reps))) % cn.step
    want[named] = want[named + cn.step] = want[cn.zero] = True

    def no_mul(self, a, b):
        raise AssertionError("ExtField.mul called")

    monkeypatch.setattr(type(f), "mul", no_mul)
    assert np.array_equal(setalg._product_mask(c.V, cn, setalg.DEFAULT_PAIR_BUDGET), want)


def test_structured_path_builds_no_field_tables(monkeypatch):
    def refuse(field):
        raise AssertionError("FieldTables built on the structured path")

    monkeypatch.setattr(setalg, "FieldTables", refuse)
    c = fqdist.build_construction(3, 1)
    fqdist.distance_set_structured(c)
    fqdist.product_set(c.V)
    monkeypatch.setattr(setalg, "get_tables", refuse)
    assert fqdist.verify_counterexample(3, 1, oracle="structured").size_delta == 441


# --- distance ----------------------------------------------------------------


def test_distance_examples():
    f3 = fqdist.make_prime_field(3)
    p00 = Point(f3.from_int(0), f3.from_int(0))
    p11 = Point(f3.from_int(1), f3.from_int(1))
    assert fqdist.distance(p00, p11) == f3.from_int(2)
    assert fqdist.distance(p00, p00) == f3.zero
    assert fqdist.distance(p00, p11) == fqdist.distance(p11, p00)


def test_distance_field_mismatch(gf9, gf729):
    a = Point(gf9.one, gf9.one)
    b = Point(gf729.one, gf729.one)
    with pytest.raises(FieldMismatch):
        fqdist.distance(a, b)


# --- brute-force distance sets ------------------------------------------------


def test_full_grid_f3_covers_everything():
    f3 = fqdist.make_prime_field(3)
    pts = oracles.grid_points(f3)
    delta = fqdist.distance_set_bruteforce(pts)
    assert delta == ElemSet.full_set(3)


def test_singleton_distance_set(gf9):
    pt = Point(gf9.from_index(5), gf9.from_index(7))
    delta = fqdist.distance_set_bruteforce([pt])
    assert delta.count == 1 and delta.has(0)


def test_empty_point_list_rejected():
    # InvalidInput is a ValueError
    with pytest.raises(InvalidInput, match="empty point list"):
        fqdist.distance_set_bruteforce([])


def test_bruteforce_matches_scalar_oracle(gf9, gf729):
    rng = random.Random(99)
    # GF(3^8), q = 6561, has eight base-p digits per index
    for fld in (gf9, fqdist.make_prime_field(7), gf729, fqdist.ExtField(3, 8)):
        for _ in range(8):
            pts = [
                Point(fld.from_index(rng.randrange(fld.q)), fld.from_index(rng.randrange(fld.q)))
                for _ in range(rng.randrange(1, 12))
            ]
            got = fqdist.distance_set_bruteforce(pts)
            want = oracles.scalar_distance_set(pts)
            assert {i for i in range(fld.q) if got.has(i)} == want


@pytest.mark.parametrize("spread", [True, False])
@pytest.mark.parametrize("pn", [(3, 6), (2, 10), (2039, 1), (2053, 1)])
def test_bruteforce_over_many_blocks_matches_scalar_oracle(pn, spread):
    # 600 points drawn with replacement from 120 random points (spread) or
    # from the 36 points of a random 6 x 6 grid, whose distance set misses
    # part of F_q.  At 600 points the first block is 27 rows and the last
    # ones are wider, so the walk spans several blocks of unequal heights.
    fld = _small_field(*pn)
    rng = random.Random(f"{pn}-{spread}")
    elems = [fld.from_index(i) for i in rng.sample(range(fld.q), 240 if spread else 12)]
    if spread:
        pool = [Point(elems[2 * k], elems[2 * k + 1]) for k in range(120)]
    else:
        pool = [Point(x, y) for x in elems[:6] for y in elems[6:]]
    pts = rng.choices(pool, k=600)
    want = oracles.scalar_distance_set(list(dict.fromkeys(pts)))
    got = [fqdist.distance_set_bruteforce(pts, threads=t) for t in (1, 2, 3)]
    assert set(np.flatnonzero(got[0].bits).tolist()) == want
    assert got[0] == got[1] == got[2]
    assert spread or len(want) < fld.q


def test_bruteforce_rejects_mixed_fields(gf9, monkeypatch):
    def refuse(field):
        raise AssertionError("FieldTables built before the fields were compared")

    # refused before any table is built
    monkeypatch.setattr(setalg, "FieldTables", refuse)
    gf27 = fqdist.ExtField(3, 3)
    a, b = Point(gf9.one, gf9.root), Point(gf27.one, gf27.root)
    for pts in ([a, b], [b, a], [Point(gf9.one, gf27.one)]):
        with pytest.raises(FieldMismatch):
            fqdist.distance_set_bruteforce(pts)
    # two fields of order 9 with different moduli
    f1, f2 = fqdist.ExtField(3, 2, modulus=(1, 0, 1)), fqdist.ExtField(3, 2, modulus=(2, 2, 1))
    for pts in ([Point(f1.one, f1.root), Point(f2.one, f2.root)],
                [Point(f2.one, f2.root), Point(f1.one, f1.root)]):
        with pytest.raises(FieldMismatch):
            fqdist.distance_set_bruteforce(pts)
    monkeypatch.undo()
    # equal fields that are distinct objects are accepted, as distance() does
    f3 = fqdist.ExtField(3, 2, modulus=(1, 0, 1))
    got = fqdist.distance_set_bruteforce([Point(f1.one, f1.root), Point(f3.zero, f3.one)])
    assert got.count == 2


def test_index_entry_refuses_bad_arrays_before_any_table(monkeypatch):
    def refuse(field):
        raise AssertionError("FieldTables built before the arrays were checked")

    monkeypatch.setattr(setalg, "FieldTables", refuse)
    fld = fqdist.ExtField(3, 6)
    q = fld.q
    three = np.arange(3)
    cases = [
        (np.array([0, -1, 2]), three, r"xs holds an index outside \[0, 729\)"),
        (three, np.array([0, q, 2]), r"ys holds an index outside \[0, 729\)"),
        (three, np.arange(4), "xs has 3 indices but ys has 4"),
        (np.arange(4), three, "xs has 4 indices but ys has 3"),
        (three.astype(float), three, "integer"),
        (three.astype(bool), three, "integer"),
        (three, np.arange(4).reshape(2, 2), "1-D"),
    ]
    for xs, ys, match in cases:
        with pytest.raises(InvalidInput, match=match):
            setalg.distance_set_of_indices(fld, xs, ys)
    with pytest.raises(BudgetExceeded, match="ordered distance pairs"):
        setalg.distance_set_of_indices(fld, np.arange(9), np.arange(9), budget=80)
    monkeypatch.undo()
    # an empty set has an empty distance set; unsigned and narrow arrays are indices too
    assert setalg.distance_set_of_indices(fld, three[:0], three[:0]) == ElemSet(q)
    got = setalg.distance_set_of_indices(fld, np.array([0, q - 1], np.uint16),
                                         np.array([5, 0], np.int32))
    assert got == setalg.distance_set_of_indices(fld, [0, q - 1], [5, 0])


def test_index_entry_builds_nothing_q_squared():
    # 40 points of GF(2039) need the 8*q-byte squares table, a q-byte
    # bitset and block temporaries of 40 x 40 pairs: far below
    # q^2 = 4.2 MB, so nothing indexed by pairs of elements is built
    fld = fqdist.make_prime_field(2039)
    q = fld.q
    rng = np.random.default_rng(2039)
    xs, ys = rng.integers(0, q, size=(2, 40))
    tracemalloc.start()
    try:
        got = setalg.distance_set_of_indices(fld, xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < q * q, f"peak {peak / 2**20:.2f} MB"
    pts = [Point(fld.from_index(x), fld.from_index(y)) for x, y in zip(xs.tolist(), ys.tolist())]
    assert set(np.flatnonzero(got.bits).tolist()) == oracles.scalar_distance_set(pts)


def test_index_entry_matches_the_point_entry_on_E(c31):
    xs, ys = fqdist.E_indices(c31)
    want = fqdist.distance_set_bruteforce(fqdist.enumerate_E(c31))
    assert want == fqdist.distance_set_structured(c31)
    got = fqdist.distance_set_of_indices(c31.field, xs, ys)
    assert got == want and got.sha256() == want.sha256()


@pytest.mark.parametrize("pn", [(3, 6), (3, 8)])
def test_index_entry_matches_the_point_entry_on_random_points(pn):
    # GF(3^6) and GF(3^8): six and eight base-p digits per index
    fld = _small_field(*pn)
    rng = np.random.default_rng(sum(pn))
    xs, ys = rng.integers(0, fld.q, size=(2, 400))
    pts = [Point(fld.from_index(x), fld.from_index(y)) for x, y in zip(xs.tolist(), ys.tolist())]
    want = fqdist.distance_set_bruteforce(pts)
    got = fqdist.distance_set_of_indices(fld, xs, ys)
    assert got == want and got.sha256() == want.sha256()
    few = pts[:50]
    got = fqdist.distance_set_of_indices(fld, xs[:50], ys[:50])
    assert set(np.flatnonzero(got.bits).tolist()) == oracles.scalar_distance_set(few)


def test_grid_entry_matches_the_point_entry_on_E(c31):
    xs, ys = fqdist.E_indices(c31)
    want = fqdist.distance_set_of_indices(c31.field, xs, ys)
    got = fqdist.distance_set_of_grid(c31.field, *fqdist.E_axes(c31))
    assert got == want and got.sha256() == want.sha256()


@pytest.mark.parametrize("pn", [(3, 6), (2053, 1), (2, 11)])
def test_grid_entry_matches_scalar_loops_on_random_grids(pn):
    # unequal axes with repeated values, and a grid with an empty axis
    fld = _small_field(*pn)
    rng = np.random.default_rng(pn[0])
    xs = rng.integers(0, fld.q, size=7)
    xs = np.append(xs, xs[:2])
    ys = np.append(rng.integers(0, fld.q, size=4), xs[0])
    pts = [Point(fld.from_index(x), fld.from_index(y)) for x in xs.tolist() for y in ys.tolist()]
    got = fqdist.distance_set_of_grid(fld, xs, ys)
    assert set(np.flatnonzero(got.bits).tolist()) == oracles.scalar_distance_set(pts)
    assert fqdist.distance_set_of_grid(fld, xs, ys[:0]) == ElemSet(fld.q)
    assert fqdist.distance_set_of_grid(fld, xs[:0], ys) == ElemSet(fld.q)


def test_grid_entry_matches_the_structured_set_at_3_2():
    # |E|^2 = 1.9e15 ordered pairs, out of reach of the point-list kernel
    c = _construction(3, 2)
    got = fqdist.distance_set_of_grid(c.field, *fqdist.E_axes(c), budget=c.size_E**2)
    assert got == fqdist.distance_set_structured(c)


def test_grid_sumset_refuses_a_dropped_sum(monkeypatch):
    # most sums of the two axes' squares are reached more than once, so a
    # pass that drops one can still give the right set; only the count of
    # sums shows the gap
    fld = _small_field(3, 6)
    xs = np.arange(5)
    k = len(np.unique(setalg.get_tables(fld).sq[setalg.sub_indices(xs[:, None], xs, 3, 6)]))
    add = setalg.add_indices

    def drop_one(a, b, p, n):
        return add(a, b, p, n).ravel()[1:]

    monkeypatch.setattr(setalg, "add_indices", drop_one)
    with pytest.raises(AssertionError, match=f"grid sumset took {k * k - 1} of {k * k} sums"):
        fqdist.distance_set_of_grid(fld, xs, xs)


def test_grid_entry_refuses_before_any_table(monkeypatch):
    def refuse(field):
        raise AssertionError("a table was built")

    monkeypatch.setattr(setalg, "get_tables", refuse)
    fld = _small_field(3, 6)
    three = np.arange(3)
    cases = [
        (np.array([0, -1, 2]), three, r"xs holds an index outside \[0, 729\)"),
        (three, np.array([0, 729]), r"ys holds an index outside \[0, 729\)"),
        (three.astype(float), three, "integer"),
        (three, np.arange(4).reshape(2, 2), "1-D"),
    ]
    for xs, ys, match in cases:
        with pytest.raises(InvalidInput, match=match):
            fqdist.distance_set_of_grid(fld, xs, ys)
    # a 3 x 4 grid has 144 ordered pairs
    with pytest.raises(BudgetExceeded, match="ordered distance pairs: 144 exceeds the budget of 143"):
        fqdist.distance_set_of_grid(fld, three, np.arange(4), budget=143)


def test_monotonicity_random_subsets():
    f5 = fqdist.make_prime_field(5)
    rng = random.Random(5)
    pts = oracles.grid_points(f5)
    for _ in range(20):
        big = rng.sample(pts, rng.randrange(2, 12))
        small = rng.sample(big, rng.randrange(1, len(big)))
        db = fqdist.distance_set_bruteforce(big)
        ds = fqdist.distance_set_bruteforce(small)
        assert ds.issubset(db)


def test_translation_invariance_random_sets(gf9):
    rng = random.Random(6)
    for _ in range(20):
        pts = [
            Point(gf9.from_index(rng.randrange(9)), gf9.from_index(rng.randrange(9)))
            for _ in range(rng.randrange(1, 8))
        ]
        tx = gf9.from_index(rng.randrange(9))
        ty = gf9.from_index(rng.randrange(9))
        shifted = [Point(p.x + tx, p.y + ty) for p in pts]
        assert fqdist.distance_set_bruteforce(pts) == fqdist.distance_set_bruteforce(shifted)


def test_bruteforce_budget_is_hard():
    f3 = fqdist.make_prime_field(3)
    pts = oracles.grid_points(f3)
    with pytest.raises(BudgetExceeded):
        fqdist.distance_set_bruteforce(pts, budget=80)  # 81 ordered pairs needed


# --- product sets --------------------------------------------------------------


def test_product_set_contains_zero_and_squares(c31):
    vv = fqdist.product_set(c31.V)
    assert vv.has(0)
    for u in c31.V.elements[:20]:
        assert vv.has((u * u).index)


def test_product_set_matches_naive_oracle(c31):
    vv = fqdist.product_set(c31.V)
    want = oracles.scalar_product_set(c31.V.elements)
    assert {i for i in range(c31.q) if vv.has(i)} == want
    assert vv.count == len(want) == 441  # regression-frozen
    for basis in ((2, 10), (28, 500), (364, 7)):
        V = fqdist.build_subspace(c31.field, c31.subF, basis)
        vv = fqdist.product_set(V)
        assert {i for i in range(c31.q) if vv.has(i)} == oracles.scalar_product_set(V.elements)


def test_product_set_rejects_a_set_that_is_not_coset_closed(c31):
    idx = c31.V.indices
    dropped = dataclasses.replace(c31.V, indices=idx[idx != idx[5]])
    with pytest.raises(ClaimViolation):
        fqdist.product_set(dropped)
    outsider = next(i for i in range(c31.q) if i not in set(idx.tolist()))
    swapped = dataclasses.replace(c31.V, indices=np.sort(np.append(idx[idx != idx[5]], outsider)))
    with pytest.raises(ClaimViolation):
        fqdist.product_set(swapped)


def test_product_set_not_all_of_fq(c31):
    vv = fqdist.product_set(c31.V)
    assert vv.count < c31.q
    witness = vv.complement_witness()
    assert witness is not None and not vv.has(witness)


def test_scaled_subspace_has_same_product_count(c31):
    vv_count = fqdist.product_set(c31.V).count
    e1, e2 = c31.V.basis
    for c in c31.subF.elements:
        if not c:
            continue
        scaled = fqdist.build_subspace(c31.field, c31.subF, ((c * e1).index, (c * e2).index))
        assert fqdist.product_set(scaled).count == vv_count


def test_product_set_budget():
    c = fqdist.build_construction(3, 1)
    with pytest.raises(BudgetExceeded):
        fqdist.product_set(c.V, budget=99)


# --- structured distance set ----------------------------------------------------


_BASES = {
    3: ("auto", (2, 10), (28, 500), (364, 7)),
    5: ("auto", (77, 15000), (2, 30), (9000, 41)),
    7: ("auto", (12345, 999), (2, 50), (100000, 3)),
}


@functools.lru_cache(maxsize=None)
def _construction(p: int, r: int):
    return fqdist.build_construction(p, r)


def test_structured_matches_naive_square_differences():
    # Δ pairs coset a with the cosets b >= a only; every difference of
    # squares must still be found, on the automatic basis and three others
    for p in (3, 5, 7):
        c0 = _construction(p, 1)
        for basis in _BASES[p]:
            c = dataclasses.replace(c0, V=fqdist.build_subspace(c0.field, c0.subF, basis))
            delta = fqdist.distance_set_structured(c)
            want = oracles.scalar_square_difference_set(c.V.elements)
            assert set(np.flatnonzero(delta.bits).tolist()) == want


@pytest.mark.parametrize("pr", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_coset_runs_start_at_multiples_of_the_coset_size(pr):
    c = _construction(*pr)
    cn = setalg.CosetNames(c.subF)
    size = (cn.Q - 1) // 2
    squares = c.V.squares
    names = cn.name(*cn.coords(squares[squares != 0]))
    ranked = names[setalg._coset_runs(names, size, "S")]
    # |F| + 1 runs of |H| = (|F|-1)/2 squares, each of one name, no name twice
    runs = ranked.reshape(cn.Q + 1, size)
    assert (runs == runs[:, :1]).all()
    assert len(set(runs[:, 0].tolist())) == cn.Q + 1
    # a name met twice as often, or a count not a multiple of size, is refused
    for bad in (np.concatenate([names, names]), names[1:]):
        with pytest.raises(ClaimViolation):
            setalg._coset_runs(bad, size, "S")


@pytest.mark.parametrize("pr", [(3, 1), (3, 2), (11, 1)])
def test_structured_refuses_columns_that_start_one_coset_late(monkeypatch, pr):
    # VV walks its representatives' triangle in _plan's blocks, one block up
    # to |F| = 127.  Δ walks three rows against every square in
    # _orbit_plan's blocks of 5 461 columns: one block of 3 x 41 and of
    # 3 x 3 281 differences at (3, 1) and (3, 2), two of 3 x 7 321 at
    # (11, 1).  A block whose columns start one late drops three
    c = _construction(*pr)
    plan, orbit_plan = setalg._plan, setalg._orbit_plan

    def one_coset_late(nrows):
        for blk, c0 in plan(nrows):
            yield blk, c0 + 1

    def one_column_late(nrows, ncols):
        for rows, a, b in orbit_plan(nrows, ncols):
            yield rows, a + 1, b

    monkeypatch.setattr(setalg, "_plan", one_coset_late)
    monkeypatch.setattr(setalg, "_orbit_plan", one_column_late)
    want, blocks = 3 * len(c.V.squares), {(3, 1): 1, (3, 2): 1, (11, 1): 2}[pr]
    with pytest.raises(AssertionError, match=f"took {want - 3 * blocks} of {want} differences"):
        fqdist.distance_set_structured(c)
    with pytest.raises(AssertionError, match="products"):
        fqdist.product_set(c.V)


def test_structured_requires_minus_one_in_h():
    # GF(3^3) over GF(3): -1 is not a square in F, so the triangle is unsound
    c = types.SimpleNamespace(subF=fqdist.locate_subfield(fqdist.ExtField(3, 3), 1))
    with pytest.raises(AssertionError, match="-1 is not a square"):
        fqdist.distance_set_structured(c)


# explicit bases on which B, the F-coordinates of e1^2, e1 e2 and e2^2 in the
# chart of CosetNames, is not diagonal
_TORUS_BASES = [(3, 1, (2, 10)), (5, 1, (77, 15000)), (7, 1, (12345, 999)), (3, 2, (2, 10)),
                (11, 1, (7, 12345))]


@pytest.mark.parametrize("p, r, basis", _TORUS_BASES)
def test_distance_mask_matches_vv_and_the_scalar_oracle_on_explicit_bases(p, r, basis):
    # Δ's mask comes from three rows closed under L; VV's from every pair of
    # representatives, and the oracle from every pair of squares
    c = fqdist.build_construction(p, r, basis)
    cn = setalg.CosetNames(c.subF)
    e1, e2 = (e.index for e in c.V.basis)
    B = [u.tolist() for u in cn.coords(c.field.mul([e1, e1, e2], [e1, e2, e2]))]
    assert any(B[i][j] for i in range(3) for j in range(3) if i != j)
    mask = setalg._distance_mask(c, cn)
    assert np.array_equal(mask, setalg._product_mask(c.V, cn, 10**15))
    delta = set(np.flatnonzero(cn.union(mask).bits).tolist())
    assert delta == oracles.scalar_square_difference_set(c.V.elements)


@pytest.mark.parametrize("p, r, basis", [(3, 1, "auto")] + _TORUS_BASES[::2])
def test_torus_permutation_is_l_on_the_names(p, r, basis):
    # L(u0 e1^2 + u1 e1 e2 + u2 e2^2) = gamma^2 u0 e1^2 + gamma u1 e1 e2 + u2 e2^2,
    # taken with ExtField.mul and add_indices, against P read at the name of
    # the argument; every z at (3, 1), 3 000 random ones above
    c = fqdist.build_construction(p, r, basis)
    f, cn = c.field, setalg.CosetNames(c.subF)
    P, _ = setalg._l_on_names(c, cn)
    assert P.dtype == np.int32 and sorted(P.tolist()) == list(range(cn.zero + 1))
    F = c.subF.indices
    if p**r == 3:
        u = np.stack(np.meshgrid(F, F, F)).reshape(3, -1)
    else:
        u = np.random.default_rng(p).choice(F, (3, 3000))
    e1, e2 = (e.index for e in c.V.basis)
    b = f.mul([e1, e1, e2], [e1, e2, e2])
    gamma = c.subF.powers[1]

    def element(u0, u1, u2):
        parts = [f.mul(x, y) for x, y in zip((u0, u1, u2), b)]
        return setalg.add_indices(setalg.add_indices(parts[0], parts[1], f.p, f.n), parts[2],
                                  f.p, f.n)

    z = element(*u)
    Lz = element(f.mul(u[0], f.mul(gamma, gamma)), f.mul(u[1], gamma), u[2])
    assert P[cn.name(*cn.coords(z))].tolist() == cn.name(*cn.coords(Lz)).tolist()


@pytest.mark.parametrize("basis", ["auto", (2, 10)])
def test_structured_refuses_a_torus_that_fails_a_check(monkeypatch, basis):
    # each of the checks on B, L B, L, P and the rows refuses on its own
    c0 = _construction(3, 1)
    c = dataclasses.replace(c0, V=fqdist.build_subspace(c0.field, c0.subF, basis))
    cn = setalg.CosetNames(c.subF)
    e1, e2 = c.V.basis
    # B from the basis (e1, gamma e1), whose squares are F-multiples of e1^2
    gamma_e1 = c.field.from_index(c.subF.powers[1]) * e1
    flat = dataclasses.replace(c, V=dataclasses.replace(c.V, basis=(e1, gamma_e1)))
    with pytest.raises(AssertionError, match=r"e1\^2, e1 e2 and e2\^2 are not a basis"):
        setalg._distance_mask(flat, cn)
    # gamma replaced by t^k, t = e2/e1 of degree 3 over F.  k = 1 gives
    # phi(e1) = e2, so L B's columns are one element, e2^2, and P is no
    # permutation.  k = 2 gives L B's columns t^4, t^3 and t^2 times e1^2, a
    # basis, so L is F-linear and bijective, but t^2 e1 is not in V, so L
    # moves e1^2 off S
    for k, refusal in ((1, "does not permute the H-names"), (2, "does not map S onto S")):
        powers = c.subF.powers.copy()
        powers[1] = ((e2 / e1) ** k).index
        with pytest.raises(AssertionError, match=refusal):
            setalg._distance_mask(
                dataclasses.replace(c, subF=dataclasses.replace(c.subF, powers=powers)), cn)
    # one entry of dst, the second permutation, copied from another
    permutation, calls = setalg.CosetNames._permutation, []

    def corrupted(self, M):
        P = permutation(self, M)
        calls.append(M)
        if len(calls) == 2:
            P[5] = P[6]
        return P

    with monkeypatch.context() as m:
        m.setattr(setalg.CosetNames, "_permutation", corrupted)
        with pytest.raises(AssertionError, match="does not permute the H-names"):
            fqdist.distance_set_structured(c)
    # e1 + e2 read as e1, so the rows are e1^2, e2^2 and e1^2 again: the
    # count of differences still holds
    with monkeypatch.context() as m:
        m.setattr(fqdist.FieldElem, "__add__", lambda self, other: self)
        with pytest.raises(AssertionError, match="miss an orbit"):
            fqdist.distance_set_structured(c)
    assert fqdist.distance_set_structured(c) == fqdist.product_set(c.V)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 728), st.integers(1, 728))
def test_structured_sets_on_random_bases(c31, i1, i2):
    try:
        V = fqdist.build_subspace(c31.field, c31.subF, (i1, i2))
    except fqdist.DependentBasis:
        assume(False)
    c = dataclasses.replace(c31, V=V)
    delta = fqdist.distance_set_structured(c)
    vv = fqdist.product_set(V)
    assert set(np.flatnonzero(delta.bits).tolist()) == oracles.scalar_square_difference_set(V.elements)
    assert set(np.flatnonzero(vv.bits).tolist()) == oracles.scalar_product_set(V.elements)


def test_structured_rejects_squares_that_are_not_coset_closed(c31):
    # dropping v and -v removes the square v^2 but leaves the rest of its
    # (F*)^2-coset, so S is no longer a union of whole cosets
    idx = c31.V.indices
    v = c31.V.elements[5]
    kept = idx[(idx != v.index) & (idx != (-v).index)]
    broken = dataclasses.replace(c31, V=dataclasses.replace(c31.V, indices=kept))
    with pytest.raises(ClaimViolation):
        fqdist.distance_set_structured(broken)


def test_structured_subset_of_products(c31):
    delta = fqdist.distance_set_structured(c31)
    vv = fqdist.product_set(c31.V)
    assert delta.issubset(vv)
    assert delta == vv  # q odd


def test_oracle_equivalence_all_three_paths(c31):
    delta_struct = fqdist.distance_set_structured(c31)
    vv = fqdist.product_set(c31.V)
    pts = fqdist.enumerate_E(c31)
    delta_bf = fqdist.distance_set_bruteforce(pts)
    assert delta_bf == delta_struct == vv


def test_threads_give_bit_identical_results(c31):
    # the three entries that keep threads accept it with no effect, and
    # refuse it below 1 before any set
    d1 = fqdist.distance_set_structured(c31, threads=1)
    d3 = fqdist.distance_set_structured(c31, threads=3)
    assert d1 == d3 and d1.sha256() == d3.sha256()
    v1 = fqdist.product_set(c31.V, threads=1)
    v4 = fqdist.product_set(c31.V, threads=4)
    assert v1 == v4
    pts = fqdist.enumerate_E(c31)
    b1 = fqdist.distance_set_bruteforce(pts, threads=1)
    b2 = fqdist.distance_set_bruteforce(pts, threads=2)
    assert b1 == b2
    for call in (lambda: fqdist.distance_set_structured(c31, threads=0),
                 lambda: fqdist.product_set(c31.V, threads=0),
                 lambda: fqdist.distance_set_bruteforce(pts, threads=0)):
        with pytest.raises(InvalidInput, match="threads must be at least 1"):
            call()


def test_row_chunks_bounded_by_rows(monkeypatch):
    # a block budget far above the triangle gives one block of every row,
    # and no rows give no block and no call
    monkeypatch.setattr(ff, "_BLOCK_BYTES", 8 * 10**9)
    for nrows in (1, 5, 300):
        assert [(blk.ravel().tolist(), c0) for blk, c0 in setalg._plan(nrows)] == [
            (list(range(nrows)), 0)]
    assert list(setalg._plan(0)) == []

    def pairs(blk, c0):
        raise AssertionError("pairs called without rows")

    got = setalg._walk_triangle("{done} of {want}", 7, 0, pairs)
    assert got.dtype == bool and got.tolist() == [False] * 7


# 40 points fit one block of rows 0..39 from column 0.  The counts are
# those of the whole pass, of one that starts at row 1 and of one whose
# columns start one late
_SKIP_COUNTS = (1600, 1521, 1560)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("pn", [(3, 2), (3, 8)])
def test_bruteforce_refuses_a_pass_that_skips_a_row(monkeypatch, pn, threads):
    # the distance is symmetric, so the set of a pass that skips one row
    # can still be right; only the count of evaluated pairs shows the gap.
    # Point-list and grid brute force are checked on GF(3^2) and GF(3^8),
    # of two and eight digits.  VV shares the walk and must refuse the same
    # skip, and Δ's walk must refuse a block that drops a row; threads,
    # where an entry still takes it, changes none of it
    fld = _small_field(*pn)
    rng = random.Random(f"{pn}")
    pts = [Point(fld.from_index(rng.randrange(fld.q)), fld.from_index(rng.randrange(fld.q)))
           for _ in range(40)]
    xs = np.array([pt.x.index for pt in pts])
    c = _construction(3, 1)
    plan, orbit_plan = setalg._plan, setalg._orbit_plan
    want, got, _ = _SKIP_COUNTS

    def from_row_one(nrows):
        for j, (blk, c0) in enumerate(plan(nrows)):
            yield (blk[1:], c0 + 1) if j == 0 else (blk, c0)

    def without_row_zero(nrows, ncols):
        # Δ's walk takes its three rows against all 41 squares in one block
        for j, (rows, a, b) in enumerate(orbit_plan(nrows, ncols)):
            yield (rows[1:] if j == 0 else rows), a, b

    monkeypatch.setattr(setalg, "_plan", from_row_one)
    monkeypatch.setattr(setalg, "_orbit_plan", without_row_zero)
    with pytest.raises(AssertionError, match=f"evaluated {got} of {want} pairs"):
        fqdist.distance_set_bruteforce(pts, threads=threads)
    with pytest.raises(AssertionError, match=f"evaluated {got} of {want} axis pairs"):
        fqdist.distance_set_of_grid(fld, xs, xs)
    with pytest.raises(AssertionError, match="took 82 of 123 differences"):
        fqdist.distance_set_structured(c, threads=threads)
    with pytest.raises(AssertionError, match="products"):
        fqdist.product_set(c.V, threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("pn", [(3, 2), (3, 8)])
def test_bruteforce_refuses_columns_that_start_past_the_block(monkeypatch, pn, threads):
    # a block that starts its columns one past its first row misses that
    # row's pair with itself, whose distance 0 every other row still gives
    fld = _small_field(*pn)
    rng = random.Random(f"{pn}")
    pts = [Point(fld.from_index(rng.randrange(fld.q)), fld.from_index(rng.randrange(fld.q)))
           for _ in range(40)]
    xs = np.array([pt.x.index for pt in pts])
    plan = setalg._plan
    want, _, got = _SKIP_COUNTS

    def one_column_late(nrows):
        for blk, c0 in plan(nrows):
            yield blk, c0 + 1

    monkeypatch.setattr(setalg, "_plan", one_column_late)
    with pytest.raises(AssertionError, match=f"evaluated {got} of {want} pairs"):
        fqdist.distance_set_bruteforce(pts, threads=threads)
    with pytest.raises(AssertionError, match=f"evaluated {got} of {want} axis pairs"):
        fqdist.distance_set_of_grid(fld, xs, xs)


@pytest.mark.parametrize("nrows", [0, 1, 2, 5, 40, 301])
@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("cap", [1, 9, 1638])
def test_triangle_pairs_counts_the_blocks(monkeypatch, nrows, size, cap):
    # the walk checks its count against the formula, so it returning shows
    # that the formula counts the positions the plan's blocks return; a
    # block budget of 8 cap bytes holds cap int64 positions
    monkeypatch.setattr(ff, "_BLOCK_BYTES", 8 * cap)
    blocks, taken = [], []

    def pairs(blk, c0):
        blocks.append((blk.ravel().tolist(), c0))
        taken.extend((a, b) for a in blk.ravel().tolist() for b in range(c0, nrows))
        return ((blk + np.arange(c0, nrows)) % size).ravel()

    got = setalg._walk_triangle("{done} of {want}", size, nrows, pairs)
    # the mask holds exactly the positions the blocks returned
    assert got.dtype == bool and len(got) == size
    assert np.flatnonzero(got).tolist() == sorted({(a + b) % size for a, b in taken})
    # contiguous blocks tile [0, nrows), each from its own first row, within
    # the cap unless it is one row
    assert [a for rows, _ in blocks for a in rows] == list(range(nrows))
    for rows, c0 in blocks:
        assert c0 == rows[0] and rows == list(range(c0, c0 + len(rows)))
        assert len(rows) == 1 or len(rows) * (nrows - c0) <= cap
    # every unordered pair, and no ordered pair twice
    assert len(set(taken)) == len(taken)
    assert {(min(a, b), max(a, b)) for a, b in taken} == {
        (a, b) for a in range(nrows) for b in range(a, nrows)}


def test_walk_blocks_keep_their_sizes():
    # the walks of the family keep their sizes: a grid axis of |V| = 81
    # rows at (3, 1) and 6 561 at (3, 2), and VV's |F| + 1 = 82, 122 and 626
    # rows at (3, 2), (11, 1) and (5, 2); up to 128 rows fit one block
    counts = [setalg._triangle_count(n) for n in (81, 82, 122, 626, 6561)]
    assert counts == [6561, 6724, 14884, 213020, 21558225]
    assert list(setalg._heights(626))[:5] == [26, 27, 28, 30, 31]
    assert len(list(setalg._heights(626))) == 14
    assert [(a, b) for _, a, b in setalg._orbit_plan(3, 7321)] == [(0, 5461), (5461, 7321)]


@pytest.mark.parametrize("pn", [(3, 6), (2, 11), (2039, 1), (3, 8)])
def test_bruteforce_with_fewer_points_than_threads(pn):
    fld = _small_field(*pn)
    rng = random.Random(f"few-{pn}")
    for npts in (1, 2):
        pts = [Point(fld.from_index(rng.randrange(fld.q)), fld.from_index(rng.randrange(fld.q)))
               for _ in range(npts)]
        got = [fqdist.distance_set_bruteforce(pts, threads=t) for t in (1, 2, 3)]
        assert got[0] == got[1] == got[2]
        assert got[0].sha256() == got[1].sha256() == got[2].sha256()
        assert set(np.flatnonzero(got[0].bits).tolist()) == oracles.scalar_distance_set(pts)
        if npts == 1:
            assert got[0] == ElemSet.from_indices(fld.q, [0])
