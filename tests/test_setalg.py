"""Bitsets, bulk index tables, distance sets, product sets."""

import dataclasses
import functools
import os
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fqdist
from fqdist import setalg
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
    assert "bits_hex" in s.to_json(include_bits=True)
    full = ElemSet.full_set(6)
    assert "missing_witness" not in full.to_json()
    s2 = ElemSet.from_indices(6, [0, 4])
    assert s2.sha256() == s.sha256()
    s2.add_array(np.array([1]))
    assert s2.sha256() != s.sha256()


# --- bulk tables vs scalar arithmetic ----------------------------------------


def test_tables_match_scalar_ops(gf9, gf729):
    # GF(2), GF(4) and GF(16) have characteristic 2; GF(4099) is a one-digit
    # field above the pair-table bound
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


def test_pair_tables_match_index_arithmetic(gf729):
    # the tables are sums of two half tables over the low h = n//2 and high
    # n - h digits, so every one of the q^2 pairs is checked: at GF(2039)
    # h = 0 and the high half is the whole table, GF(11^3) has odd n, and
    # GF(2^11) is the largest order on the table route
    for fld in (_small_field(2039, 1), _small_field(11, 3), _small_field(2, 11), gf729):
        q, p, n = fld.q, fld.p, fld.n
        subq, sub = setalg.get_tables(fld).pair_tables()
        assert (subq.dtype, sub.dtype) == (np.int32, np.uint16)
        assert subq.shape == sub.shape == (q * q,)
        idx = np.arange(q)
        for a in range(0, q, 256):
            rows = slice(a * q, min(a + 256, q) * q)
            diff = setalg.sub_indices(idx[a : a + 256, None], idx[None, :], p, n).ravel()
            assert np.array_equal(sub[rows], diff)
            assert np.array_equal(subq[rows], q * diff)


@pytest.mark.parametrize("p, n", [(3, 6), (2, 11)])
def test_pair_tables_fit_the_memory_bound(p, n):
    fld = fqdist.ExtField(p, n)
    q = fld.q
    tabs = setalg.get_tables(fld)
    subq, sub = tabs.pair_tables()
    assert sum(a.nbytes for a in (subq, sub)) <= 6 * q * q
    # at q = 2048, the largest order on the table route, the narrow types
    # still hold every value: sub up to q - 1 and subq up to q*(q - 1)
    assert int(sub.max()) == q - 1 and int(subq.max()) == q * (q - 1)
    assert np.array_equal(subq, q * sub.astype(np.int64))
    idx = np.arange(q)
    for a in (0, 1, q - 1):
        row = slice(a * q, (a + 1) * q)
        assert np.array_equal(sub[row], setalg.sub_indices(a, idx, p, n))


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
    cn = setalg.coset_names(sub)
    Q, step = cn.Q, cn.step
    assert Q == p**2 and step == Q * Q + Q + 1 == (fld.q - 1) // (Q - 1)
    names = cn.names
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
    # coords() and name() of arbitrary indices agree with the expansion
    idx = np.array(rng.sample(range(fld.q), 500))
    assert (cn.name(*cn.coords(idx)) == names[idx]).all()
    # the kept names are no reason to accept a subfield of the wrong degree
    with pytest.raises(WrongSubfieldDegree):
        setalg.coset_names(fqdist.locate_subfield(fld, 1))
    assert fld._cosets is cn and setalg.coset_names(sub) is cn


# odd m with p = 3, 7, 13 and 3^9 take the non-residue rule, the rest m even
# or p = 2; 11^6 is the benchmark's field
@pytest.mark.parametrize("pn", [(3, 3), (7, 3), (13, 3), (3, 9), (3, 6), (5, 6), (7, 6),
                                (11, 6), (2, 6)], ids=lambda pn: f"{pn[0]}^{pn[1]}")
def test_coset_names_name_every_element_directly(pn):
    # CosetNames names a 1/(p-1) share of the rows and copies the rest by
    # scaling with Z_p*; the direct naming of every index must agree
    fld = _small_field(*pn)
    cn = setalg.coset_names(fqdist.locate_subfield(fld, fld.n // 3))
    assert len(cn.names) == fld.q
    for a in range(0, fld.q, 2**18):
        idx = np.arange(a, min(a + 2**18, fld.q))
        assert np.array_equal(cn.names[idx], cn.name(*cn.coords(idx)))


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
        setalg.coset_names(sub)
    assert fld._cosets is None


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


def test_structured_path_builds_no_field_tables(monkeypatch):
    c = fqdist.build_construction(3, 1)
    fqdist.distance_set_structured(c)
    fqdist.product_set(c.V)
    assert c.field._tables is None and c.field._cosets is not None

    def refuse(field):
        raise AssertionError("FieldTables built on the structured path")

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
    with pytest.raises(ValueError):
        fqdist.distance_set_bruteforce([])


def test_bruteforce_matches_scalar_oracle(gf9, gf729):
    rng = random.Random(99)
    # GF(3^8) has q = 6561 > _PAIR_TABLE_MAX_Q, so it adds base-p digits
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
    # part of F_q.  At 600 points a block is 109 rows, so the rows of every
    # thread count below span two or more blocks, the last one partial.
    # GF(2039) is the largest prime field on the table route, GF(2053) the
    # smallest above it.
    fld = _small_field(*pn)
    assert (fld.q <= setalg._PAIR_TABLE_MAX_Q) == (fld.q != 2053)
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


def test_bruteforce_rejects_mixed_fields(gf9):
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
    # refused before any table is built
    assert f1._tables is None and f2._tables is None and gf27._tables is None
    # equal fields that are distinct objects are accepted, as distance() does
    f3 = fqdist.ExtField(3, 2, modulus=(1, 0, 1))
    got = fqdist.distance_set_bruteforce([Point(f1.one, f1.root), Point(f3.zero, f3.one)])
    assert got.count == 2


def test_index_entry_refuses_bad_arrays_before_any_table():
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
    assert fld._tables is None
    # an empty set has an empty distance set; unsigned and narrow arrays are indices too
    assert setalg.distance_set_of_indices(fld, three[:0], three[:0]) == ElemSet(q)
    got = setalg.distance_set_of_indices(fld, np.array([0, q - 1], np.uint16),
                                         np.array([5, 0], np.int32))
    assert got == setalg.distance_set_of_indices(fld, [0, q - 1], [5, 0])


def test_index_entry_matches_the_point_entry_on_E(c31):
    xs, ys = fqdist.E_indices(c31)
    want = fqdist.distance_set_bruteforce(fqdist.enumerate_E(c31))
    assert want == fqdist.distance_set_structured(c31)
    for t in (1, 2, 3):
        got = fqdist.distance_set_of_indices(c31.field, xs, ys, threads=t)
        assert got == want and got.sha256() == want.sha256()


@pytest.mark.parametrize("pn", [(3, 6), (3, 8)])
def test_index_entry_matches_the_point_entry_on_random_points(pn):
    # GF(3^6) is on the table route, GF(3^8) above it
    fld = _small_field(*pn)
    rng = np.random.default_rng(sum(pn))
    xs, ys = rng.integers(0, fld.q, size=(2, 400))
    pts = [Point(fld.from_index(x), fld.from_index(y)) for x, y in zip(xs.tolist(), ys.tolist())]
    want = fqdist.distance_set_bruteforce(pts)
    for t in (1, 2, 3):
        got = fqdist.distance_set_of_indices(fld, xs, ys, threads=t)
        assert got == want and got.sha256() == want.sha256()
    few = pts[:50]
    got = fqdist.distance_set_of_indices(fld, xs[:50], ys[:50])
    assert set(np.flatnonzero(got.bits).tolist()) == oracles.scalar_distance_set(few)


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
        fqdist.product_set(c.V, budget=100)


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
    cn = setalg.coset_names(c.subF)
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


@pytest.mark.parametrize("pr", [(3, 1), (3, 2)])
def test_structured_refuses_columns_that_start_one_coset_late(monkeypatch, pr):
    # at (3, 1) one block holds every coset; at (3, 2) 82 cosets take 5 blocks.
    # VV's representatives are walked the same way and must be refused too
    c = _construction(*pr)
    blocks = setalg._blocks

    def one_coset_late(rows, block):
        for blk, c0 in blocks(rows, block):
            yield blk, c0 + 1

    monkeypatch.setattr(setalg, "_blocks", one_coset_late)
    with pytest.raises(AssertionError, match="differences"):
        fqdist.distance_set_structured(c)
    with pytest.raises(AssertionError, match="products"):
        fqdist.product_set(c.V)


def test_structured_requires_minus_one_in_h():
    # GF(3^3) over GF(3): -1 is not a square in F, so the triangle is unsound
    c = types.SimpleNamespace(subF=fqdist.locate_subfield(fqdist.ExtField(3, 3), 1))
    with pytest.raises(AssertionError, match="-1 is not a square"):
        fqdist.distance_set_structured(c)


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


def test_row_chunks_bounded_by_rows():
    cpus = len(os.sched_getaffinity(0))
    # only the chunker runs here, so the huge thread count starts no thread
    for nrows, threads in ((5, 64), (10**4, 10**6)):
        chunks = setalg._row_chunks(nrows, threads)
        assert len(chunks) == min(nrows, cpus) and all(len(ch) for ch in chunks)
        assert sorted(np.concatenate(chunks).tolist()) == list(range(nrows))
    assert len(setalg._row_chunks(10, 1)) == 1
    assert setalg._row_chunks(0, 4) == []

    def pairs(blk, c0):
        raise AssertionError("pairs called without rows")

    assert setalg._walk_triangle("{done} of {want}", 7, 0, 1, 4, pairs) == ElemSet(7)


def _skip_counts(threads):
    # 40 points fit one block per chunk: one chunk of rows 0..39 from column
    # 0, or rows 0, 2, .., 38 from column 0 and 1, 3, .., 39 from column 1.
    # The counts are those of the whole pass, of one without row 0, of one
    # whose columns start one late, and of one without the last chunk
    return {1: (1600, 1521, 1560, 0), 2: (1580, 1502, 1540, 800)}[
        min(threads, len(os.sched_getaffinity(0)))]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("pn", [(3, 2), (3, 8)])
def test_bruteforce_refuses_a_pass_that_skips_a_row(monkeypatch, pn, threads):
    # the distance is symmetric, so the set of a pass that skips one row
    # can still be right; only the count of evaluated pairs shows the gap.
    # GF(3^8) is above _PAIR_TABLE_MAX_Q, so both routes are covered.  Δ
    # and VV share the walk, and must refuse the same skips
    fld = _small_field(*pn)
    rng = random.Random(f"{pn}")
    pts = [Point(fld.from_index(rng.randrange(fld.q)), fld.from_index(rng.randrange(fld.q)))
           for _ in range(40)]
    c = _construction(3, 1)
    row_chunks = setalg._row_chunks
    want, got, _, got_chunk = _skip_counts(threads)

    def drop_one_row(nrows, threads):
        chunks = row_chunks(nrows, threads)
        chunks[0] = chunks[0][1:]
        return chunks

    def drop_last_chunk(nrows, threads):
        return row_chunks(nrows, threads)[:-1]

    for skip, taken in ((drop_one_row, got), (drop_last_chunk, got_chunk)):
        monkeypatch.setattr(setalg, "_row_chunks", skip)
        with pytest.raises(AssertionError, match=f"evaluated {taken} of {want} pairs"):
            fqdist.distance_set_bruteforce(pts, threads=threads)
        with pytest.raises(AssertionError, match="differences"):
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
    blocks = setalg._blocks
    want, _, got, _ = _skip_counts(threads)

    def one_column_late(rows, block):
        for blk, c0 in blocks(rows, block):
            yield blk, c0 + 1

    monkeypatch.setattr(setalg, "_blocks", one_column_late)
    with pytest.raises(AssertionError, match=f"evaluated {got} of {want} pairs"):
        fqdist.distance_set_bruteforce(pts, threads=threads)


@pytest.mark.parametrize("nrows", [1, 2, 5, 40, 301])
@pytest.mark.parametrize("chunks", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 9, 1638])
def test_triangle_pairs_counts_the_blocks(nrows, chunks, block):
    chunks = min(chunks, nrows)
    rows = [np.arange(w, nrows, chunks) for w in range(chunks)]
    taken = [(int(a), b) for ch in rows for blk, c0 in setalg._blocks(ch, block)
             for a in blk.ravel() for b in range(c0, nrows)]
    assert setalg._triangle_pairs(nrows, chunks, block) == len(taken)
    # every unordered pair, and no pair twice
    assert len(set(taken)) == len(taken)
    assert {(min(a, b), max(a, b)) for a, b in taken} == {
        (a, b) for a in range(nrows) for b in range(a, nrows)}


# --- the vector-to-norm pass ----------------------------------------------------


@pytest.mark.parametrize("pn", [(2, 11), (2039, 1)])
def test_vector_norms_of_all_vectors_cover_the_field(pn):
    fld = _small_field(*pn)
    tabs = setalg.get_tables(fld)
    assert setalg._vector_norms(ElemSet.full_set(fld.q**2), tabs) == ElemSet.full_set(fld.q)


@pytest.mark.parametrize("pn", [(3, 6), (2, 11), (2039, 1), (7, 3)])
def test_vector_norms_match_scalar_norms(pn):
    fld = _small_field(*pn)
    q = fld.q
    tabs = setalg.get_tables(fld)
    rng = random.Random(f"norms-{pn}")
    # a sparse set with both ends of [0, q^2) and both ends of a 2^16 block
    picks = {0, q * q - 1, setalg._CACHE_BLOCK - 1, setalg._CACHE_BLOCK}
    picks |= set(rng.sample(range(q * q), 300))
    vectors = ElemSet.from_indices(q * q, picks)
    want = set()
    for v in picks:
        dx, dy = fld.from_index(v // q), fld.from_index(v % q)
        want.add((dx * dx + dy * dy).index)
    got = setalg._vector_norms(vectors, tabs)
    assert set(np.flatnonzero(got.bits).tolist()) == want
    assert setalg._vector_norms(ElemSet(q * q), tabs) == ElemSet(q)


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
