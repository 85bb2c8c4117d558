"""Subspace and construction assembly."""

import gc

import numpy as np
import pytest

import fqdist
from fqdist.construction import Construction
from fqdist.errors import (
    BudgetExceeded,
    DependentBasis,
    InvalidInput,
    NoSqrtMinusOne,
    NotPrime,
    SizeGuard,
    WrongSubfieldDegree,
)

import oracles


def test_subspace_sizes(c31):
    assert c31.subF.order == 9
    assert len(c31.V.elements) == 81
    assert len({e.index for e in c31.V.elements}) == 81
    idx = c31.V.indices
    assert idx.tolist() == [e.index for e in c31.V.elements]
    assert idx.tolist() == sorted(idx.tolist())
    assert not idx.flags.writeable
    e1, e2 = c31.V.basis
    F = c31.subF.elements
    assert set(idx.tolist()) == {(a * e1 + b * e2).index for a in F for b in F}


@pytest.mark.parametrize("p, n, basis", [(3, 6, "auto"), (11, 6, "auto"), (3, 12, "auto"),
                                         (3, 6, (5, 17)), (11, 6, (77, 15000)),
                                         (3, 12, (12345, 999))])
def test_subspace_matches_scalar_span(p, n, basis):
    f = fqdist.ExtField(p, n)
    V = fqdist.build_subspace(f, fqdist.locate_subfield(f, n // 3), basis)
    F = [f.from_index(i) for i in oracles.scalar_subfield(f, n // 3)]
    assert V.indices.tolist() == oracles.scalar_span(F, *V.basis)


def test_subspace_closed_under_add_and_neg(c31):
    members = {e.index for e in c31.V.elements}
    for a in c31.V.elements:
        assert (-a).index in members
        for b in c31.V.elements:
            assert (a + b).index in members


def test_subspace_scaling_invariance(c31):
    members = {e.index for e in c31.V.elements}
    for c in c31.subF.elements:
        if not c:
            continue
        assert {(c * v).index for v in c31.V.elements} == members


def test_dependent_basis_rejected(c31):
    # e2 = c*e1 with c in F is proportional, hence dependent
    e1 = c31.field.one
    c = c31.subF.elements[5]
    with pytest.raises(DependentBasis):
        fqdist.build_subspace(c31.field, c31.subF, (e1.index, c.index))


def test_wrong_subfield_degree(gf729):
    sub3 = fqdist.locate_subfield(gf729, 3)
    with pytest.raises(WrongSubfieldDegree):
        fqdist.build_subspace(gf729, sub3)


def test_build_construction_p3_r1(c31):
    assert c31.q == 729
    assert c31.subF.order == 9
    assert len(c31.V.elements) == 81
    assert c31.size_E == 6561
    assert c31.size_E == 3**8
    assert c31.size_E**3 == c31.q**4  # |E| = q^(4/3) exactly
    assert c31.i * c31.i == -c31.field.one


def test_build_construction_p3_r2_sizes():
    c = fqdist.build_construction(3, 2)
    assert c.q == 531441
    assert len(c.V.elements) == 6561
    assert c.size_E == 43046721 == 6561**2
    assert c.size_E**3 == c.q**4


def test_build_construction_rejects_char2():
    with pytest.raises(NoSqrtMinusOne):
        fqdist.build_construction(2, 1)


def test_build_construction_rejects_composite():
    with pytest.raises(NotPrime):
        fqdist.build_construction(9, 1)
    with pytest.raises(NotPrime):
        fqdist.build_construction(100, 1)  # 100^6 > 2^31, but p is checked first


def test_build_construction_size_guard():
    with pytest.raises(SizeGuard):
        fqdist.build_construction(7, 2)  # 7^12 > 2^31
    # refused before trial division of p or computing the power
    with pytest.raises(SizeGuard, match=r"^field order 2305843009213693951\^6 exceeds"):
        fqdist.build_construction(2**61 - 1, 1)
    with pytest.raises(SizeGuard, match=r"^field order 3\^60000000 exceeds"):
        fqdist.build_construction(3, 10**7)
    with pytest.raises(ValueError):
        fqdist.build_construction(3, 0)


def test_enumerate_points(c31):
    pts = fqdist.enumerate_E(c31)
    assert len(pts) == 6561
    assert len({(p.x.index, p.y.index) for p in pts}) == 6561
    zero = c31.field.zero
    assert any(p.x == zero and p.y == zero for p in pts)
    v_members = {e.index for e in c31.V.elements}
    iv_members = {(c31.i * e).index for e in c31.V.elements}
    for p in pts[:200]:
        assert p.x.index in v_members
        assert p.y.index in iv_members


def test_enumerate_order_is_deterministic(c31):
    pts = fqdist.enumerate_E(c31)
    keys = [(p.x.index, p.y.index) for p in pts]
    # outer loop over u ascending, inner over v ascending (mapped through i)
    xs = [k[0] for k in keys]
    assert xs == sorted(xs)
    n = len(c31.V.elements)
    first_block = keys[:n]
    assert all(k[0] == first_block[0][0] for k in first_block)


def test_enumerate_budget(c31):
    with pytest.raises(BudgetExceeded):
        fqdist.enumerate_E(c31, budget=100)


def test_E_indices_match_the_points(c31):
    xs, ys = fqdist.E_indices(c31)
    assert xs.dtype == ys.dtype == np.int64 and len(xs) == len(ys) == c31.size_E
    pairs = list(zip(xs.tolist(), ys.tolist()))
    assert pairs == [(pt.x.index, pt.y.index) for pt in fqdist.enumerate_E(c31)]
    # (u, i*v) over the scalar elements of V, u in the outer loop
    V = c31.V.elements
    assert pairs == [(u.index, (c31.i * v).index) for u in V for v in V]
    with pytest.raises(BudgetExceeded, match="E points"):
        fqdist.E_indices(c31, budget=6560)


def test_point_set_symmetric_under_negation(c31):
    pts = fqdist.enumerate_E(c31)
    keys = {(p.x.index, p.y.index) for p in pts}
    for p in list(pts)[:300]:
        assert ((-p.x).index, (-p.y).index) in keys
    # with (0,0) in E, 0 is always a realized distance
    delta = fqdist.distance_set_structured(c31)
    assert delta.has(0)


def test_construction_json_round_trip(c31):
    rec = c31.to_json()
    assert rec == {
        "p": 3,
        "r": 1,
        "field": {"p": 3, "n": 6, "modulus": [2, 1, 0, 0, 0, 0, 1], "generator_index": 3},
        "subfield_m": 2,
        "i_index": 129,
        "basis": [1, 3],
    }
    back = Construction.from_json(rec)
    assert back.to_json() == rec
    assert [e.index for e in back.V.elements] == [e.index for e in c31.V.elements]


def test_construction_json_rejects_bad_i(c31):
    rec = c31.to_json()
    rec = dict(rec, i_index=1)
    with pytest.raises(ValueError):
        Construction.from_json(rec)


def test_corrupted_construction_records_raise_invalid_input(c31):
    rec = c31.to_json()
    field = rec["field"]
    bad = [
        dict(rec, p=5),  # field of characteristic 3
        dict(rec, r=2),  # field of degree 6, not 12
        dict(rec, subfield_m=3),
        dict(rec, i_index=1),  # 1 * 1 != -1
        dict(rec, i_index=729),  # out of range
        dict(rec, field=dict(field, modulus=[1, 0, 0, 0, 0, 0, 1])),  # x^6 + 1 = (x^2 + 1)^3
        dict(rec, field=dict(field, modulus=[2, 1, 1])),  # degree 2, not 6
        dict(rec, field=dict(field, generator_index=1)),  # 1 has order 1
        dict(rec, field=dict(field, n=3)),  # a degree-6 modulus
        dict(rec, basis=[1, 2, 3]),  # not a pair
        dict(rec, basis=[1, 2.5]),  # not an index
    ]
    for d in bad:
        with pytest.raises(InvalidInput):
            Construction.from_json(d)
    with pytest.raises(InvalidInput):
        fqdist.verify_counterexample(3, 1, basis=(1, 2, 3))
    with pytest.raises(DependentBasis):
        Construction.from_json(dict(rec, basis=[1, 2]))  # 2 = -1 lies in F


def test_rebuild_is_deterministic():
    a = fqdist.build_construction(3, 1)
    b = fqdist.build_construction(3, 1)
    assert a.to_json() == b.to_json()


def test_explicit_basis_round_trip(c31):
    v2 = fqdist.build_subspace(c31.field, c31.subF, (5, 11))
    assert len(v2.elements) == 81
    assert v2.basis[0].index == 5 and v2.basis[1].index == 11


def test_dropped_construction_is_freed_by_refcount():
    was_enabled, old_debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.garbage.clear()
        c = fqdist.build_construction(3, 1)
        fqdist.distance_set_structured(c)
        fqdist.product_set(c.V)
        del c
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, fqdist.ExtField)]
        assert leaked == []
    finally:
        gc.set_debug(old_debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
