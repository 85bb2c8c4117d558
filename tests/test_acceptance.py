"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is exact equality; nothing here is sampled or approximate.
"""

import json
import random
from fractions import Fraction

import pytest

import fqdist
from fqdist import cli, ff
from fqdist.construction import Construction

import oracles

FROZEN_DELTA_SIZES = {(3, 1): 441, (3, 2): 272241, (7, 1): 61201, (11, 1): 900361}
FROZEN_MISSING = {(3, 1): 28, (3, 2): 36, (7, 1): 393, (11, 1): 1331}


@pytest.fixture(scope="module")
def report31():
    return fqdist.verify_counterexample(3, 1, oracle="both")


@pytest.fixture(scope="module")
def scaling_reports():
    return {
        (p, r): fqdist.verify_counterexample(p, r, oracle="structured")
        for (p, r) in [(3, 2), (7, 1), (11, 1)]
    }


def test_criterion_1_counterexample_at_q729(report31):
    rep = report31
    assert rep.q == 729 and rep.size_E == 6561
    assert rep.size_E**3 == rep.q**4  # |E| = q^(4/3) as an exact integer identity

    # recompute all three set paths and compare bit-for-bit
    c = Construction.from_json(rep.construction)
    delta_structured = fqdist.distance_set_structured(c)
    vv = fqdist.product_set(c.V)
    points = fqdist.enumerate_E(c)
    assert len(points) == 6561
    delta_brute = fqdist.distance_set_bruteforce(points)  # ~4.3e7 ordered pairs
    assert delta_brute == delta_structured
    assert delta_structured == vv

    # a concrete missing distance, rechecked against the final bitset
    missing = rep.missing_distance
    assert missing is not None
    assert not delta_brute.has(missing)
    assert delta_brute.count == FROZEN_DELTA_SIZES[(3, 1)] < 729
    assert rep.oracle_mode == "bruteforce+structured"
    print(
        f"\n[criterion 1] PASS  q=729 |E|=6561=q^(4/3); brute-force == structured == VV "
        f"(|set|={delta_brute.count}); missing distance #{missing}"
    )


def test_criterion_2_scaling_family(scaling_reports):
    lines = []
    for (p, r), rep in scaling_reports.items():
        assert rep.delta_ne_Fq, f"(p={p}, r={r}) claims a complete distance set"
        assert rep.missing_distance is not None
        assert rep.size_delta == FROZEN_DELTA_SIZES[(p, r)]
        assert rep.missing_distance == FROZEN_MISSING[(p, r)]
        assert rep.size_E == p ** (8 * r) and rep.size_E**3 == rep.q**4
        lines.append(f"(p={p}, r={r}): |Δ|={rep.size_delta}, missing #{rep.missing_distance}")
    print("\n[criterion 2] PASS  " + "; ".join(lines))


def test_criterion_3_ratio_trend():
    rows = fqdist.ratio_scan(3, [1, 2])
    assert [row.r for row in rows] == [1, 2]
    for row in rows:
        assert row.error is None
        assert row.ratio == Fraction(row.size_delta, row.q)
        assert row.ratio < 1  # the asserted bound; the 1/2 limit is recorded only
        assert row.delta_ne_Fq
    assert rows[0].ratio == Fraction(441, 729)
    assert rows[1].ratio == Fraction(272241, 531441)
    drift = [f"r={row.r}: |Δ|/q = {float(row.ratio):.6f}" for row in rows]
    print(
        "\n[criterion 3] PASS  exact rationals, ratio < 1 per row; "
        "recorded approach toward 1/2: " + ", ".join(drift)
    )


def test_criterion_4_threshold_and_census(report31, scaling_reports):
    # (a) exact-integer boundary behavior around 4*q^(3/2) = 78732 at q=729
    assert not fqdist.ir_threshold(729, 78731)
    assert not fqdist.ir_threshold(729, 78732)
    assert fqdist.ir_threshold(729, 78733)

    # (b) every constructed set sits below the threshold
    for rep in [report31, *scaling_reports.values()]:
        assert rep.ir_applicable is False

    # (c) exhaustive census at tiny q
    res3 = fqdist.census(3, pruning=True)
    res3_off = fqdist.census(3, pruning=False)
    assert res3.max_incomplete_size == res3_off.max_incomplete_size == 3
    assert res3.witness_set == res3_off.witness_set
    assert res3_off.subsets_visited == 512
    res2 = fqdist.census(2, pruning=True)
    res2_off = fqdist.census(2, pruning=False)
    assert res2.max_incomplete_size == res2_off.max_incomplete_size == 2
    assert res2.witness_set == res2_off.witness_set

    res5 = fqdist.census(5, pruning=True, sample_every=1, seed=0)
    assert res5.max_incomplete_size == 10
    assert oracles.distance_mask(res5.witness_set, 5) != 0b11111
    assert res5.samples  # sampled cross-checks of the DFS bookkeeping
    pts = [(a, b) for a in range(5) for b in range(5)]
    for subset_ids, mask in res5.samples:
        subset = [pts[i] for i in subset_ids]
        assert oracles.distance_mask(subset, 5) == mask
    print(
        "\n[criterion 4] PASS  threshold exact at 78732/78733; all constructions below it; "
        f"census max sizes q=2:{res2.max_incomplete_size} q=3:{res3.max_incomplete_size} "
        f"q=5:{res5.max_incomplete_size} ({len(res5.samples)} sampled subsets cross-checked)"
    )


def test_criterion_5_algebra_property_suites(c31):
    rng = random.Random(20250101)
    fields = [
        fqdist.make_prime_field(3),
        fqdist.make_prime_field(7),
        fqdist.ExtField(3, 2),
        c31.field,
    ]
    triples = 10000
    for fld in fields:
        zero, one = fld.zero, fld.one
        for _ in range(triples):
            a = fld.from_index(rng.randrange(fld.q))
            b = fld.from_index(rng.randrange(fld.q))
            c = fld.from_index(rng.randrange(fld.q))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero == a and a * one == a
            assert a + (-a) == zero
            if a:
                assert a * a.inv() == one

    # subfield = Frobenius fixed set, exhaustive at q = 729
    gf729 = c31.field
    for m in (1, 2, 3, 6):
        members = {e.index for e in ff.locate_subfield(gf729, m).elements}
        for e in gf729.elements():
            assert (ff.frobenius(e, m) == e) == (e.index in members)

    # i^2 = -1
    assert c31.i * c31.i == -gf729.one

    # subspace closure and F-scaling invariance
    members = {e.index for e in c31.V.elements}
    for a in c31.V.elements:
        assert (-a).index in members
        for b in c31.V.elements:
            assert (a + b).index in members
    for c in c31.subF.elements:
        if c:
            assert {(c * v).index for v in c31.V.elements} == members

    # distance-set translation invariance and monotonicity on random sets
    gf9 = fields[2]
    grid9 = oracles.grid_points(gf9)
    for _ in range(25):
        pts = rng.sample(grid9, rng.randrange(2, 10))
        tx = gf9.from_index(rng.randrange(9))
        ty = gf9.from_index(rng.randrange(9))
        shifted = [fqdist.Point(p.x + tx, p.y + ty) for p in pts]
        assert fqdist.distance_set_bruteforce(pts) == fqdist.distance_set_bruteforce(shifted)
        sub = rng.sample(pts, rng.randrange(1, len(pts)))
        assert fqdist.distance_set_bruteforce(sub).issubset(fqdist.distance_set_bruteforce(pts))

    # |(cV)(cV)| = |VV|
    vv_count = fqdist.product_set(c31.V).count
    e1, e2 = c31.V.basis
    for c in c31.subF.elements:
        if c:
            scaled = fqdist.build_subspace(c31.field, c31.subF, ((c * e1).index, (c * e2).index))
            assert fqdist.product_set(scaled).count == vv_count

    print(
        f"\n[criterion 5] PASS  axioms on {triples} triples across {len(fields)} fields; "
        "Frobenius subfields exhaustive at q=729; subspace closure, scaling, "
        "translation invariance, monotonicity, |(cV)(cV)|=|VV| all exact"
    )


def test_criterion_6_determinism(tmp_path):
    args = ["verify", "--p", "3", "--r", "1", "--oracle", "structured"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    da = json.loads(out_a.read_text())
    db = json.loads(out_b.read_text())
    da_stripped = {k: v for k, v in da.items() if k != "elapsed_seconds"}
    db_stripped = {k: v for k, v in db.items() if k != "elapsed_seconds"}
    assert json.dumps(da_stripped, sort_keys=True) == json.dumps(db_stripped, sort_keys=True)
    assert fqdist.report_digest(da) == fqdist.report_digest(db)

    # the serialized construction replays to the identical bitset hashes
    c = Construction.from_json(da["construction"])
    delta = fqdist.distance_set_structured(c)
    vv = fqdist.product_set(c.V)
    assert delta.sha256() == da["delta_set"]["sha256_of_bitset"]
    assert vv.sha256() == da["vv_set"]["sha256_of_bitset"]
    print(
        "\n[criterion 6] PASS  byte-identical reports (elapsed excluded); "
        f"replayed bitset hash {delta.sha256()[:16]}… matches"
    )
