"""Reports, threshold arithmetic, ratio scans, census."""

import os
import platform
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fqdist
from fqdist import cli, construction, setalg, verify
from fqdist.errors import BudgetExceeded, ClaimViolation, InvalidInput, UnsupportedSize

import oracles


# --- threshold ----------------------------------------------------------------


def test_ir_threshold_boundaries_at_729():
    # 4 * 729^(3/2) = 78732 exactly
    assert not fqdist.ir_threshold(729, 78732)
    assert fqdist.ir_threshold(729, 78733)
    assert not fqdist.ir_threshold(729, 6561)


def test_ir_threshold_full_grid_rule():
    # |E| = q^2 exceeds 4*q^(3/2) exactly when q > 16
    for q in (2, 3, 5, 16):
        assert not fqdist.ir_threshold(q, q * q)
    for q in (17, 100, 729):
        assert fqdist.ir_threshold(q, q * q)


def test_ir_threshold_other_dimension():
    # d = 3: threshold is 4*q^2, exact in integers
    assert not fqdist.ir_threshold(9, 4 * 81, d=3)
    assert fqdist.ir_threshold(9, 4 * 81 + 1, d=3)


def test_ir_threshold_rejects_tiny_q():
    with pytest.raises(ValueError):
        fqdist.ir_threshold(1, 10)


# --- verification reports -------------------------------------------------------


def test_verify_p3_r1_report_fields():
    rep = fqdist.verify_counterexample(3, 1, oracle="auto")
    assert rep.q == 729
    assert rep.size_E == 6561
    assert rep.size_delta == rep.size_VV == 441
    assert rep.ratio == Fraction(441, 729) == Fraction(49, 81)
    assert rep.delta_equals_VV and rep.delta_ne_Fq
    assert rep.missing_distance == 28
    assert rep.oracle_mode == "bruteforce+structured"
    assert rep.ir_applicable is False
    assert rep.elapsed_seconds > 0


def test_verify_structured_only_mode():
    rep = fqdist.verify_counterexample(3, 1, oracle="structured")
    assert rep.oracle_mode == "structured-only"
    assert rep.size_delta == 441


def test_missing_distance_recheck_catches_a_cleared_distance(monkeypatch):
    # clear the true distance 1 = 1^2 - 0^2 in the one set verify expands,
    # after Δ and VV agreed: the witness becomes 1, and only the recheck can
    # object
    real_union = setalg.CosetNames.union

    def cleared(cn, mask):
        s = real_union(cn, mask)
        assert s.has(1) and s.complement_witness() == 28
        s.packed[0] &= ~np.uint8(1 << 1)
        return s

    monkeypatch.setattr(setalg.CosetNames, "union", cleared)
    with pytest.raises(ClaimViolation, match="#1 is a distance"):
        fqdist.verify_counterexample(3, 1, oracle="structured")


def _altered_vv_mask(monkeypatch, name_set: bool):
    """Make verify see VV's name mask with its first name that is name_set flipped.

    Δ's mask equals VV's, so a dropped name leaves Δ outside VV and an
    added one makes VV larger than Δ.
    """
    real = setalg._product_mask

    def altered(*args):
        mask = real(*args)
        mask[np.flatnonzero(mask == name_set)[0]] = not name_set
        return mask

    monkeypatch.setattr(setalg, "_product_mask", altered)


def test_verify_refuses_a_delta_outside_vv(monkeypatch, capsys):
    _altered_vv_mask(monkeypatch, True)
    with pytest.raises(ClaimViolation, match="not contained in VV"):
        fqdist.verify_counterexample(3, 1, oracle="structured")
    assert cli.main(["verify", "--p", "3", "--r", "1", "--oracle", "structured"]) == 1
    assert "not contained in VV" in capsys.readouterr().err


def test_verify_refuses_a_vv_larger_than_delta(monkeypatch):
    _altered_vv_mask(monkeypatch, False)
    with pytest.raises(ClaimViolation, match="differs from VV"):
        fqdist.verify_counterexample(3, 1, oracle="structured")


def test_verify_expands_one_set(monkeypatch):
    real_union = setalg.CosetNames.union
    calls = []

    def counted(cn, mask):
        calls.append(len(mask))
        return real_union(cn, mask)

    monkeypatch.setattr(setalg.CosetNames, "union", counted)
    rep = fqdist.verify_counterexample(3, 2, oracle="structured")
    assert calls == [2 * (81 * 81 + 81 + 1) + 1]
    assert rep.delta_set == rep.vv_set and rep.size_VV == rep.size_delta == 272241


def test_verify_auto_downgrades_when_bruteforce_oversized():
    # at p=7 the pair count over E is ~3.3e13, far beyond the default budget
    rep = fqdist.verify_counterexample(7, 1, oracle="auto")
    assert rep.oracle_mode == "structured-only"
    assert rep.q == 117649 and rep.delta_ne_Fq


def test_verify_unknown_oracle_mode():
    # InvalidInput is a ValueError
    for oracle in ("sampled", "x"):
        with pytest.raises(InvalidInput, match=f"unknown oracle mode '{oracle}'"):
            fqdist.verify_counterexample(3, 1, oracle=oracle)


def test_verify_auto_is_not_held_to_the_enumeration_budget(monkeypatch):
    # brute force builds no point of E, so only the |E|^2 ordered pairs
    # decide whether auto runs it
    monkeypatch.setattr(construction, "DEFAULT_ENUM_BUDGET", 100)
    rep = fqdist.verify_counterexample(3, 1)
    assert rep.oracle_mode == "bruteforce+structured"
    assert fqdist.verify_counterexample(3, 1, pair_budget=6561**2 - 1).oracle_mode == \
        "structured-only"


def test_verify_budget_exceeded_is_loud():
    with pytest.raises(BudgetExceeded):
        fqdist.verify_counterexample(3, 1, pair_budget=99)


def test_verify_oracle_both_requires_budget(monkeypatch):
    # refused before Δ, VV or any point of E is built
    def refuse(*args, **kwargs):
        raise AssertionError("a set was computed although brute force does not fit")

    monkeypatch.setattr(setalg, "CosetNames", refuse)
    monkeypatch.setattr(setalg, "_distance_mask", refuse)
    monkeypatch.setattr(setalg, "_product_mask", refuse)
    monkeypatch.setattr(construction, "enumerate_E", refuse)
    monkeypatch.setattr(construction, "E_indices", refuse)
    monkeypatch.setattr(setalg, "distance_set_of_indices", refuse)
    # structured fits but the forced brute-force pass does not
    with pytest.raises(BudgetExceeded, match="ordered distance pairs"):
        fqdist.verify_counterexample(3, 1, oracle="both", pair_budget=10**7)
    # 5 764 801 points, 3.3e13 ordered pairs against the default 10^9
    with pytest.raises(BudgetExceeded, match="ordered distance pairs: 33232930569601 "):
        fqdist.verify_counterexample(7, 1, oracle="both")


def test_report_json_schema():
    rep = fqdist.verify_counterexample(3, 1, oracle="structured")
    d = rep.to_json_dict()
    assert d["schema_version"] == 1
    assert d["ratio"] == {"num": 49, "den": 81, "decimal": "0.604938"}
    assert d["delta_set"]["count"] == 441
    assert d["delta_set"]["missing_witness"] == 28
    assert len(d["delta_set"]["sha256_of_bitset"]) == 64
    assert d["construction"]["basis"] == [1, 3]
    assert "elapsed_seconds" in d


def test_verify_both_builds_no_point(monkeypatch):
    # brute force runs on the two axes of the grid E, so no point of E is
    # built, neither as a Point nor as an entry of the index arrays
    def refuse(*args, **kwargs):
        raise AssertionError("verify built a point of E")

    point_list_calls = []
    point_list = setalg.distance_set_of_indices

    def record(field, xs, ys, *args, **kwargs):
        point_list_calls.append((xs, ys))
        return point_list(field, xs, ys, *args, **kwargs)

    monkeypatch.setattr(construction, "enumerate_E", refuse)
    monkeypatch.setattr(construction, "E_indices", refuse)
    monkeypatch.setattr(setalg, "distance_set_bruteforce", refuse)
    monkeypatch.setattr(setalg, "distance_set_of_indices", record)
    monkeypatch.setattr(setalg.Point, "__init__", refuse)
    rep = fqdist.verify_counterexample(3, 1, oracle="both")
    assert point_list_calls == []
    assert rep.oracle_mode == "bruteforce+structured"
    assert fqdist.report_digest(rep.to_json_dict()) == _FROZEN[0][-1]


@pytest.mark.parametrize("p, size_delta, missing", [(5, 8425, 128), (7, 61201, 393)])
def test_bruteforce_beyond_3_1_on_one_thread(monkeypatch, p, size_delta, missing):
    # brute force on E's axes agrees with the structured sets past (3, 1),
    # and every walk runs on the calling thread.
    # |Δ| = Q^2 + (Q-1)Q(Q+1)/2 for |F| = Q = p^2
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    rep = fqdist.verify_counterexample(p, 1, oracle="both", pair_budget=p**16)
    Q = p * p
    assert rep.oracle_mode == "bruteforce+structured"
    assert rep.size_delta == size_delta == Q * Q + (Q - 1) * Q * (Q + 1) // 2
    assert rep.missing_distance == missing


# Outputs frozen since the seed implementation: Δ = VV, so one bitset hash,
# size and missing element serve both sets, and the digest of the whole
# report, elapsed time excluded, pins every other field
_FROZEN = [
    (3, 1, "both", 441, 28,
     "6058111bb88ae2b5c11b41509335af0cf338cea8c29f4bf237f25d457dd0b293",
     "9c2dee57af3ae310927820ce64af76666c1a7365c02afa87838d2f726d23d721"),
    (3, 2, "structured", 272241, 36,
     "6f204ddfbba0caa6d4203884758ae3a623972182e07e9994853e8963ac078bdb",
     "e287b166bca2d7a0ab00182d81705b21d985d124cf78df52e3aa555ef2cf504c"),
    (11, 1, "structured", 900361, 1331,
     "54258d81af830e1504958b8792ad6b210870519bfe891b3afac97acb0f35a154",
     "f45503684fe0141e0150a3ef3492e20c9fe33cdb06c1131a586012ad599eedcd"),
]


@pytest.mark.parametrize("p, r, oracle, size, missing, sha, digest", _FROZEN,
                         ids=[f"{p}-{r}-{o}" for p, r, o, *_ in _FROZEN])
def test_frozen_outputs(p, r, oracle, size, missing, sha, digest):
    d = fqdist.verify_counterexample(p, r, oracle=oracle).to_json_dict()
    for key in ("delta_set", "vv_set"):
        assert d[key]["count"] == size
        assert d[key]["missing_witness"] == missing
        assert d[key]["sha256_of_bitset"] == sha
    assert d["missing_distance"] == missing
    assert fqdist.report_digest(d) == digest


def test_report_digest_ignores_elapsed():
    r1 = fqdist.verify_counterexample(3, 1, oracle="structured").to_json_dict()
    r2 = fqdist.verify_counterexample(3, 1, oracle="structured").to_json_dict()
    assert fqdist.report_digest(r1) == fqdist.report_digest(r2)


def test_dump_bits_adds_the_packed_set_and_nothing_else():
    # bits_hex is Δ's packed bytes, in both sets' records; everything else
    # is the report of a run without it
    dumped = fqdist.verify_counterexample(3, 1, oracle="both", dump_bits=True).to_json_dict()
    plain = fqdist.verify_counterexample(3, 1, oracle="both").to_json_dict()
    want = fqdist.distance_set_structured(fqdist.build_construction(3, 1)).packed.tobytes().hex()
    for key in ("delta_set", "vv_set"):
        assert dumped[key].pop("bits_hex") == want
        assert "bits_hex" not in plain[key]
    for d in (dumped, plain):
        del d["elapsed_seconds"]
    assert dumped == plain


_FAULTS = """
import resource
from fqdist.verify import verify_counterexample
for p, r in [(3, 2), (11, 1)]:
    faults = []
    for _ in range(4):
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        verify_counterexample(p, r, oracle="structured")
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
    print(p, r, *faults)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts page faults under glibc's malloc")
def test_warm_verify_calls_take_few_page_faults():
    # every block temporary fits ff._BLOCK_BYTES, far under the 1 MiB mmap
    # threshold that ff._tune_malloc sets, so from the third call on the
    # blocks reuse heap pages
    # (2^16-entry blocks took about 3 430 and 940 faults per warm call, and a
    # heap that glibc trims after every call took 224-282 at (3, 2))
    src = str(Path(fqdist.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _FAULTS], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = [list(map(int, line.split())) for line in done.stdout.splitlines()]
    assert [row[:2] for row in rows] == [[3, 2], [11, 1]]
    for p, r, *faults in rows:
        assert max(faults[2:]) < 100, (p, r, faults)


# --- ratio scan -----------------------------------------------------------------


def test_ratio_scan_single_row():
    rows = fqdist.ratio_scan(3, [1])
    assert len(rows) == 1
    row = rows[0]
    assert (row.r, row.q, row.size_E, row.size_delta) == (1, 729, 6561, 441)
    assert row.ratio == Fraction(49, 81) < 1
    assert row.delta_ne_Fq and row.error is None


def test_ratio_scan_failures_isolate():
    rows = fqdist.ratio_scan(7, [1, 2])  # 7^12 trips the size guard
    assert rows[0].error is None and rows[0].q == 117649
    assert rows[1].error is not None and rows[1].error_kind == "config"


def test_scan_csv_rendering():
    rows = fqdist.ratio_scan(3, [1])
    text = verify.scan_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "r,q,size_E,size_delta,size_VV,ratio_num,ratio_den,ratio_decimal,delta_ne_Fq"
    assert lines[1] == "1,729,6561,441,441,49,81,0.604938,true"


def test_scan_json_rendering():
    rows = fqdist.ratio_scan(3, [1])
    d = verify.scan_to_json_dict(3, rows)
    assert d["p"] == 3 and d["rows"][0]["ratio_num"] == 49


def test_delta_sizes_match_quadratic_factorization_count():
    # Independent counting oracle.  Writing V = F + F*w, products of nonzero
    # members are the coefficient triples of (aX+b)(cX+d) over F: every triple
    # with zero leading coefficient occurs, and one with a nonzero leading
    # coefficient occurs iff its discriminant is a square in F; over a fixed
    # (e, f) the discriminant runs over all of F as g does.  Hence
    # |VV| = |F|^2 + (|F|-1) * |F| * (|F|+1)/2.
    for (p, r), frozen in [((3, 1), 441), ((3, 2), 272241), ((7, 1), 61201), ((11, 1), 900361)]:
        m = p ** (2 * r)
        assert m * m + (m - 1) * m * (m + 1) // 2 == frozen


# --- census ---------------------------------------------------------------------


def test_census_q2_exact():
    res = fqdist.census(2)
    assert res.max_incomplete_size == 2
    assert oracles.distance_mask(res.witness_set, 2) != 0b11


def test_census_q3_matches_exhaustive_oracle():
    # independent full enumeration of all 512 subsets
    pts = [(a, b) for a in range(3) for b in range(3)]
    best = -1
    for mask in range(1 << 9):
        subset = [pts[i] for i in range(9) if mask >> i & 1]
        if oracles.distance_mask(subset, 3) != 0b111:
            best = max(best, len(subset))
    res = fqdist.census(3)
    assert res.max_incomplete_size == best == 3


def test_census_pruning_does_not_change_results():
    for q in (2, 3):
        on = fqdist.census(q, pruning=True)
        off = fqdist.census(q, pruning=False)
        assert on.max_incomplete_size == off.max_incomplete_size
        assert on.witness_set == off.witness_set
        assert off.subsets_visited == 2 ** (q * q)
        assert on.subsets_visited <= off.subsets_visited


def test_census_q5_pruned():
    res = fqdist.census(5)
    assert res.max_incomplete_size == 10  # regression-frozen
    assert len(res.witness_set) == 10
    mask = oracles.distance_mask(res.witness_set, 5)
    assert mask != 0b11111


def test_census_q5_against_clique_oracle():
    # independent route: a nonempty set missing distance d (necessarily d != 0)
    # is a clique in the graph whose edges avoid d
    nx = pytest.importorskip("networkx")
    pts = [(a, b) for a in range(5) for b in range(5)]
    best = 0
    for d in range(1, 5):
        g = nx.Graph()
        g.add_nodes_from(range(len(pts)))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                (a1, b1), (a2, b2) = pts[i], pts[j]
                if ((a1 - a2) ** 2 + (b1 - b2) ** 2) % 5 != d:
                    g.add_edge(i, j)
        best = max(best, max(len(c) for c in nx.find_cliques(g)))
    assert fqdist.census(5).max_incomplete_size == best == 10


def test_census_samples_cross_check():
    res = fqdist.census(3, pruning=False, sample_every=4, seed=2)
    assert res.samples
    pts = [(a, b) for a in range(3) for b in range(3)]
    for subset_ids, mask in res.samples:
        subset = [pts[i] for i in subset_ids]
        assert oracles.distance_mask(subset, 3) == mask


def test_census_unsupported_size():
    with pytest.raises(UnsupportedSize):
        fqdist.census(7)
    with pytest.raises(UnsupportedSize):
        fqdist.census(4)


def test_census_json():
    res = fqdist.census(2)
    d = res.to_json_dict()
    assert d["q"] == 2 and d["max_incomplete_size"] == 2
    assert d["witness_set"] == [[0, 0], [1, 1]]


def test_verify_squares_v_once(monkeypatch):
    # distance_set_structured and the missing-distance recheck share
    # V.squares, so one verification squares V once
    calls = []
    square_indices = setalg.square_indices

    def counting(V):
        calls.append(V)
        return square_indices(V)

    monkeypatch.setattr(setalg, "square_indices", counting)
    for oracle in ("structured", "both"):
        calls.clear()
        assert fqdist.verify_counterexample(3, 1, oracle=oracle).missing_distance == 28
        assert len(calls) == 1
