"""Claim verification: reports, ratio scans, threshold bookkeeping, census.

Every report that says the distance set misses part of F_q carries a
concrete missing element, and nothing is asserted from counts alone.  The
element is rechecked without the bitset that produced it: Δ(E) = S - S
for the squares S of V, so z is a non-distance exactly when S + z and S
are disjoint, which digit addition on the sorted squares and a binary
search decide.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import construction as cx
from . import setalg
from .errors import BudgetExceeded, ClaimViolation, UnsupportedSize

SCHEMA_VERSION = 1


def ir_threshold(q: int, size_e: int, d: int = 2) -> bool:
    """Exact-integer test of size_e > 4 * q^((d+1)/2).

    Compares size_e^2 against 16 * q^(d+1) so no roots are taken and
    boundary cases come out exactly.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    return size_e * size_e > 16 * q ** (d + 1)


def _ratio_decimal(fr: Fraction) -> str:
    return f"{fr.numerator / fr.denominator:.6f}"


@dataclass
class VerificationReport:
    """Everything measured about one (p, r) instance."""

    p: int
    r: int
    q: int
    size_E: int
    size_delta: int
    size_VV: int
    ratio: Fraction
    delta_equals_VV: bool
    delta_ne_Fq: bool
    missing_distance: int | None
    oracle_mode: str  # "bruteforce+structured" or "structured-only"
    ir_applicable: bool
    elapsed_seconds: float
    construction: dict
    delta_set: dict
    vv_set: dict

    def to_json_dict(self) -> dict:
        ratio = {"num": self.ratio.numerator, "den": self.ratio.denominator,
                 "decimal": _ratio_decimal(self.ratio)}
        return {**asdict(self), "schema_version": SCHEMA_VERSION, "ratio": ratio}


def report_digest(report_dict: dict) -> str:
    """sha256 of the canonical report JSON, elapsed time excluded."""
    import hashlib
    import json

    d = dict(report_dict)
    d.pop("elapsed_seconds", None)
    blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _misses_square_differences(c, z: int) -> bool:
    """Whether z is outside S - S for S = {v^2 : v in V}, with no bitset.

    z = s - t for some s, t in S exactly when t + z lies in S, so z is
    missed exactly when S + z and S are disjoint.
    """
    p, n = c.field.p, c.field.n
    squares = c.V.squares
    shifted = setalg.add_indices(squares, z, p, n)
    pos = np.minimum(np.searchsorted(squares, shifted), len(squares) - 1)
    return not bool(np.any(squares[pos] == shifted))


def verify_counterexample(
    p: int,
    r: int,
    basis="auto",
    oracle: str = "auto",
    pair_budget: int = setalg.DEFAULT_PAIR_BUDGET,
    threads: int = 1,
    dump_bits: bool = False,
) -> VerificationReport:
    """Build the (p, r) point set and check every claim about it.

    Asserts the full identity chain: the structured distance set is
    contained in VV, equals VV for odd q, equals the brute-force distance
    set whenever that oracle runs, and misses a rechecked concrete element
    of F_q.  Raises ClaimViolation if anything fails.

    Brute force runs on the index arrays of E (construction.E_indices),
    with no Point built, and takes each unordered pair of its |E| points
    once, about |E|^2/2 pairs, but its budget is still checked on the |E|^2
    ordered pairs.  "auto" runs it when those fit pair_budget and the
    points fit construction.DEFAULT_ENUM_BUDGET; "both" raises
    BudgetExceeded when they do not fit.  Either is decided before any set
    is computed.
    """
    if oracle not in ("auto", "both", "structured"):
        raise ValueError(f"unknown oracle mode {oracle!r}")
    t0 = time.perf_counter()
    c = cx.build_construction(p, r, basis)
    q = c.q
    size_e = c.size_E
    if size_e != p ** (8 * r):
        raise ClaimViolation(f"|E| = {size_e} differs from p^(8r)")
    pairs = size_e * size_e
    if oracle == "both" and pairs > pair_budget:
        raise BudgetExceeded("ordered distance pairs", pairs, pair_budget)
    run_bruteforce = oracle == "both" or (
        oracle == "auto" and pairs <= pair_budget and size_e <= cx.DEFAULT_ENUM_BUDGET
    )

    nv = len(c.V.indices)
    if nv * nv > pair_budget:
        raise BudgetExceeded("subspace pairs", nv * nv, pair_budget)
    delta = setalg.distance_set_structured(c)
    vv = setalg.product_set(c.V, budget=pair_budget)
    if not delta.issubset(vv):
        raise ClaimViolation("structured distance set is not contained in VV")
    delta_equals_vv = delta == vv
    if q % 2 == 1 and not delta_equals_vv:
        raise ClaimViolation("distance set differs from VV although q is odd")

    if run_bruteforce:
        xs, ys = cx.E_indices(c)
        brute = setalg.distance_set_of_indices(c.field, xs, ys, budget=pair_budget,
                                               threads=threads)
        if brute != delta:
            raise ClaimViolation("brute-force distance set disagrees with structured path")

    missing = delta.complement_witness()
    if missing is None:
        raise ClaimViolation("distance set covers all of F_q")
    if not _misses_square_differences(c, missing):
        raise ClaimViolation(f"missing-distance recheck failed: #{missing} is a distance")
    ir = ir_threshold(q, size_e)
    if ir:
        raise ClaimViolation("constructed set sits above the completeness threshold")

    elapsed = time.perf_counter() - t0
    return VerificationReport(
        p=p,
        r=r,
        q=q,
        size_E=size_e,
        size_delta=delta.count,
        size_VV=vv.count,
        ratio=Fraction(delta.count, q),
        delta_equals_VV=delta_equals_vv,
        delta_ne_Fq=True,
        missing_distance=missing,
        oracle_mode="bruteforce+structured" if run_bruteforce else "structured-only",
        ir_applicable=ir,
        elapsed_seconds=elapsed,
        construction=c.to_json(),
        delta_set=delta.to_json(include_bits=dump_bits),
        vv_set=vv.to_json(include_bits=dump_bits),
    )


# ---------------------------------------------------------------------------
# ratio scan

SCAN_COLUMNS = ("r", "q", "size_E", "size_delta", "size_VV",
                "ratio_num", "ratio_den", "ratio_decimal", "delta_ne_Fq")
SCAN_CSV_HEADER = ",".join(SCAN_COLUMNS)


@dataclass
class ScanRow:
    r: int
    q: int | None = None
    size_E: int | None = None
    size_delta: int | None = None
    size_VV: int | None = None
    ratio: Fraction | None = None
    delta_ne_Fq: bool | None = None
    error: str | None = None
    error_kind: str | None = None  # "claim" or "config"

    def to_json_dict(self) -> dict:
        if self.error is not None:
            return {"r": self.r, "error": self.error, "error_kind": self.error_kind}
        ratio = self.ratio
        values = (self.r, self.q, self.size_E, self.size_delta, self.size_VV,
                  ratio.numerator, ratio.denominator, _ratio_decimal(ratio), self.delta_ne_Fq)
        return dict(zip(SCAN_COLUMNS, values, strict=True))

    def to_csv_line(self) -> str:
        if self.error is not None:
            return ",".join([str(self.r)] + [""] * (len(SCAN_COLUMNS) - 1))
        # the one bool renders as true/false; every other cell is digits
        return ",".join(str(v).lower() for v in self.to_json_dict().values())


def ratio_scan(
    p: int,
    r_list,
    basis="auto",
    pair_budget: int = setalg.DEFAULT_PAIR_BUDGET,
) -> list[ScanRow]:
    """One verified row per r, via the structured oracle; failures isolate.

    Each row records the exact rational |distance set| / q.  The only
    asserted bound is ratio < 1 (a missing element exists); the drift of
    the ratio itself is data, not an assertion.
    """
    from .errors import FqdistError

    rows = []
    for r in r_list:
        try:
            rep = verify_counterexample(p, r, basis=basis, oracle="structured",
                                        pair_budget=pair_budget)
            rows.append(
                ScanRow(
                    r=r,
                    q=rep.q,
                    size_E=rep.size_E,
                    size_delta=rep.size_delta,
                    size_VV=rep.size_VV,
                    ratio=rep.ratio,
                    delta_ne_Fq=rep.delta_ne_Fq,
                )
            )
        except ClaimViolation as e:
            rows.append(ScanRow(r=r, error=str(e), error_kind="claim"))
        except FqdistError as e:
            rows.append(ScanRow(r=r, error=str(e), error_kind="config"))
    return rows


def scan_to_csv(rows) -> str:
    lines = [SCAN_CSV_HEADER]
    lines.extend(row.to_csv_line() for row in rows)
    return "\n".join(lines) + "\n"


def scan_to_json_dict(p: int, rows) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "rows": [row.to_json_dict() for row in rows],
    }


# ---------------------------------------------------------------------------
# exhaustive tiny-q census


@dataclass
class CensusResult:
    """Largest subset of F_q^2 whose distance set misses part of F_q."""

    q: int
    max_incomplete_size: int
    witness_set: list
    subsets_visited: int
    pruning: bool
    samples: list = dc_field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "q": self.q,
            "pruning": self.pruning,
            "max_incomplete_size": self.max_incomplete_size,
            "witness_set": [[a, b] for (a, b) in self.witness_set],
            "subsets_visited": self.subsets_visited,
        }


def _grid_distance_masks(q: int):
    pts = [(a, b) for a in range(q) for b in range(q)]
    masks = [
        [1 << (((a1 - a2) ** 2 + (b1 - b2) ** 2) % q) for (a2, b2) in pts]
        for (a1, b1) in pts
    ]
    return pts, masks


def census(q: int, pruning: bool = True, sample_every: int = 0, seed: int = 0) -> CensusResult:
    """Exact maximum |E| with an incomplete distance set, by subset DFS.

    Monotonicity makes the pruning sound: a subset whose distance set is
    already all of F_q cannot be fixed by adding points, and branches that
    cannot beat the best size are skipped.  With pruning off the walk
    degenerates to full enumeration; either way the maximum, the witness,
    and the incremental distance masks are identical where both run.

    subsets_visited counts completed subsets (DFS leaves).  When
    sample_every > 0 a seeded random sample of the visited subsets is
    retained with its incrementally built distance mask, so callers can
    cross-check the DFS bookkeeping against direct computation.
    """
    if q not in (2, 3, 5):
        raise UnsupportedSize(q)
    pts, masks = _grid_distance_masks(q)
    npts = q * q
    full = (1 << q) - 1
    rng = random.Random(seed)

    best_size = -1
    best: tuple = ()
    visited = 0
    samples: list = []
    chosen: list = []

    def dfs(t: int, delta: int) -> None:
        nonlocal best_size, best, visited
        if t == npts:
            visited += 1
            if sample_every and rng.randrange(sample_every) == 0:
                samples.append((tuple(chosen), delta))
            if delta != full and len(chosen) > best_size:
                best_size = len(chosen)
                best = tuple(chosen)
            return
        if pruning and len(chosen) + (npts - t) <= best_size:
            return
        row = masks[t]
        d2 = delta | 1
        for s in chosen:
            d2 |= row[s]
        if not pruning or d2 != full:
            chosen.append(t)
            dfs(t + 1, d2)
            chosen.pop()
        dfs(t + 1, delta)

    dfs(0, 0)

    witness = [pts[i] for i in best]
    recheck = {
        ((a1 - a2) ** 2 + (b1 - b2) ** 2) % q
        for (a1, b1) in witness
        for (a2, b2) in witness
    }
    if len(witness) != best_size or len(recheck) >= q:
        raise ClaimViolation("census witness recheck failed")
    return CensusResult(
        q=q,
        max_incomplete_size=best_size,
        witness_set=witness,
        subsets_visited=visited,
        pruning=pruning,
        samples=samples,
    )
