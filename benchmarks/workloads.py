"""The benchmark's fixed workloads and the outputs each op must reproduce.

A workload names the CLI invocation one op makes, how many ops one fresh
process runs, and the values its outputs must match.  Every expected value
was recorded from the seed implementation and must never move: set sizes,
missing elements, oracle modes and the Δ/VV bitset sha256.  ``report_digest`` is deliberately not compared, because new report
fields legitimately change it.

This module imports nothing from fqdist, so the parent process can read it
without paying the package's import cost.
"""

from __future__ import annotations

_SHA_3_1 = "6058111bb88ae2b5c11b41509335af0cf338cea8c29f4bf237f25d457dd0b293"
_SHA_3_2 = "6f204ddfbba0caa6d4203884758ae3a623972182e07e9994853e8963ac078bdb"
_SHA_11_1 = "54258d81af830e1504958b8792ad6b210870519bfe891b3afac97acb0f35a154"


def _verify_call(p, r, oracle, threads, q, size_e, size_delta, missing, mode, sha):
    """One verify_counterexample call an op makes, and what it must return."""
    return {
        "p": p, "r": r, "oracle": oracle, "threads": threads,
        "q": q, "size_E": size_e, "size_delta": size_delta, "size_VV": size_delta,
        "missing_distance": missing, "oracle_mode": mode, "sha256": sha,
    }


# One op is one cli.main call; "calls" lists the verify_counterexample calls
# it makes, in order.
WORKLOADS = {
    "structured-11": {
        "why": "Single-thread baseline for the structured-Δ and VV pair loops "
               "at q = 11^6, where they take about 92% of the op.",
        "kind": "verify",
        "argv": ["verify", "--p", "11", "--r", "1", "--oracle", "structured",
                 "--threads", "1"],
        "threads": 1,
        "ops_per_process": 4,
        "calls": [_verify_call(11, 1, "structured", 1, 1771561, 214358881, 900361, 1331,
                               "structured-only", _SHA_11_1)],
    },
    "bruteforce-3": {
        "why": "The q <= 2048 pair-table path, Point materialization and the "
               "2-thread pool over 4.3e7 ordered pairs; structured Δ and VV are <3%.",
        "kind": "verify",
        "argv": ["verify", "--p", "3", "--r", "1", "--oracle", "both", "--threads", "2"],
        "threads": 2,
        "ops_per_process": 8,
        "calls": [_verify_call(3, 1, "both", 2, 729, 6561, 441, 28,
                               "bruteforce+structured", _SHA_3_1)],
    },
    "scan-3": {
        "why": "The same setalg kernels at n = 12 digit planes, where the "
               "FieldTables build is about 20% of the op, plus the ratio_scan/CSV path.",
        "kind": "scan",
        "argv": ["scan", "--p", "3", "--r", "1,2", "--format", "csv"],
        "threads": 1,
        "ops_per_process": 3,
        "calls": [
            _verify_call(3, 1, "structured", 1, 729, 6561, 441, 28,
                         "structured-only", _SHA_3_1),
            _verify_call(3, 2, "structured", 1, 531441, 43046721, 272241, 36,
                         "structured-only", _SHA_3_2),
        ],
    },
}
