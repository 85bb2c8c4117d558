"""The package API that the benchmark's traced replay (benchmarks/worker.py) calls.

The replay reaches past the CLI into get_tables, FieldTables.sq, the
threads= keywords of distance_set_structured, product_set and
distance_set_bruteforce, enumerate_E and Subspace.elements, so a change
under them must keep every workload's recorded outputs.  Its setalg.pair_tables
span runs only if setalg defines _PAIR_TABLE_MAX_Q, which it does not, so
that layer is reported as not run.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        yield importlib.import_module("worker")


def test_traced_replay_reproduces_every_workload(worker):
    pkg = worker.Package()
    for name, wl in worker.WORKLOADS.items():
        for call in wl["calls"]:
            tracer = worker.Tracer()
            got = worker.replay_verify(pkg, tracer, call)
            where = f"{name} ({call['p']},{call['r']})"
            assert got["ok"], where
            assert (got["size_delta"], got["size_VV"], got["missing_distance"]) == (
                call["size_delta"], call["size_VV"], call["missing_distance"]), where
            assert got["delta_sha"] == got["vv_sha"] == call["sha256"], where
            assert tracer.spans, where
