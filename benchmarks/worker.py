"""One fresh benchmark process: import fqdist from the checkout and run ops.

    python3 benchmarks/worker.py --workload NAME --mode MODE --ops K
        --seconds S --spawn-ns T

MODE is ``probe`` (set up and run nothing), ``ops`` (run K untraced ops) or
``trace`` (one warm-up op, then an untraced reference op and its traced
replay, repeated until S seconds are used, at least once).  The last stdout
line is a JSON object.

Set-up time runs from T, the parent's CLOCK_MONOTONIC reading taken just
before it started this process, to the start of the first op.
CLOCK_MONOTONIC is one clock for every process of a Linux host.

Nothing calls gc.collect() between ops: objects kept alive only by
reference cycles (each ExtField and its generator) stay until cyclic GC
runs, as they do for a library caller, and show in the peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MB = 2**20


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_mb() -> float:
    """Current resident set size (Linux)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / MB


class Package:
    """The fqdist modules, imported from ./src of the checkout."""

    def __init__(self):
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        import numpy
        import fqdist
        from fqdist import cli, construction, ff, setalg, verify

        if Path(fqdist.__file__).resolve().parent != src / "fqdist":
            raise SystemExit(f"fqdist was imported from {fqdist.__file__}, not from {src}")
        self.np, self.cli, self.cx, self.ff, self.setalg, self.verify = (
            numpy, cli, construction, ff, setalg, verify)


class EntryTimer:
    """Pass-through replacement for a public function: times and keeps each call.

    The output checks read the kept results; the time it adds is two clock
    reads per call.
    """

    def __init__(self, module, name: str):
        self.orig = getattr(module, name)
        self.results = []
        self.seconds = 0.0
        setattr(module, name, self)

    def reset(self):
        self.results = []
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self.orig(*args, **kwargs)
        self.seconds += time.perf_counter() - t0
        self.results.append(out)
        return out


# ---------------------------------------------------------------------------
# untraced ops and their output checks


class Runner:
    """Runs one workload's ops in this process and checks their outputs."""

    def __init__(self, pkg: Package, name: str):
        self.pkg = pkg
        self.wl = WORKLOADS[name]
        self.verify_timer = EntryTimer(pkg.verify, "verify_counterexample")

    def op(self) -> dict:
        """One untraced op: a cli.main call, its wall time and its outputs."""
        self.verify_timer.reset()
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(list(self.wl["argv"]))
        seconds = time.perf_counter() - t0
        return {"seconds": seconds, "verify_s": self.verify_timer.seconds, "code": code,
                "stdout": buf.getvalue(), "reports": self.verify_timer.results}

    def check(self, out: dict) -> list[str]:
        errs = [f"exit code {out['code']}"] if out["code"] != 0 else []
        calls = self.wl["calls"]
        reports = out["reports"]
        if len(reports) != len(calls):
            return errs + [f"{len(reports)} verify calls, expected {len(calls)}"]
        for rep, want in zip(reports, calls):
            for key in ("p", "r", "q", "size_E", "size_delta", "size_VV",
                        "missing_distance", "oracle_mode"):
                if getattr(rep, key) != want[key]:
                    errs.append(f"({want['p']},{want['r']}) {key} = {getattr(rep, key)!r}, "
                                f"expected {want[key]!r}")
            for key in ("delta_set", "vv_set"):
                if getattr(rep, key)["sha256_of_bitset"] != want["sha256"]:
                    errs.append(f"({want['p']},{want['r']}) {key} sha256 differs")
            if not (rep.delta_equals_VV and rep.delta_ne_Fq):
                errs.append(f"({want['p']},{want['r']}) claim flags not both true")
        if self.wl["kind"] == "scan":
            rows = list(csv.DictReader(io.StringIO(out["stdout"])))
            if len(rows) != len(calls):
                errs.append(f"scan printed {len(rows)} rows, expected {len(calls)}")
            for row, want in zip(rows, calls):
                got = {k: row.get(k) for k in ("r", "q", "size_E", "size_delta", "size_VV")}
                exp = {k: str(want[k]) for k in got}
                if got != exp or row.get("delta_ne_Fq") != "true":
                    errs.append(f"scan row {row} differs from {exp}")
        return errs

    def certified_pairs(self) -> int:
        """Ordered point pairs whose distances one op certifies: Σ |E|^2."""
        return sum(c["size_E"] ** 2 for c in self.wl["calls"])


def run_ops(runner: Runner, k: int, spawn_ns: int) -> dict:
    ops = []
    setup_s = (now_ns() - spawn_ns) / 1e9
    for _ in range(k):
        try:
            out = runner.op()
            errs = runner.check(out)
            ops.append({"seconds": out["seconds"], "errors": errs})
            del out
        except Exception:  # noqa: BLE001 -- a failed op is counted, the run goes on
            ops.append({"seconds": None, "errors": [traceback.format_exc(limit=4)]})
    return {"setup_s": setup_s, "ops": ops, "peak_rss_mb": peak_rss_mb(),
            "certified_pairs_per_op": runner.certified_pairs()}


# ---------------------------------------------------------------------------
# traced replay


class Tracer:
    """Spans kept in memory: name, op id, parent, start, end, RSS after, counts."""

    def __init__(self):
        self.spans = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        counts = {}
        t0 = time.perf_counter()
        try:
            yield counts
        finally:
            t1 = time.perf_counter()
            self.spans.append({"name": name, "op": self.op, "parent": f"op{self.op}",
                               "start": t0, "end": t1, "rss_mb": rss_mb(), "counts": counts})


def table_bytes(tabs) -> int:
    """Computed bytes of a FieldTables: the sum of its numpy arrays' sizes."""
    names = getattr(type(tabs), "__slots__", None) or vars(tabs)
    return sum(getattr(getattr(tabs, n, None), "nbytes", 0) for n in names)


def replay_verify(pkg, tr: Tracer, call: dict) -> dict:
    """The calls verify_counterexample makes, one span each.

    Pair counts follow the loop shapes of the set paths: structured Δ visits
    every ordered pair of distinct squares of V, VV every unordered pair of
    nonzero elements of V (with itself), brute force every ordered pair of
    points.  They are computed outside the spans.
    """
    np, ff, setalg, cx, verify = pkg.np, pkg.ff, pkg.setalg, pkg.cx, pkg.verify
    p, r, threads = call["p"], call["r"], call["threads"]
    # build_construction(p, r); ExtField is given the modulus found in the
    # span before it, so its span re-checks irreducibility once where the
    # untraced call does not
    with tr.span("ff.find_irreducible"):
        modulus = ff.find_irreducible(p, 6 * r)
    with tr.span("ff.field_init"):
        field = ff.ExtField(p, 6 * r, modulus=modulus)
    with tr.span("ff.sqrt_minus_one"):
        i = ff.sqrt_minus_one(field)
    with tr.span("ff.locate_subfield"):
        subF = ff.locate_subfield(field, 2 * r)
    with tr.span("construction.build_subspace") as counts:
        V = cx.build_subspace(field, subF)
    counts["elems"] = len(V.elements)
    c = cx.Construction(p=p, r=r, field=field, subF=subF, i=i, V=V)
    with tr.span("setalg.get_tables") as counts:
        tabs = setalg.get_tables(field)
    counts["bytes"] = table_bytes(tabs)
    with tr.span("setalg.distance_set_structured") as counts:
        delta = setalg.distance_set_structured(c, threads=threads)
    vidx = np.fromiter((e.index for e in V.elements), dtype=np.int64, count=len(V.elements))
    counts["pairs"] = len(np.unique(tabs.sq[vidx])) ** 2
    counts["found"] = delta.count
    with tr.span("setalg.product_set") as counts:
        vv = setalg.product_set(V, threads=threads)
    nonzero = int(np.count_nonzero(vidx))
    counts["pairs"] = nonzero * (nonzero + 1) // 2
    counts["found"] = vv.count
    with tr.span("setalg.elemset_checks"):
        ok = delta.issubset(vv) and delta == vv
    if call["oracle"] == "both":
        if c.q <= getattr(setalg, "_PAIR_TABLE_MAX_Q", -1):
            with tr.span("setalg.pair_tables") as counts:
                pair = tabs.pair_tables()
            counts["bytes"] = sum(a.nbytes for a in pair)
        with tr.span("construction.enumerate_E") as counts:
            points = cx.enumerate_E(c)
        counts["points"] = len(points)
        with tr.span("setalg.distance_set_bruteforce") as counts:
            brute = setalg.distance_set_bruteforce(points, threads=threads)
        counts["pairs"] = len(points) ** 2
        counts["found"] = brute.count
        with tr.span("setalg.elemset_checks"):
            ok = ok and brute == delta
    with tr.span("setalg.elemset_checks"):
        missing = delta.complement_witness()
        ok = ok and missing is not None and not delta.has(missing)
    with tr.span("verify.report"):
        ok = ok and not verify.ir_threshold(c.q, c.size_E)
        c.to_json()
        delta_json = delta.to_json()
        vv_json = vv.to_json()
    return {"ok": ok, "size_delta": delta_json["count"], "size_VV": vv_json["count"],
            "missing_distance": missing, "delta_sha": delta_json["sha256_of_bitset"],
            "vv_sha": vv_json["sha256_of_bitset"]}


def trace_cycle(runner: Runner, tr: Tracer) -> dict:
    """An untraced reference op, then its traced replay; both are checked."""
    ref = runner.op()
    errs = runner.check(ref)
    ref_shas = [(r.delta_set["sha256_of_bitset"], r.vv_set["sha256_of_bitset"])
                for r in ref["reports"]]
    ref_op_s, ref_verify_s = ref["seconds"], ref["verify_s"]
    del ref

    tr.op += 1
    first = len(tr.spans)
    t0 = time.perf_counter()
    for j, call in enumerate(runner.wl["calls"]):
        got = replay_verify(runner.pkg, tr, call)
        want = (call["size_delta"], call["size_VV"], call["missing_distance"])
        if not got["ok"] or (got["size_delta"], got["size_VV"], got["missing_distance"]) != want:
            errs.append(f"traced ({call['p']},{call['r']}) sizes or claims differ")
        if j >= len(ref_shas) or (got["delta_sha"], got["vv_sha"]) != ref_shas[j]:
            errs.append(f"traced ({call['p']},{call['r']}) bitset sha256 differs "
                        f"from the untraced op")
    t1 = time.perf_counter()
    spans = tr.spans[first:]
    tr.spans.append({"name": "op", "op": tr.op, "parent": None, "start": t0, "end": t1,
                     "rss_mb": rss_mb(), "counts": {}})

    spans_s = sum(s["end"] - s["start"] for s in spans)
    layers = {}
    for s in spans:
        agg = layers.setdefault(s["name"], {"s": 0.0, "rss_mb": 0.0, "counts": {}})
        agg["s"] += s["end"] - s["start"]
        agg["rss_mb"] = max(agg["rss_mb"], s["rss_mb"])
        for key, v in s["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + v
    return {
        "errors": errs,
        "layers": layers,
        "cli_overhead_s": ref_op_s - ref_verify_s,
        "glue_s": ref_verify_s - spans_s,
        "trace_overhead_s": (t1 - t0) - ref_verify_s,
    }


def run_trace(runner: Runner, seconds: float) -> dict:
    tr = Tracer()
    t_begin = time.perf_counter()
    # one warm-up op, so that neither side of the first cycle pays for the
    # process's first large allocations
    warm_errors = runner.check(runner.op())
    cycles = [{"errors": warm_errors}] if warm_errors else []
    while True:
        t0 = time.perf_counter()
        try:
            cycles.append(trace_cycle(runner, tr))
        except Exception:  # noqa: BLE001 -- a failed op is counted, the run goes on
            cycles.append({"errors": [traceback.format_exc(limit=4)]})
        last = time.perf_counter() - t0
        if time.perf_counter() - t_begin + 0.5 * last > seconds:
            break
    return {"cycles": cycles, "spans": tr.spans, "peak_rss_mb": peak_rss_mb()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("probe", "ops", "trace"))
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawn-ns", type=int, required=True)
    args = ap.parse_args(argv)

    pkg = Package()
    runner = Runner(pkg, args.workload)
    if args.mode == "probe":
        result = {"setup_s": (now_ns() - args.spawn_ns) / 1e9}
    elif args.mode == "ops":
        result = run_ops(runner, args.ops, args.spawn_ns)
    else:
        result = run_trace(runner, args.seconds)
    result["numpy"] = pkg.np.__version__
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
