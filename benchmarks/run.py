"""fqdist benchmark: time to a verified report on fixed workloads.

    python3 benchmarks/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --write-spec

Run it from the root of a source checkout; the package is imported from
./src.  The workloads (workloads.py) are canonical instances, so --seed
changes no input; it is recorded with the results.  A run starts fresh
worker processes (worker.py) one after another, never two at once.  Each
op is one cli.main call, in a closed loop of one client: an op starts when
the previous one has ended.

--trace 0 starts SETUP_PROBES processes that only import the package and
prepare their inputs (half before, half after the ops), and processes that
each run the workload's fixed number of ops, until the next one would end
more than half a process past S seconds.  It prints every end-to-end metric:

  op_s_p50               median wall seconds of one op
  op_s_tail              the highest percentile with at least 10 op samples
                         beyond it; with 20 samples or fewer, the slowest op
  certified_pairs_per_s  Σ|E|^2 over the ops / their summed wall time: ordered
                         point pairs whose distances were certified, a count
                         fixed by the instance, not by the algorithm
  peak_rss_mb            median over the op processes of their ru_maxrss;
                         every process runs the same number of ops
  setup_s                median over all processes of the time from process
                         start to the first op (interpreter start and imports)

--trace 1 starts one process that runs a warm-up op, then alternates an
untraced reference op with a traced replay of it: the public layer calls
verify_counterexample makes, each inside a span.  It prints every per-layer
metric; a layer the workload does not run reports 0.

Every op's outputs are checked against values recorded from the seed
implementation (workloads.py).  In traced runs the replay must reproduce
the reference op's bitset sha256, and every work count (pairs, points,
elems, bytes) must equal that of every earlier traced run of the same code.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Exit status: 0 when every op passed its checks, 1 when
one failed, 2 when the checkout has no fqdist source.  Context, extra
figures and spans go to .bench_out/BENCH_<workload>_trace<t>_seed<n>.json.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"

RUN_SECONDS = 30
SETUP_PROBES = 6
# a run must end within 180 s; one worker never gets more than this
WORKER_TIMEOUT_S = 150

END_TO_END = (
    # name, unit, better, bound
    ("op_s_p50", "s", "lower", 0.25),
    ("op_s_tail", "s", "lower", 0.25),
    ("certified_pairs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

PAIR_LOOPS = ("setalg.distance_set_structured", "setalg.product_set",
              "setalg.distance_set_bruteforce")
# span name -> the work counts it reports
SPANS = (
    ("ff.find_irreducible", ()),
    ("ff.field_init", ()),
    ("ff.sqrt_minus_one", ()),
    ("ff.locate_subfield", ()),
    ("construction.build_subspace", ("elems",)),
    ("construction.enumerate_E", ("points",)),
    ("setalg.get_tables", ("bytes",)),
    ("setalg.pair_tables", ("bytes",)),
    ("setalg.distance_set_structured", ("pairs",)),
    ("setalg.product_set", ("pairs",)),
    ("setalg.distance_set_bruteforce", ("pairs",)),
    ("setalg.elemset_checks", ()),
    ("verify.report", ()),
)
COUNT_UNITS = {"elems": "count", "points": "count", "pairs": "count", "bytes": "bytes"}
# per-op differences of untraced and traced timings, from trace_cycle
DERIVED = (
    ("verify.glue_s", "glue_s"),
    ("cli.overhead_s", "cli_overhead_s"),
    ("trace.overhead_s", "trace_overhead_s"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for span, counts in SPANS:
        out.append((f"{span}.s", "s", "lower"))
        out += [(f"{span}.{c}", COUNT_UNITS[c], "lower") for c in counts]
        if span in PAIR_LOOPS:
            out += [(f"{span}.pairs_per_s", "1/s", "higher"), (f"{span}.yield", "ratio", "higher")]
        out.append((f"{span}.rss_mb", "MB", "lower"))
    out += [(name, "s", "lower") for name, _ in DERIVED]
    return out


def spec() -> dict:
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_metrics()],
    }


# ---------------------------------------------------------------------------
# worker processes


def spawn(workload: str, mode: str, ops: int = 0, seconds: float = 0.0) -> dict:
    """Start one worker, wait for it, and return its JSON result.

    A worker that fails, times out (it is then killed and reaped) or prints
    no result returns {"error": ...}.
    """
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--mode", mode,
           "--ops", str(ops), "--seconds", str(seconds), "--spawn-ns", str(spawn_ns)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s", "wall_s": WORKER_TIMEOUT_S}
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "wall_s": wall}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"worker printed no result: {lines[-1][:200]}", "wall_s": wall}
    result["wall_s"] = wall
    return result


def tail(samples):
    """The highest percentile with >= 10 samples beyond it, and the maximum
    when that percentile would not lie above the median (20 samples or fewer)."""
    xs = sorted(samples)
    n = len(xs)
    if n > 20:
        return xs[n - 11], f"p{100 * (n - 10) // n} of {n} ops"
    return xs[-1], f"max of {n} ops"


def run_untraced(name: str, seconds: float) -> dict:
    k = WORKLOADS[name]["ops_per_process"]
    # probes before and after the op processes, so set-up is sampled across the run
    probes = [spawn(name, "probe") for _ in range(SETUP_PROBES // 2)]
    workers = []
    t_begin = time.perf_counter()
    while True:
        w = spawn(name, "ops", ops=k)
        workers.append(w)
        elapsed = time.perf_counter() - t_begin
        if elapsed + 0.5 * w["wall_s"] > seconds or "error" in w:
            break
    probes += [spawn(name, "probe") for _ in range(SETUP_PROBES - len(probes))]

    errors = [p["error"] for p in probes + workers if "error" in p]
    attempted = k * len(workers)
    failed = sum(k for w in workers if "error" in w)
    samples = []
    for w in workers:
        for op in w.get("ops", []):
            if op["errors"]:
                failed += 1
                errors += op["errors"]
            else:
                samples.append(op["seconds"])
    setups = [p["setup_s"] for p in probes + workers if "setup_s" in p]
    rss = [w["peak_rss_mb"] for w in workers if "peak_rss_mb" in w]
    info = {"op_samples": len(samples), "setup_samples": len(setups),
            "ops_per_process": k, "processes": len(workers),
            "peak_rss_mb_per_process": rss, "fail_ratio": failed / attempted}
    metrics = {}
    if samples and setups and rss:
        tail_s, info["op_s_tail_is"] = tail(samples)
        metrics = {
            "op_s_p50": statistics.median(samples),
            "op_s_tail": tail_s,
            "certified_pairs_per_s":
                workers[0]["certified_pairs_per_op"] * len(samples) / sum(samples),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setups),
        }
    return {"metrics": metrics, "units": {n: u for n, u, _, _ in END_TO_END}, "info": info,
            "attempted": attempted, "failed": failed, "errors": errors,
            "numpy": next((w["numpy"] for w in workers if "numpy" in w), None)}


def run_traced(name: str, seconds: float) -> dict:
    w = spawn(name, "trace", seconds=seconds)
    if "error" in w:
        return {"metrics": {}, "units": {}, "info": {}, "attempted": 1, "failed": 1,
                "errors": [w["error"]], "numpy": None}
    cycles = w["cycles"]
    errors = [e for c in cycles for e in c["errors"]]
    good = [c for c in cycles if not c["errors"]]
    attempted, failed = len(cycles), len(cycles) - len(good)

    counts = {}
    for c in good:
        op_counts = {f"{span}.{key}": v for span, agg in c["layers"].items()
                     for key, v in agg["counts"].items()}
        if counts and op_counts != counts:
            errors.append(f"work counts differ between ops: {op_counts} != {counts}")
            failed += 1
        counts = counts or op_counts

    def per_op(span, key):
        return [c["layers"].get(span, {}).get(key, 0.0) for c in good] or [0.0]

    metrics = {}
    for span, count_keys in SPANS:
        secs = statistics.median(per_op(span, "s"))
        metrics[f"{span}.s"] = secs
        for key in count_keys:
            metrics[f"{span}.{key}"] = counts.get(f"{span}.{key}", 0)
        if span in PAIR_LOOPS:
            pairs = counts.get(f"{span}.pairs", 0)
            metrics[f"{span}.pairs_per_s"] = pairs / secs if secs else 0.0
            metrics[f"{span}.yield"] = counts.get(f"{span}.found", 0) / pairs if pairs else 0.0
        metrics[f"{span}.rss_mb"] = max(per_op(span, "rss_mb"))
    for metric, key in DERIVED:
        metrics[metric] = statistics.median([c[key] for c in good] or [0.0])
    info = {"traced_ops": len(good), "bytes_are": "computed from numpy array sizes",
            "layers_not_run": sorted({s for s, _ in SPANS} - {s for c in good for s in c["layers"]}),
            "peak_rss_mb": w["peak_rss_mb"]}
    return {"metrics": metrics, "units": {n: u for n, u, _ in per_layer_metrics()},
            "info": info, "attempted": attempted, "failed": failed, "errors": errors,
            "numpy": w["numpy"], "spans": w["spans"]}


# ---------------------------------------------------------------------------
# bookkeeping


def source_sha256() -> str:
    """One hash over the package and benchmark sources: identifies "the same code"."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "fqdist").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_counts(name: str, code_hash: str, metrics: dict, units: dict) -> list[str]:
    """Compare the work counts with every earlier traced run of the same code."""
    counts = {k: v for k, v in metrics.items() if units[k] in ("count", "bytes")}
    path = OUT_DIR / "counts" / f"{code_hash}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if name in known:
        if known[name] != counts:
            return [f"work counts differ from an earlier run of the same code: "
                    f"{counts} != {known[name]}"]
        return []
    known[name] = counts
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)
    return []


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    wl = WORKLOADS[name]
    run = run_traced(name, seconds) if trace else run_untraced(name, seconds)
    metrics, units, errors = run["metrics"], run["units"], run["errors"]
    code_hash = source_sha256()
    if trace and not run["failed"]:
        count_errors = check_counts(name, code_hash, metrics, units)
        run["failed"] += len(count_errors) > 0
        errors += count_errors
    correct = run["failed"] == 0 and not errors

    context = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "why": wl["why"], "argv": wl["argv"], "threads": wl["threads"],
        "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": run["numpy"],
        "git_commit": git_commit(), "source_sha256": code_hash,
    }
    result = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    OUT_DIR.mkdir(exist_ok=True)
    report = {"context": context, "info": run["info"], "errors": errors, "result": result,
              "spans": run.get("spans")}
    (OUT_DIR / f"BENCH_{name}_trace{trace}_seed{seed}.json").write_text(json.dumps(report, indent=1))

    print(f"workload {name}  seed {seed}  trace {trace}  {'ok' if correct else 'FAILED'}")
    for err in errors[:10]:
        print(f"  error: {err.strip()}")
    for k, v in metrics.items():
        print(f"  {k:44s} {v:>16.6g} {units[k]}")
    for k, v in run["info"].items():
        print(f"  {k}: {v}")
    print("context " + json.dumps(context, ensure_ascii=False))
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fqdist benchmark (see the module docstring)")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2, ensure_ascii=False) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "fqdist" / "__init__.py").is_file():
        print(f"error: no fqdist source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src" / "fqdist", quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(n, args.seed, args.seconds, args.trace) for n in names)


if __name__ == "__main__":
    sys.exit(main())
