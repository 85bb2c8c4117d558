"""Command-line interface: construct, verify, scan, census, selftest.

Exit codes: 0 all asserted claims hold, 1 a verified claim failed (an
implementation alarm), 2 bad invocation or configuration, 3 an internal
fault (any other exception).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys

import numpy as np

from . import construction as cx
from . import ff, setalg, verify
from .errors import ClaimViolation, FqdistError


def _parse_basis(text: str):
    if text == "auto":
        return "auto"
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("basis must be 'auto' or two indices 'i1,i2'")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _parse_r_list(text: str):
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    if not values:
        raise argparse.ArgumentTypeError("need at least one r value")
    return values


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand, holding only the flags that subcommand reads."""
    ap = argparse.ArgumentParser(
        prog="fqdist",
        description=(
            "Build point sets of size q^(4/3) in F_q^2 whose distance sets "
            "miss part of F_q, and verify every claim about them exactly."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def instance(sp, r_type=int, r_help=None):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--r", type=r_type, required=True, help=r_help)
        sp.add_argument("--basis", type=_parse_basis, default="auto")

    def pair_budget(sp):
        sp.add_argument("--pair-budget", type=int, default=setalg.DEFAULT_PAIR_BUDGET,
                        help=f"max ordered pairs per exact set computation "
                             f"(default {setalg.DEFAULT_PAIR_BUDGET})")

    def out(sp):
        sp.add_argument("--out", default=None, help="write the machine report here")

    sp = sub.add_parser("construct", help="build a construction and emit its replayable record")
    instance(sp)
    out(sp)

    sp = sub.add_parser("verify", help="verify all claims for one (p, r)")
    instance(sp)
    sp.add_argument("--oracle", choices=("auto", "both", "structured"), default="auto",
                    help="'both' forces the brute-force pass, 'auto' runs it when it fits the budget")
    sp.add_argument("--dump-bits", action="store_true",
                    help="include full bitset dumps in the report")
    pair_budget(sp)
    sp.add_argument("--threads", type=int, default=1,
                    help="worker threads for the brute-force pass (run by --oracle both, "
                         "or auto when it fits; default 1)")
    out(sp)
    sp.add_argument("-v", "--verbose", action="store_true")

    sp = sub.add_parser("scan", help="ratio table over several r values")
    instance(sp, _parse_r_list, "comma list, e.g. 1,2")
    pair_budget(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    out(sp)

    sp = sub.add_parser("census", help="exhaustive max incomplete-distance-set size at tiny q")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--pruning", choices=("on", "off"), default="on")
    out(sp)

    sp = sub.add_parser("selftest", help="randomized property self-tests")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--triples", type=int, default=10000,
                    help="random triples per field for the axiom suite")

    return ap


# the flags that must be at least 1, where a subcommand has them
_POSITIVE = {
    "pair_budget": "pair budget must be positive",
    "threads": "threads must be at least 1",
    "triples": "triples must be positive",
}


def _validate(args) -> None:
    """Check the parsed flags before anything runs."""
    for name, message in _POSITIVE.items():
        if vars(args).get(name, 1) < 1:
            raise FqdistError(message)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(args, text: str) -> None:
    """Write text to --out, or stdout; a failed write leaves --out as it was."""
    if not args.out:
        sys.stdout.write(text)
        return
    # a regular file is written beside the target and renamed over it; a
    # device or pipe such as /dev/stdout has nothing to replace
    in_place = os.path.exists(args.out) and not os.path.isfile(args.out)
    path = args.out if in_place else f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not in_place:
            os.replace(path, args.out)
    except OSError as e:
        if not in_place:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise FqdistError(f"cannot write {args.out}: {e.strerror or e}") from None


def run_construct(args) -> int:
    c = cx.build_construction(args.p, args.r, args.basis)
    print(
        f"q = {c.q} = {args.p}^{6 * args.r}   |F| = {c.subF.order}   "
        f"|V| = {len(c.V.indices)}   |E| = {c.size_E}"
    )
    print(f"i = #{c.i.index}   basis = (#{c.V.basis[0].index}, #{c.V.basis[1].index})")
    _emit(args, _dump_json(c.to_json()))
    return 0


def run_verify(args) -> int:
    rep = verify.verify_counterexample(
        args.p,
        args.r,
        basis=args.basis,
        oracle=args.oracle,
        pair_budget=args.pair_budget,
        threads=args.threads,
        dump_bits=args.dump_bits,
    )
    print(f"q = {rep.q} (p={rep.p}, r={rep.r})   |E| = {rep.size_E} = q^(4/3)")
    print(
        f"|distance set| = {rep.size_delta}   |VV| = {rep.size_VV}   "
        f"ratio = {rep.ratio.numerator}/{rep.ratio.denominator} "
        f"≈ {verify._ratio_decimal(rep.ratio)}"
    )
    print(
        f"distance set == VV: {str(rep.delta_equals_VV).lower()}   "
        f"incomplete: {str(rep.delta_ne_Fq).lower()} "
        f"(missing element #{rep.missing_distance})"
    )
    print(
        f"oracles: {rep.oracle_mode}   above completeness threshold: "
        f"{str(rep.ir_applicable).lower()}"
    )
    if args.verbose:
        print(f"delta bitset sha256 = {rep.delta_set['sha256_of_bitset']}")
        print(f"VV bitset sha256    = {rep.vv_set['sha256_of_bitset']}")
    print(f"all claims verified in {rep.elapsed_seconds:.2f}s")
    if args.out:
        _emit(args, _dump_json(rep.to_json_dict()))
    return 0


def run_scan(args) -> int:
    rows = verify.ratio_scan(args.p, args.r, basis=args.basis, pair_budget=args.pair_budget)
    if args.format == "csv":
        text = verify.scan_to_csv(rows)
    else:
        text = _dump_json(verify.scan_to_json_dict(args.p, rows))
    if args.out:
        for row in rows:
            tail = f"error: {row.error}" if row.error else (
                f"|Δ| = {row.size_delta}  ratio ≈ {verify._ratio_decimal(row.ratio)}"
            )
            print(f"r = {row.r}  q = {row.q if row.q else '?'}  {tail}")
    _emit(args, text)
    if any(row.error_kind == "claim" for row in rows):
        return 1
    if any(row.error for row in rows):
        return 2
    return 0


def run_census(args) -> int:
    res = verify.census(args.q, pruning=args.pruning == "on")
    print(
        f"q = {res.q}: max |E| with an incomplete distance set = "
        f"{res.max_incomplete_size} ({res.subsets_visited} subsets visited, "
        f"pruning {'on' if res.pruning else 'off'})"
    )
    print(f"witness: {res.witness_set}")
    if args.out:
        _emit(args, _dump_json(res.to_json_dict()))
    return 0


# ---------------------------------------------------------------------------
# selftest


def _axiom_failures(field, rng, triples) -> int:
    bad = 0
    q = field.q
    zero, one = field.zero, field.one
    for _ in range(triples):
        a = field.from_index(rng.randrange(q))
        b = field.from_index(rng.randrange(q))
        c = field.from_index(rng.randrange(q))
        ok = (
            (a + b) + c == a + (b + c)
            and a + b == b + a
            and (a * b) * c == a * (b * c)
            and a * b == b * a
            and a * (b + c) == a * b + a * c
            and a + zero == a
            and a * one == a
            and a + (-a) == zero
        )
        if ok and a:
            ok = a * a.inv() == one
        if not ok:
            bad += 1
    return bad


def run_selftest(args) -> int:
    rng = random.Random(args.seed)
    checks = []

    fields = [ff.make_prime_field(7), ff.ExtField(3, 2), ff.ExtField(3, 6)]
    for fld in fields:
        bad = _axiom_failures(fld, rng, args.triples)
        checks.append((f"field axioms GF({fld.q}) x{args.triples}", bad == 0))

    gf729 = fields[2]
    round_trip = all(gf729.from_index(i).index == i for i in range(gf729.q))
    checks.append(("index round-trip GF(729)", round_trip))

    sub = ff.locate_subfield(gf729, 2)
    members = {e.index for e in sub.elements}
    fixed = all((ff.frobenius(e, 2) == e) == (e.index in members) for e in gf729.elements())
    checks.append(("subfield = Frobenius fixed set (q=729, m=2)", fixed))

    # BLAS differs between machines, so the exactness of the float64 multiply
    # kernel is checked where it runs; GF(46337^2) has its largest sums
    gf343 = ff.ExtField(7, 3)
    batched = True
    for fld in (gf729, gf343, ff.ExtField(46337, 2)):
        top = fld.element([-1] * fld.n)
        pairs = [(top, top)] + [
            (fld.from_index(rng.randrange(fld.q)), fld.from_index(rng.randrange(fld.q)))
            for _ in range(200)
        ]
        a, b = (np.array([e.index for e in col]) for col in zip(*pairs))
        batched = batched and fld.mul(a, b).tolist() == [(x * y).index for x, y in pairs]
    checks.append(("batched multiply = scalar multiply, random pairs, GF(3^6), GF(7^3), "
                   "GF(46337^2)", batched))

    # GF(3^6) keeps every H-name under Z_3* (m = 2); in GF(7^3) (m = 1) the
    # non-residues 3, 5 and 6 move them
    named = True
    for fld in (gf729, gf343):
        cn = setalg.coset_names(ff.locate_subfield(fld, fld.n // 3))
        named = named and np.array_equal(cn.names, cn.name(*cn.coords(np.arange(fld.q))))
    checks.append(("coset names = direct naming of every element, GF(3^6) and GF(7^3)", named))

    i729 = ff.sqrt_minus_one(gf729)
    checks.append(("i^2 = -1 in GF(729)", i729 * i729 == -gf729.one))

    rep = verify.verify_counterexample(3, 1, oracle="structured")
    checks.append(("structured oracle = VV at (p=3, r=1)", rep.delta_equals_VV))
    checks.append(("missing distance exists at (p=3, r=1)", rep.delta_ne_Fq))

    # translation invariance of the distance set on random small sets
    gf9 = fields[1]
    ok_translate = True
    for _ in range(20):
        pts = [
            setalg.Point(gf9.from_index(rng.randrange(9)), gf9.from_index(rng.randrange(9)))
            for _ in range(rng.randrange(1, 6))
        ]
        tx = gf9.from_index(rng.randrange(9))
        ty = gf9.from_index(rng.randrange(9))
        shifted = [setalg.Point(pt.x + tx, pt.y + ty) for pt in pts]
        if setalg.distance_set_bruteforce(pts) != setalg.distance_set_bruteforce(shifted):
            ok_translate = False
    checks.append(("distance-set translation invariance (random sets)", ok_translate))

    all_ok = True
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        all_ok = all_ok and ok
    if not all_ok:
        raise ClaimViolation("selftest found failing properties")
    return 0


_COMMANDS = {
    "construct": run_construct,
    "verify": run_verify,
    "scan": run_scan,
    "census": run_census,
    "selftest": run_selftest,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        code = e.code
        return int(code) if code else 0
    try:
        _validate(args)
        return _COMMANDS[args.command](args)
    except ClaimViolation as e:
        print(f"CLAIM VIOLATED: {e}", file=sys.stderr)
        return 1
    except FqdistError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
