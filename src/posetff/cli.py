"""Command-line surface: generate instances, run First-Fit, build certificates, sweep bounds.

Exit codes are uniform across subcommands: 0 success, 1 a certified
property was violated (a machine-readable witness goes to stdout),
2 usage or input errors, or a failed self-check. Every document flag
takes a file path or "-" for stdout, which carries one document at most.
A command's note (its report line, or bench's violation) goes to stdout
unless a document did, and then to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path

from .adversary import kierstead, stacked
from .errors import InternalError, ParamError, PosetFFError
from .extension import block_sequence, spans_from_blocks
from .firstfit import PresentationOrder, first_fit_chains, first_fit_color, validate_ff_partition
from .generators import (
    KKFREE_DENSITY,
    SplitMix64,
    gen_interval_order,
    gen_kk_free,
    random_intervals,
)
from .jsonio import (
    MAX_ELEMENTS,
    canonical_dumps,
    ff_result_to_dict,
    interval_order_text,
    intervals_to_dict,
    order_from_dict,
    order_to_dict,
    pd_text,
    poset_from_dict,
    poset_text,
    read_json,
    witness_to_dict,
)
from .order import KkWitness, incomparability_graph

CSV_COLUMNS = ["kind", "params", "n", "width", "k", "ff_chains", "bound", "pd_width", "seconds"]


def _write_files(docs: list[tuple[str | None, Callable[[], str]]], note: str) -> None:
    """Write each (target, text builder) pair, then the command's note.

    None skips a document and "-" prints it to stdout, one document at most,
    once every file is in place.  Each file's text is built and written in
    turn to a temporary file beside its target, so one document is in
    memory at a time; the targets are replaced only once every write has
    succeeded, and a failure removes the temporary files.  A file holds the
    text's exact characters: no newline is translated.  The note comes last,
    so it never promises a file that failed: on stdout, or on stderr when a
    document went to stdout, so stdout carries one document.
    """
    docs = [(path, build) for path, build in docs if path is not None]
    named: dict[str, str] = {}
    for path, _ in docs:
        # caught here, not by a rename after others succeeded; a last component
        # of "", "." or ".." names a directory even where none exists yet
        if path != "-" and (os.path.basename(path) in ("", ".", "..") or Path(path).is_dir()):
            raise ParamError(f"output path {path!r} is a directory")
        # a second document would replace the first file or follow the first on
        # stdout; unlike Path.resolve, realpath does not raise on a symlink loop
        target = path if path == "-" else os.path.realpath(path)
        if target in named:
            raise ParamError(f"output paths {named[target]!r} and {path!r} name one file")
        named[target] = path
    files = [(path, build) for path, build in docs if path != "-"]
    temps: list[Path] = []
    try:
        for i, (path, build) in enumerate(files):
            text = build()
            temps.append(Path(path).with_name(f".{Path(path).name}.{os.getpid()}-{i}.tmp"))
            try:
                temps[-1].write_text(text, newline="")
            except OSError as exc:
                exc.filename = path  # name the target, not the temporary file
                raise
        for tmp, (path, _) in zip(temps, files):
            tmp.replace(path)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise
    for path, build in docs:
        if path == "-":
            sys.stdout.write(build())
    (sys.stderr if "-" in named else sys.stdout).write(note)


def _check_size(n: int) -> None:
    # refuse before building what the loader would refuse to read back
    if n > MAX_ELEMENTS:
        raise ParamError(f"n would be {n}, above the limit of {MAX_ELEMENTS} elements")


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family in ("kierstead", "stacked"):
        if args.family == "kierstead":
            build, params, q, copies = kierstead, {"q": args.q}, args.q, 1
        else:
            build, params, q, copies = stacked, {"k": args.k, "w": args.w}, args.k - 1, args.w - 1
        # copies ladders of q rows; a q below 1 is left to the builder's own check
        _check_size(copies * max(q, 0) * (q + 1) // 2)
        adv = build(**params)
        docs = [
            (args.out, lambda: poset_text(adv.poset, adv.names, {"kind": args.family, **params})),
            (args.out_order, lambda: canonical_dumps(order_to_dict(adv.natural_order))),
        ]
    elif args.family == "interval":
        _check_size(args.n)
        meta = {"seed": args.seed, "kind": "interval", "n": args.n}
        intervals = random_intervals(args.seed, args.n)
        docs = [(args.out, lambda: interval_order_text(intervals, None, meta))]
    else:
        _check_size(args.n)
        meta = {"seed": args.seed, "kind": "kkfree", "n": args.n, "k": args.k,
                "density": KKFREE_DENSITY}
        p = gen_kk_free(args.seed, args.n, args.k)
        docs = [(args.out, lambda: poset_text(p, None, meta))]
    _write_files(docs, "")
    return 0


def cmd_ff(args: argparse.Namespace) -> int:
    p = poset_from_dict(read_json(args.poset))
    order = order_from_dict(read_json(args.order))
    res = first_fit_chains(p, order)
    if not validate_ff_partition(p, res.partition):
        raise InternalError("self-check failed: output is not a First-Fit chain partition")
    _write_files([(args.out, lambda: canonical_dumps(ff_result_to_dict(res)))],
                 f"ff chains={res.chain_count} n={p.n}\n")
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    doc = read_json(args.poset)
    p = poset_from_dict(doc)
    seq = block_sequence(p, args.k)
    if isinstance(seq, KkWitness):
        _write_files([("-", lambda: canonical_dumps(witness_to_dict(seq)))], "")
        return 1
    spans = spans_from_blocks(seq)
    w = len(seq.partition)  # the number of Dilworth chains, width(p)
    # pairwise-intersecting spans share a block, so width(q) is a block's size
    _write_files([
        (args.out_order, lambda: interval_order_text(spans, doc.get("names"), None)),
        (args.out_intervals, lambda: canonical_dumps(intervals_to_dict(spans))),
        (args.out_pd, lambda: pd_text(spans, len(seq))),
    ], f"width_q={seq.width + 1} bound={(2 * args.k - 3) * w} pd_width={seq.width}\n")
    return 0


def _bench_size(k: int, w: int) -> int:
    # desk-scale defaults: interval orders can run larger.  The n <= 20 cap on
    # rejection-sampled k+k-free posets reflects sampling's acceptance rate,
    # not the k+k search (a try at n = 80 takes about 5 ms): at k = 3 and
    # density 0.5 about half the tries pass at n = 80, one in 13 at n = 320
    if k == 2:
        return 8 * w
    return min(4 * w + 2 * (k - 2), 20)


def cmd_bench(args: argparse.Namespace) -> int:
    k, w = args.k, args.w
    # zero trials is an empty sweep (header only); zero orders or width would
    # write rows that describe no First-Fit run
    for flag, value, least in (("--k", k, 2), ("--w", w, 1), ("--trials", args.trials, 0),
                               ("--orders", args.orders, 1)):
        if value < least:
            raise ParamError(f"bench needs {flag} >= {least}, got {value}")
    master = SplitMix64(args.seed)
    seeds = sorted(master.next_u64() for _ in range(args.trials))
    rows = []
    violation = None
    n = _bench_size(k, w)
    _check_size(n)
    for inst_seed in seeds:
        t0 = time.perf_counter()
        if k == 2:
            kind = "interval"
            p = gen_interval_order(inst_seed, n)
            params = f"w={w};orders={args.orders};instance_seed={inst_seed}"
        else:
            kind = "kkfree"
            p = gen_kk_free(inst_seed, n, k)
            params = (f"w={w};orders={args.orders};instance_seed={inst_seed};"
                      f"density={KKFREE_DENSITY}")
        seq = block_sequence(p, k)
        if isinstance(seq, KkWitness):
            raise InternalError("certified k+k-free instance produced a witness")
        width = len(seq.partition)
        bound = 8 * (2 * k - 3) * width
        g = incomparability_graph(p)
        orders_rng = SplitMix64(inst_seed + 1)
        worst = 0
        worst_order = None
        for _ in range(args.orders):
            order = PresentationOrder(tuple(orders_rng.permutation(p.n)))
            used = first_fit_color(g, order).color_count
            if used > worst:
                worst = used
                worst_order = order
        seconds = time.perf_counter() - t0
        rows.append({
            "kind": kind, "params": params, "n": p.n, "width": width, "k": k,
            "ff_chains": worst, "bound": bound, "pd_width": seq.width,
            "seconds": f"{seconds:.6f}",
        })
        if worst > bound and violation is None:
            violation = {
                "instance_seed": inst_seed, "ff_chains": worst, "bound": bound,
                "order": worst_order.order,
            }
    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    _write_files([(args.csv, table.getvalue)],
                 "" if violation is None else canonical_dumps(violation))
    return 0 if violation is None else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="posetff")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instance files")
    fam = gen.add_subparsers(dest="family", required=True)
    g_k = fam.add_parser("kierstead", help="width-2 ladder forcing q chains")
    g_k.add_argument("--q", type=int, required=True)
    g_s = fam.add_parser("stacked", help="stacked ladders forcing (k-1)(w-1) chains")
    g_s.add_argument("--k", type=int, required=True)
    g_s.add_argument("--w", type=int, required=True)
    for sp in (g_k, g_s):
        sp.add_argument("--out-order", help="natural order JSON path, or - for stdout")
    g_i = fam.add_parser("interval", help="random interval order")
    g_i.add_argument("--n", type=int, required=True)
    g_i.add_argument("--seed", type=int, default=0)
    g_f = fam.add_parser("kkfree", help="rejection-sampled k+k-free poset")
    g_f.add_argument("--n", type=int, required=True)
    g_f.add_argument("--k", type=int, required=True)
    g_f.add_argument("--seed", type=int, default=0)
    for sp in (g_k, g_s, g_i, g_f):
        sp.add_argument("--out", default="-", help="poset JSON path, or - for stdout (default)")

    ff = sub.add_parser("ff", help="run First-Fit on a poset file")
    ff.add_argument("--poset", required=True)
    ff.add_argument("--order", required=True)
    ff.add_argument("--out", default="-", help="assignment JSON path, or - for stdout (default)")

    ext = sub.add_parser("extend", help="build the interval extension and decomposition")
    ext.add_argument("--poset", required=True)
    ext.add_argument("--k", type=int, required=True)
    ext.add_argument("--out-order", help="interval order poset JSON path, or - for stdout")
    ext.add_argument("--out-intervals", help="intervals JSON path, or - for stdout")
    ext.add_argument("--out-pd", help="path decomposition JSON path, or - for stdout")

    bench = sub.add_parser("bench", help="sweep First-Fit against the 8(2k-3)w bound")
    bench.add_argument("--k", type=int, required=True)
    bench.add_argument("--w", type=int, required=True,
                       help="instance size, not width: n = 8w for k = 2, "
                            "min(4w + 2(k-2), 20) otherwise")
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--orders", type=int, required=True)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--csv", required=True,
                       help="output CSV path, or - for stdout; its width column is each "
                            "instance's measured width")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the parser is cached, so the handler is looked up by name: a replaced
        # cmd_* attribute (a test's patch, a tracer's wrapper) is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, PosetFFError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
