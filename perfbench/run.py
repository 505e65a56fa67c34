"""Benchmark of the posetff certify pipeline, First-Fit sweeps and exact oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-wide --seed 1 --seconds 25 --trace 0

One process, one closed-loop caller: ops run one at a time, cycling over the
workload's pool (see ``workloads.py``) until ``--seconds`` have passed and
every pool item has run at least once.  Every op's outputs are checked, and
each item's output digest must repeat on every later op of that item.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced pass over the pool and prints the per-layer metrics
named in BENCHMARK.json (per pass over the pool) plus the tracing overhead,
the traced minus the untraced time of a pass in reference seconds.
Lines before the last one are a JSON report of what was measured; the last
line is the result object.  The exit code is 1 when an op failed and 2 when
the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
P90_MIN_SAMPLES = 100
# The speed of a shared host drifts by 10-30% over seconds to minutes, for
# any process.  Timed ops are therefore reported in reference seconds: wall
# time times REFERENCE_S over the time ``reference_s()`` took around the op.
# REFERENCE_S is about what that takes on a quiet 2-vCPU x86-64 host with
# CPython 3.11.  ``setup_s`` is scaled the same way, by the median of the
# reference samples taken between its set-ups: it reads as seconds on that
# host (raw wall seconds are in the report's ``wall``).
REFERENCE_S = 0.01
CALIBRATE_EVERY_S = 0.2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import posetff from this checkout's src/, or return None."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import posetff
    except ImportError as exc:
        print(f"error: cannot import posetff from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    if Path(posetff.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        print(f"error: posetff imported from {posetff.__file__}, not this checkout", file=sys.stderr)
        return None
    return posetff


class Runner:
    """Runs ops, times their two phases, checks outputs and counts failures."""

    def __init__(self, items):
        self.items = items
        # per item, per op: (run_s, check_s, op_s, index of the last reference sample)
        self.times = [[] for _ in items]
        self.reference: list[float] = []  # reference_s() samples taken between ops
        self.expected: list[str | None] = [None] * len(items)
        self.attempted = 0
        self.failed = 0

    def op(self, i: int) -> float:
        item = self.items[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = item.run()
            gc.collect()  # each op pays for its own garbage, so none piles up across ops
            t1 = time.perf_counter()
            digest = hashlib.sha256(item.check(out).encode()).hexdigest()
        except Exception:
            self.failed += 1
            print(f"op failed: {item.name}\n{traceback.format_exc()}", file=sys.stderr)
            return time.perf_counter() - t0
        t2 = time.perf_counter()
        if self.expected[i] is None:
            self.expected[i] = digest
        elif digest != self.expected[i]:
            self.failed += 1
            print(f"op failed: {item.name} output digest changed between ops", file=sys.stderr)
        self.times[i].append((t1 - t0, t2 - t1, t2 - t0, len(self.reference) - 1))
        return t2 - t0

    def calibrate(self) -> None:
        self.reference.append(reference_s())


def freeze_inputs() -> None:
    """Keep the long-lived inputs out of the collections each op triggers."""
    gc.collect()
    gc.freeze()


def setup(build, seed, workdir):
    """Build the pool, write its files and warm up on its smallest item."""
    t0 = time.perf_counter()
    items = build(seed, workdir)
    warm = min(items, key=lambda it: it.elems)
    warm.check(warm.run())
    return items, time.perf_counter() - t0


def reference_work() -> int:
    """Fixed pure-Python work shaped like the program's: big-int masks, loops, a dict."""
    masks = [((1 << 600) - 1) // (2 * i + 3) for i in range(64)]
    acc = 0
    seen = {}
    for r in range(12):
        for i, m in enumerate(masks):
            x = m & ~masks[(i * 7 + r) % 64]
            low = x & -x
            acc ^= (x >> (low.bit_length() % 61)).bit_count()
            seen[(i, r)] = acc
            masks[i] = m | (low << 1)
    return acc + len(seen)


def reference_s() -> float:
    t0 = time.perf_counter()
    for _ in range(16):
        reference_work()
    return time.perf_counter() - t0


def measure(runner: Runner, seconds: float) -> None:
    """Cycle over the pool, timing the reference work every CALIBRATE_EVERY_S between ops."""
    start = time.perf_counter()
    last = -CALIBRATE_EVERY_S
    i = 0
    while True:
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            runner.calibrate()
            last = time.perf_counter()
        runner.op(i % len(runner.items))
        i += 1
        if i >= len(runner.items) and time.perf_counter() - start >= seconds:
            runner.calibrate()
            return


def end_to_end(runner: Runner, setup_times: list[float]) -> tuple[dict, dict]:
    """Rates are work per time of one pass over the pool, from each item's mean times.

    Each op's times are scaled to reference seconds by REFERENCE_S over the
    mean of the reference samples taken just before and just after it.
    """
    ref = runner.reference
    done = [t for t in runner.times if t]
    elems = sum(it.elems for it, t in zip(runner.items, runner.times) if t)

    def summary(scale) -> list[float]:
        ops = [[[v * scale(x[3]) for v in x[:3]] for x in t] for t in done]
        mean = [[statistics.mean(x[j] for x in t) for t in ops] for j in range(3)]
        p50 = statistics.median(statistics.median(x[2] for x in t) for t in ops)
        return [len(done) / sum(mean[2]), elems / sum(mean[0]), elems / sum(mean[1]), p50]

    names = ["ops_per_s", "run_elems_per_s", "check_elems_per_s", "op_s.p50"]
    wall = dict(zip(names, summary(lambda k: 1.0)))
    scaled = summary(lambda k: 2 * REFERENCE_S / (ref[k] + ref[k + 1]))
    metrics = {
        "ops_per_ref_s": (scaled[0], "1/ref_s"),
        "run_elems_per_ref_s": (scaled[1], "1/ref_s"),
        "check_elems_per_ref_s": (scaled[2], "1/ref_s"),
        "op_ref_s.p50": (scaled[3], "ref_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    all_ops = sorted(x[2] for t in runner.times for x in t)
    report = {
        "wall": wall,
        "reference_s": {"mean": statistics.mean(ref), "samples": len(ref), "nominal": REFERENCE_S},
        "setup_s_all": setup_times,
        "op_s": {
            "samples": len(all_ops),
            "p50": statistics.median(all_ops),
            "p90": statistics.quantiles(all_ops, n=10)[-1] if len(all_ops) >= P90_MIN_SAMPLES else None,
        },
    }
    return metrics, report


def per_layer(names, tracer, ops, setup_spans, passes: int, overhead_s: float,
              untraced_s: float) -> tuple[dict, list]:
    """The per-layer metrics BENCHMARK.json names; ``setup.`` names read the set-up spans."""
    metrics, absent = {}, []
    for name in names:
        if name == "trace.overhead_ref_s":
            metrics[name] = (overhead_s / passes, "ref_s")
            continue
        if name == "trace.overhead_frac":
            metrics[name] = (overhead_s / untraced_s, "ratio")
            continue
        fn, _, kind = name.rpartition(".")
        table, scale = (setup_spans, 1) if fn.startswith("setup.") else (ops, passes)
        fn = fn.removeprefix("setup.")
        if fn not in tracer.names:
            absent.append(name)
        calls, self_s, _ = table.get(fn, (0, 0.0, 0.0))
        metrics[name] = (calls / scale, "count") if kind == "calls" else (self_s / scale, "s")
    return metrics, absent


def layer_table(tracer, ops, setup_spans, passes: int) -> dict:
    rows = {}
    for name in tracer.names:
        c, s, t = ops.get(name, (0, 0.0, 0.0))
        sc, ss, _ = setup_spans.get(name, (0, 0.0, 0.0))
        rows[name] = {"calls_per_pass": c / passes, "self_s_per_pass": s / passes,
                      "total_s_per_pass": t / passes, "setup_calls": sc, "setup_self_s": ss}
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    posetff = import_program()
    if posetff is None:
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "loop": "closed, 1 caller, no threads",
    }
    try:
        if args.trace:
            from posetff import (adversary, cli, extension, firstfit, generators,
                                 homomorphism, jsonio, order)

            tracer = Tracer([posetff, cli, jsonio, order, extension, firstfit,
                             homomorphism, adversary, generators])
            tracer.op = "setup"
            with tracer:
                items, setup_time = setup(build, args.seed, workdir)
            runner = Runner(items)
            freeze_inputs()

            def traced_pass() -> float:
                with tracer:
                    total = 0.0
                    for i in range(len(items)):
                        tracer.op = f"pass{passes}/{i}"
                        total += runner.op(i)
                    return total

            for i in range(len(items)):  # untimed pass: first-touch costs would favour later passes
                runner.op(i)
            untraced = traced = 0.0
            passes = 0
            start = time.perf_counter()
            while passes == 0 or time.perf_counter() - start < args.seconds:
                # alternate which pass of a pair runs first, so warm-up favours neither
                for with_trace in ((False, True) if passes % 2 == 0 else (True, False)):
                    runner.calibrate()
                    if with_trace:
                        seconds = traced_pass()
                    else:
                        seconds = sum(runner.op(i) for i in range(len(items)))
                    runner.calibrate()
                    seconds *= 2 * REFERENCE_S / (runner.reference[-2] + runner.reference[-1])
                    if with_trace:
                        traced += seconds
                    else:
                        untraced += seconds
                passes += 1
            ops = tracer.totals(lambda op: op != "setup")
            setup_spans = tracer.totals(lambda op: op == "setup")
            metrics, absent = per_layer([m["name"] for m in spec["per_layer"]], tracer, ops,
                                        setup_spans, passes, traced - untraced, untraced)
            spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            report.update({
                "passes": passes, "untraced_ref_s": untraced, "traced_ref_s": traced,
                "trace_overhead_ref_s": traced - untraced, "setup_s": setup_time,
                "absent": absent, "spans": len(tracer.spans),
                "spans_file": str(spans_path.relative_to(ROOT)),
                "layers": layer_table(tracer, ops, setup_spans, passes),
            })
        else:
            setup_wall, setup_ref = [], [reference_s()]
            for _ in range(SETUP_REPEATS):
                items = None
                gc.collect()  # each set-up starts without the last one's garbage
                items, seconds = setup(build, args.seed, workdir)
                setup_wall.append(seconds)
                setup_ref.append(reference_s())
            scale = REFERENCE_S / statistics.median(setup_ref)
            setup_times = [seconds * scale for seconds in setup_wall]
            runner = Runner(items)
            freeze_inputs()
            measure(runner, args.seconds)
            metrics, extra = end_to_end(runner, setup_times)
            extra["wall"]["setup_s"] = statistics.median(setup_wall)
            extra["setup_s_wall_all"] = setup_wall
            report.update(extra)
        report.update({
            "instances": [it.record for it in items],
            "input_sha256": workloads.sha256("\n".join(
                it.record["input_sha256"] + it.record.get("order_sha256", "") for it in items)),
            "output_sha256": workloads.sha256("\n".join(d or "failed" for d in runner.expected)),
            "ops": runner.attempted,
            "ops_per_item": [len(t) for t in runner.times],
            "failed": runner.failed,
            "failed_frac": runner.failed / runner.attempted,
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
