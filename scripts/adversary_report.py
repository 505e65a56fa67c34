#!/usr/bin/env python3
"""Lower-bound families in action: forced chains vs the closed-form prediction.

Prints, for the ladder family and the stacked family, the chain count the
natural presentation order forces out of First-Fit, the predicted count,
and how it compares to the certified upper bound 8(2k-3)w.  A last table
gives, for each k, the odd ladder kierstead(2k-1): width 2, no k+k, and
2k-1 forced chains where stacked(k, 2) forces k-1.

Usage: python scripts/adversary_report.py [--qmax Q] [--kmax K] [--wmax W]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from posetff import (  # noqa: E402
    find_k_plus_k,
    first_fit_chains,
    kierstead,
    stacked,
    width_with_witness,
)


def run(args):
    print("ladder family (width 2):")
    print(f"{'q':>4} {'n':>6} {'ff':>4}")
    for q in range(2, args.qmax + 1):
        kp = kierstead(q)
        res = first_fit_chains(kp.poset, kp.natural_order)
        if res.chain_count != q:
            print(f"kierstead({q}): First-Fit used {res.chain_count} chains, expected {q}",
                  file=sys.stderr)
            return 1
        print(f"{q:>4} {kp.poset.n:>6} {res.chain_count:>4}")

    print("\nstacked family:")
    print(f"{'k':>3} {'w':>3} {'n':>5} {'width':>6} {'ff':>4} {'(k-1)(w-1)':>11} {'8(2k-3)w':>9}")
    for k in range(3, args.kmax + 1):
        for w in range(2, args.wmax + 1):
            sp = stacked(k, w)
            res = first_fit_chains(sp.poset, sp.natural_order)
            width, _ = width_with_witness(sp.poset)
            forced = (k - 1) * (w - 1)
            if res.chain_count != forced or width != w:
                print(f"stacked({k}, {w}): First-Fit used {res.chain_count} chains at width "
                      f"{width}, expected {forced} at width {w}", file=sys.stderr)
                return 1
            print(f"{k:>3} {w:>3} {sp.poset.n:>5} {width:>6} {res.chain_count:>4} "
                  f"{forced:>11} {8 * (2 * k - 3) * w:>9}")

    print("\nodd ladders at width 2, k+k-free:")
    print(f"{'k':>3} {'q':>4} {'n':>6} {'width':>6} {'ff':>4} {'(k-1)(w-1)':>11}")
    for k in range(2, args.kmax + 1):
        q = 2 * k - 1
        kp = kierstead(q)
        res = first_fit_chains(kp.poset, kp.natural_order)
        width, _ = width_with_witness(kp.poset)
        kk_free = find_k_plus_k(kp.poset, k) is None
        if res.chain_count != q or width != 2 or not kk_free:
            print(f"kierstead({q}): First-Fit used {res.chain_count} chains at width {width}, "
                  f"{k}+{k}-free {kk_free}; expected {q} at width 2, {k}+{k}-free",
                  file=sys.stderr)
            return 1
        print(f"{k:>3} {q:>4} {kp.poset.n:>6} {width:>6} {res.chain_count:>4} {k - 1:>11}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qmax", type=int, default=12)
    ap.add_argument("--kmax", type=int, default=6)
    ap.add_argument("--wmax", type=int, default=5)
    sys.exit(run(ap.parse_args()))
