#!/usr/bin/env python3
"""Lower-bound families in action: forced chains vs the closed-form prediction.

Prints, for the ladder family and the stacked family, the chain count the
natural presentation order forces out of First-Fit, the predicted count,
and how it compares to the certified upper bound 8(2k-3)w.

Usage: python scripts/adversary_report.py [--qmax Q] [--kmax K] [--wmax W]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from posetff import first_fit_chains, kierstead, stacked, width_with_witness  # noqa: E402


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
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qmax", type=int, default=12)
    ap.add_argument("--kmax", type=int, default=6)
    ap.add_argument("--wmax", type=int, default=5)
    sys.exit(run(ap.parse_args()))
