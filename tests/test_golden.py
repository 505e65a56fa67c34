"""Golden gate for the extension pipeline: block moves and canonical outputs.

Each case runs ``interval_order_of`` on a fixed input and records either the
k+k witness it returns or the block moves plus the sha256 of each canonical
``posetff extend`` output (interval order, intervals, path decomposition).
The fixture ``data/golden_extend.json`` must stay byte-identical; rewrite it
only for an intended output change, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from posetff import (
    KkWitness,
    SplitMix64,
    block_trace_to_list,
    build_poset,
    canonical_dumps,
    decomposition_from_blocks,
    gen_interval_order,
    gen_kk_free,
    gen_random_poset,
    interval_order_from_intervals,
    interval_order_of,
    intervals_to_dict,
    kierstead,
    pd_to_dict,
    poset_to_dict,
    stacked,
    witness_to_dict,
)

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_extend.json"


def _narrow_interval_order(seed, n):
    """Short intervals on a long line, so width stays far below n."""
    rng = SplitMix64(seed)
    intervals = []
    for _ in range(n):
        left = rng.below(4 * n)
        intervals.append((left, left + rng.below(12)))
    return interval_order_from_intervals(intervals)


def _cases():
    """Name -> (poset, k), all from fixed seeds or fixed constructions."""
    cases = {}
    for seed in range(6):
        cases[f"interval-s{seed}-k2"] = (gen_interval_order(seed, 30 + 10 * seed), 2)
    cases["interval-ties-s8-k2"] = (gen_interval_order(8, 50, 20), 2)
    for seed, k in ((7, 3), (9, 4)):
        cases[f"interval-narrow-s{seed}-k{k}"] = (_narrow_interval_order(seed, 120), k)
    for w in (3, 20):
        cases[f"stacked-k3-w{w}"] = (stacked(3, w).poset, 3)
    for w in (5, 12):
        cases[f"stacked-k4-w{w}"] = (stacked(4, w).poset, 4)
    cases["kkfree-s4-n16-k3"] = (gen_kk_free(4, 16, 3), 3)
    # inputs that contain a k+k: the slide either meets it or still finds sinks
    cases["two-plus-two-k2"] = (build_poset(4, [(0, 1), (2, 3)]), 2)
    cases["kkfree-s4-n16-as-k2"] = (gen_kk_free(4, 16, 3), 2)
    cases["kierstead-q4-k2"] = (kierstead(4).poset, 2)
    cases["stacked-k4-w5-as-k3"] = (stacked(4, 5).poset, 3)
    for seed in range(4):
        cases[f"random-s{seed}-n14-k2"] = (gen_random_poset(SplitMix64(seed), 14, 0.3), 2)
    return cases


def _sha(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def golden_record(p, k) -> dict:
    got = interval_order_of(p, k)
    if isinstance(got, KkWitness):
        return {"witness": witness_to_dict(got)}
    pd = decomposition_from_blocks(got.sequence)
    return {
        "moves": block_trace_to_list(got.sequence),
        "sha256": {
            "order": _sha(poset_to_dict(got.order)),
            "intervals": _sha(intervals_to_dict(got.representation)),
            "pd": _sha(pd_to_dict(pd)),
        },
    }


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_is_canonical_and_complete(golden):
    assert FIXTURE.read_text() == canonical_dumps(golden)
    assert sorted(golden) == sorted(CASES)
    # both outcomes are pinned
    assert any("witness" in rec for rec in golden.values())
    assert any("moves" in rec for rec in golden.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_is_byte_identical(golden, name):
    p, k = CASES[name]
    assert canonical_dumps(golden_record(p, k)) == canonical_dumps(golden[name])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    records = {name: golden_record(p, k) for name, (p, k) in CASES.items()}
    FIXTURE.write_text(canonical_dumps(records))
