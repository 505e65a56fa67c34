"""Golden gates for the extension pipeline, First-Fit and its quotient.

Each extension case runs ``block_sequence`` on a fixed input and records
either the k+k witness it returns or the block moves plus the sha256 of each
canonical ``posetff extend`` output (the interval order of the block spans,
the spans, the path decomposition).  Each First-Fit case runs
``first_fit_chains`` on a fixed poset and presentation order and records the
sha256 of the canonical ``posetff ff`` output (chains and assignment).  Each
quotient case runs ``build_ff_image`` on a fixed graph, path decomposition
and First-Fit colouring and records the sha256 of the canonical image
intervals, transported classes and vertex map.

The fixtures ``data/golden_extend.json``, ``data/golden_ff.json`` and
``data/golden_quotient.json`` must stay byte-identical; rewrite them only for
an intended output change, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from posetff import (
    KkWitness,
    PresentationOrder,
    SplitMix64,
    block_sequence,
    build_ff_image,
    build_poset,
    canonical_dumps,
    ff_result_to_dict,
    first_fit_chains,
    first_fit_color,
    gen_interval_order,
    gen_kk_free,
    gen_random_poset,
    grundy_coloring,
    incomparability_graph,
    interval_completion,
    interval_order_from_intervals,
    interval_order_text,
    intervals_to_dict,
    kierstead,
    pd_text,
    spans_from_blocks,
    stacked,
    witness_to_dict,
)
from helpers import moves_of, slide_decomposition
from test_acceptance import _quotient_cases as acceptance_quotient_cases

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_extend.json"
FF_FIXTURE = FIXTURE.with_name("golden_ff.json")
QUOTIENT_FIXTURE = FIXTURE.with_name("golden_quotient.json")


def _narrow_interval_order(seed, n):
    """Short intervals on a long line, so width stays far below n."""
    rng = SplitMix64(seed)
    intervals = []
    for _ in range(n):
        left = rng.below(4 * n)
        intervals.append((left, left + rng.below(12)))
    return interval_order_from_intervals(intervals)


def _tied_interval_order(seed, n, coordinate_range):
    """Ends drawn from a short line, so many intervals share endpoints."""
    rng = SplitMix64(seed)
    intervals = []
    for _ in range(n):
        a = rng.below(coordinate_range)
        b = rng.below(coordinate_range)
        intervals.append((min(a, b), max(a, b)))
    return interval_order_from_intervals(intervals)


def _named(adv, k):
    """A ladder record's case: its poset, its names and k."""
    return adv.poset, adv.names, k


def _cases():
    """Name -> (poset, names or None, k), all from fixed seeds or fixed constructions."""
    cases = {}
    for seed in range(6):
        cases[f"interval-s{seed}-k2"] = (gen_interval_order(seed, 30 + 10 * seed), None, 2)
    cases["interval-ties-s8-k2"] = (_tied_interval_order(8, 50, 20), None, 2)
    for seed, k in ((7, 3), (9, 4)):
        cases[f"interval-narrow-s{seed}-k{k}"] = (_narrow_interval_order(seed, 120), None, k)
    for w in (3, 20):
        cases[f"stacked-k3-w{w}"] = _named(stacked(3, w), 3)
    for w in (5, 12):
        cases[f"stacked-k4-w{w}"] = _named(stacked(4, w), 4)
    cases["kkfree-s4-n16-k3"] = (gen_kk_free(4, 16, 3), None, 3)
    # inputs that contain a k+k: the slide either meets it or still finds sinks
    cases["two-plus-two-k2"] = (build_poset(4, [(0, 1), (2, 3)]), None, 2)
    cases["kkfree-s4-n16-as-k2"] = (gen_kk_free(4, 16, 3), None, 2)
    cases["kierstead-q4-k2"] = _named(kierstead(4), 2)
    cases["stacked-k4-w5-as-k3"] = _named(stacked(4, 5), 3)
    for seed in range(4):
        cases[f"random-s{seed}-n14-k2"] = (gen_random_poset(SplitMix64(seed), 14, 0.3), None, 2)
    return cases


def _text_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sha(obj) -> str:
    return _text_sha(canonical_dumps(obj))


def golden_record(p, names, k) -> dict:
    seq = block_sequence(p, k)
    if isinstance(seq, KkWitness):
        return {"witness": witness_to_dict(seq)}
    spans = spans_from_blocks(seq)
    return {
        "moves": moves_of(seq),
        "sha256": {
            "order": _text_sha(interval_order_text(spans, names, None)),
            "intervals": _sha(intervals_to_dict(spans)),
            "pd": _text_sha(pd_text(spans, len(seq))),
        },
    }


def _ff_cases():
    """Name -> (poset, presentation order), all from fixed seeds or constructions."""
    cases = {}
    adversaries = [(f"kierstead-q{q}", kierstead(q)) for q in (3, 6, 12)]
    adversaries += [(f"stacked-k{k}-w{w}", stacked(k, w)) for k, w in ((3, 4), (4, 7), (6, 3))]
    for name, adv in adversaries:
        cases[f"{name}-natural"] = (adv.poset, adv.natural_order)
        for seed in range(3):
            order = PresentationOrder(tuple(SplitMix64(seed).permutation(adv.poset.n)))
            cases[f"{name}-shuffle{seed}"] = (adv.poset, order)
    for seed, n in enumerate(range(200, 401, 50)):
        p = gen_interval_order(seed, n)
        cases[f"interval-s{seed}-n{n}-identity"] = (p, PresentationOrder.identity(n))
        order = PresentationOrder(tuple(SplitMix64(seed).permutation(n)))
        cases[f"interval-s{seed}-n{n}-shuffle"] = (p, order)
    return cases


def ff_record(p, order) -> str:
    return _sha(ff_result_to_dict(first_fit_chains(p, order)))


def _quotient_cases():
    """Name -> (graph, path decomposition, First-Fit colouring), all seeded."""
    cases = {}
    for i, (g, pd) in enumerate(acceptance_quotient_cases()):
        cases[f"acceptance-{i:03d}-grundy"] = (g, pd, grundy_coloring(g))
    for seed, n in enumerate(range(200, 401, 50)):
        p = gen_interval_order(seed, n)
        g = incomparability_graph(p)
        coloring = first_fit_color(g, PresentationOrder(tuple(SplitMix64(seed).permutation(n))))
        for k in (2, 3):
            pd = slide_decomposition(block_sequence(p, k))
            cases[f"interval-s{seed}-n{n}-k{k}"] = (g, pd, coloring)
    sp = stacked(5, 6)
    g = incomparability_graph(sp.poset)
    pd = slide_decomposition(block_sequence(sp.poset, 5))
    cases["stacked-k5-w6-natural"] = (g, pd, first_fit_color(g, sp.natural_order))
    return cases


def quotient_record(g, pd, coloring) -> str:
    image, hom = build_ff_image(g, interval_completion(g, pd), coloring)
    return _sha({
        "intervals": [list(iv) for iv in image.intervals],
        "classes": [list(ids) for ids in image.classes],
        "map": list(hom.mapping),
    })


CASES = _cases()
FF_CASES = _ff_cases()
QUOTIENT_CASES = _quotient_cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def golden_ff():
    return json.loads(FF_FIXTURE.read_text())


@pytest.fixture(scope="module")
def golden_quotient():
    return json.loads(QUOTIENT_FIXTURE.read_text())


def test_fixture_is_canonical_and_complete(golden):
    assert FIXTURE.read_text() == canonical_dumps(golden)
    assert sorted(golden) == sorted(CASES)
    # both outcomes are pinned
    assert any("witness" in rec for rec in golden.values())
    assert any("moves" in rec for rec in golden.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_is_byte_identical(golden, name):
    assert canonical_dumps(golden_record(*CASES[name])) == canonical_dumps(golden[name])


def test_ff_fixture_is_canonical_and_complete(golden_ff):
    assert FF_FIXTURE.read_text() == canonical_dumps(golden_ff)
    assert sorted(golden_ff) == sorted(FF_CASES)


@pytest.mark.parametrize("name", sorted(FF_CASES))
def test_ff_case_is_identical(golden_ff, name):
    assert ff_record(*FF_CASES[name]) == golden_ff[name]


def test_quotient_fixture_is_canonical_and_complete(golden_quotient):
    assert QUOTIENT_FIXTURE.read_text() == canonical_dumps(golden_quotient)
    assert sorted(golden_quotient) == sorted(QUOTIENT_CASES)


@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_quotient_case_is_identical(golden_quotient, name):
    assert quotient_record(*QUOTIENT_CASES[name]) == golden_quotient[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    records = {name: golden_record(*case) for name, case in CASES.items()}
    FIXTURE.write_text(canonical_dumps(records))
    ffs = {name: ff_record(*case) for name, case in FF_CASES.items()}
    FF_FIXTURE.write_text(canonical_dumps(ffs))
    quotients = {name: quotient_record(*case) for name, case in QUOTIENT_CASES.items()}
    QUOTIENT_FIXTURE.write_text(canonical_dumps(quotients))
