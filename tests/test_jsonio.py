import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetff import (
    FormatError,
    KkWitness,
    PathDecomposition,
    PosetFFError,
    PresentationOrder,
    SizeMismatch,
    block_sequence,
    build_poset,
    canonical_dumps,
    ff_result_to_dict,
    find_k_plus_k,
    first_fit_chains,
    gen_interval_order,
    interval_order_from_intervals,
    interval_order_text,
    intervals_to_dict,
    kierstead,
    order_from_dict,
    order_to_dict,
    pd_from_dict,
    pd_text,
    poset_from_dict,
    poset_text,
    read_json,
    spans_from_blocks,
    witness_to_dict,
)
from posetff.jsonio import MAX_ELEMENTS
from helpers import (
    DOCUMENTS,
    bags_by_definition,
    interval_order_to_dict,
    moves_of,
    poset_to_dict,
    posets,
    posets_with_orders,
    span_lists,
)


def parsed(doc):
    """A writer's document as the command line and the benchmark read it back."""
    return json.loads(canonical_dumps(doc))


def test_poset_round_trip():
    p = gen_interval_order(5, 20)
    assert poset_from_dict(json.loads(poset_text(p, None, None))) == p


def test_poset_relations_are_generators_not_closure():
    p = build_poset(3, [(0, 1), (1, 2), (0, 2)])
    d = json.loads(poset_text(p, None, None))
    # the file stores the transitive reduction; closure happens on load
    assert d["relations"] == [[0, 1], [1, 2]]
    assert poset_from_dict(d) == p


@given(span_lists(max_size=16), st.booleans(), st.sampled_from([None, {"kind": "extend"}]))
@settings(max_examples=100)
def test_interval_order_dict_equals_the_built_orders(spans, named, meta):
    names = [f"e{v}" for v in range(len(spans))] if named else None
    q = interval_order_from_intervals(spans)
    assert interval_order_text(spans, names, meta) == poset_text(q, names, meta)


def test_interval_order_dict_rejects_a_names_mismatch():
    with pytest.raises(SizeMismatch, match="names must match element count"):
        interval_order_text([(1, 2), (3, 3)], ["a"], None)


@pytest.mark.parametrize("names", [[], ["a"], ["a", "b", "c"]])
def test_poset_text_rejects_a_names_mismatch(names):
    with pytest.raises(SizeMismatch, match="^names must match element count$"):
        poset_text(build_poset(2, [(0, 1)]), names, None)


def test_poset_names_carried():
    kp = kierstead(3)
    d = json.loads(poset_text(kp.poset, kp.names, {"kind": "kierstead", "q": 3}))
    assert poset_from_dict(d) == kp.poset
    assert d["names"] == list(kp.names)
    assert d["meta"]["q"] == 3


def test_order_round_trip():
    order = PresentationOrder((2, 0, 1))
    assert order_from_dict(parsed(order_to_dict(order))) == order


def test_ff_result_shape():
    kp = kierstead(3)
    res = first_fit_chains(kp.poset, kp.natural_order)
    d = parsed(ff_result_to_dict(res))
    assert d["assignment"] == list(res.assignment)
    assert len(d["chains"]) == res.chain_count
    assert min(d["assignment"]) == 1


def test_intervals_round_trip():
    spans = spans_from_blocks(block_sequence(gen_interval_order(1, 15), 2))
    d = parsed(intervals_to_dict(spans))
    assert min(lo for lo, _ in d["intervals"]) == 1  # block indices are 1-based
    assert tuple(map(tuple, d["intervals"])) == spans


def test_block_trace_fields():
    """The move trace the goldens write: one step per move, three fields each."""
    seq = block_sequence(gen_interval_order(4, 12), 2)
    trace = parsed(moves_of(seq))
    assert len(trace) == len(seq) - 1
    assert all(set(step) == {"removed", "added", "chain"} for step in trace)


def test_pd_round_trip():
    spans = ((1, 2), (2, 3), (3, 3))
    pd = PathDecomposition(((0,), (0, 1), (1, 2)))
    assert pd_from_dict(json.loads(pd_text(spans, 3))) == pd


def test_witness_payload():
    w = find_k_plus_k(build_poset(4, [(0, 1), (2, 3)]), 2)
    d = parsed(witness_to_dict(w))
    assert d == {"k": 2, "a": [0, 1], "b": [2, 3]}


BAG_LISTS = st.lists(st.lists(st.integers(0, 9), max_size=4), max_size=5)


@given(posets_with_orders(max_n=10), st.booleans(), st.sampled_from([None, {"kind": "gen"}]),
       span_lists(max_size=12), BAG_LISTS, st.lists(st.integers(0, 9), max_size=3),
       st.lists(st.integers(0, 9), max_size=3))
@settings(max_examples=150, deadline=None)
def test_documents_parse_to_the_list_built_ones(p_order, named, meta, spans, bags, a, b):
    """Every writer's document, serialised and parsed, is the document built
    here from lists, and the readers take it back to an equal object."""
    p, order = p_order
    names = [f"e{v}" for v in range(p.n)] if named else None
    poset_doc = {"n": p.n, "relations": [[u, v] for u, v in sorted(p.cover_pairs())]}
    if named:
        poset_doc["names"] = names
    if meta is not None:
        poset_doc["meta"] = meta
    d = json.loads(poset_text(p, names, meta))
    assert d == poset_doc
    assert poset_from_dict(d) == p

    q = interval_order_from_intervals(spans)
    d = json.loads(interval_order_text(spans, None, None))
    assert d == {"n": q.n, "relations": [[u, v] for u, v in sorted(q.cover_pairs())]}
    assert poset_from_dict(d) == q
    assert parsed(intervals_to_dict(spans)) == {"intervals": [[lo, hi] for lo, hi in spans]}

    d = parsed(order_to_dict(order))
    assert d == {"order": list(order.order)}
    assert order_from_dict(d) == order

    res = first_fit_chains(p, order)
    assert parsed(ff_result_to_dict(res)) == {
        "chains": [list(c) for c in res.partition], "assignment": list(res.assignment)}

    count = max((hi for _, hi in spans), default=0)
    d = json.loads(pd_text(spans, count))
    assert d == {"bags": [list(bag) for bag in bags_by_definition(spans, count)]}
    assert pd_from_dict(d) == PathDecomposition(bags_by_definition(spans, count))
    # the reader takes any bags, unsorted and with repeated ids, as they stand
    assert pd_from_dict({"bags": bags}) == PathDecomposition(tuple(map(tuple, bags)))

    w = KkWitness(tuple(a), tuple(b))
    assert parsed(witness_to_dict(w)) == {"k": len(a), "a": a, "b": b}


# the text writers against canonical_dumps of their reference dicts: names
# and meta keys with quotes, backslashes, control and non-ASCII characters,
# meta values nested in tuples with NaN and the infinities
TEXTS = st.text(st.sampled_from('a"\\\x00\x1f\n\x7f\u00e9\u03b1\u2028\U0001f600')
                | st.characters(), max_size=3)
META = st.none() | st.dictionaries(TEXTS, st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXTS,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(TEXTS, inner, max_size=3)),
    max_leaves=8,
), max_size=3)
ENDS = (st.integers(-3, 5) | st.fractions(-3, 5, max_denominator=4)
        | st.floats(-3, 5, allow_nan=False))


def names_for(n):
    return st.none() | st.lists(TEXTS, min_size=n, max_size=n)


NAMED_POSETS = posets(max_n=8).flatmap(lambda p: st.tuples(st.just(p), names_for(p.n)))
NAMED_SPANS = st.lists(st.tuples(ENDS, ENDS).map(lambda t: (min(t), max(t))), max_size=10).flatmap(
    lambda spans: st.tuples(st.just(spans), names_for(len(spans))))


@given(NAMED_POSETS, META)
@settings(max_examples=200, deadline=None)
def test_poset_text_is_the_reference_dumps(p_names, meta):
    p, names = p_names
    assert poset_text(p, names, meta) == canonical_dumps(poset_to_dict(p, names, meta))


@given(NAMED_SPANS, META)
@example(([], None), None)
@example(([(Fraction(1, 2), 1.5), (2, 2)], ["\u00e9", '"\\']), {"x": (float("nan"), (-1e400,))})
@settings(max_examples=200, deadline=None)
def test_interval_order_text_is_the_reference_dumps(spans_names, meta):
    spans, names = spans_names
    assert interval_order_text(spans, names, meta) == canonical_dumps(
        interval_order_to_dict(spans, names, meta))


# spans with a count at or past their largest right end, so trailing empty
# bags are common; a span past count is left to test_extension's pinned errors
SPANS_AND_COUNTS = span_lists(max_size=14).flatmap(lambda spans: st.tuples(
    st.just(spans),
    st.integers(0, 3).map(lambda extra: max((hi for _, hi in spans), default=0) + extra),
))


@given(SPANS_AND_COUNTS)
@example(([], 0))
@example(([], 1))  # the slide of no elements: {"bags":[[]]}
@example(([(2, 3), (2, 2)], 5))
@example(([(2, 3), (2, 2), (5, 5)], 6))
@settings(max_examples=300)
def test_pd_text_is_the_reference_dumps(spans_count):
    """Bags 1..count by definition, trailing empty bags too."""
    spans, count = spans_count
    assert pd_text(spans, count) == canonical_dumps({"bags": bags_by_definition(spans, count)})


@pytest.mark.parametrize("n", [0, 1])
def test_poset_text_of_zero_and_one_elements(n):
    p, names = build_poset(n, []), ["\u00e9\"\\\n"] * n
    text = ',"names":["\\u00e9\\"\\\\\\n"]' if n else ',"names":[]'
    assert poset_text(p, names, None) == '{"n":%d%s,"relations":[]}\n' % (n, text)
    assert poset_text(p, names, None) == canonical_dumps(poset_to_dict(p, names, None))


def test_pd_text_builds_no_bag_copies():
    """At its peak the writer holds its text, each bag's string and their
    list, not a tuple per bag as well."""
    seq = block_sequence(gen_interval_order(1, 2000), 2)
    spans = spans_from_blocks(seq)
    tracemalloc.start()
    try:
        text = pd_text(spans, len(seq))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_canonical_dumps_is_stable_and_newline_terminated():
    obj = {"b": 1, "a": [2, 3]}
    s = canonical_dumps(obj)
    assert s == '{"a":[2,3],"b":1}\n'
    assert json.loads(s) == obj
    # nested tuples as the writers pass them, a non-ASCII name and a meta dict
    # come out as json.dumps writes them with the same keys and separators
    p, names = build_poset(3, [(0, 1)]), ["\u03b1", "b", "\u00e7"]
    docs = [
        {"bags": ((0, 1), (1, 2), (2,))},
        ff_result_to_dict(first_fit_chains(p, PresentationOrder((2, 0, 1)))),
        poset_to_dict(p, names, {"generator": "stacked", "shape": (2, (1, 2)), "ratio": float("nan")}),
    ]
    for doc in docs:
        assert canonical_dumps(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert canonical_dumps(docs[2]) == (
        '{"meta":{"generator":"stacked","ratio":NaN,"shape":[2,[1,2]]},'
        '"n":3,"names":["\\u03b1","b","\\u00e7"],"relations":[[0,1]]}\n')
    assert poset_text(p, names, docs[2]["meta"]) == canonical_dumps(docs[2])


def test_write_and_read(tmp_path):
    path = tmp_path / "poset.json"
    p = gen_interval_order(9, 10)
    path.write_text(poset_text(p, None, None))
    assert poset_from_dict(read_json(path)) == p
    # canonical writer: identical content every time
    first = path.read_bytes()
    path.write_text(poset_text(p, None, None))
    assert path.read_bytes() == first


MALFORMED = [
    (pd_from_dict, {}),
    (pd_from_dict, "bags"),
    (pd_from_dict, {"bags": 3}),
    (pd_from_dict, {"bags": [[0, 1], 2]}),
    (pd_from_dict, {"bags": [[0, "1"]]}),
    (poset_from_dict, {"n": 2}),
    (order_from_dict, {"order": [0, 1.5]}),
    (pd_from_dict, {"bags": [[0, True]]}),
    # readers take parsed JSON, whose arrays are lists; a writer's tuples are refused
    (poset_from_dict, {"n": 2, "relations": ((0, 1),)}),
    (pd_from_dict, {"bags": ((0, 1),)}),
]


@pytest.mark.parametrize("loader, doc", MALFORMED,
                         ids=[f"{f.__name__}-{i}" for i, (f, _) in enumerate(MALFORMED)])
def test_malformed_document_raises_format_error(loader, doc):
    with pytest.raises(FormatError):
        loader(doc)


@pytest.mark.parametrize("loader", [poset_from_dict, order_from_dict, pd_from_dict],
                         ids=lambda f: f.__name__)
@given(doc=DOCUMENTS)
@settings(max_examples=300, deadline=None)
def test_arbitrary_documents_raise_only_library_errors(loader, doc):
    # the CLI turns a PosetFFError into exit 2; any other exception is a traceback
    try:
        loader(doc)
    except PosetFFError:
        pass


@pytest.mark.parametrize("loader, doc, message", [
    (order_from_dict, {"order": [0, 0]},
     "'order': presentation order must be a permutation of 0..n-1"),
])
def test_invalid_document_raises_a_pinned_format_error(loader, doc, message):
    with pytest.raises(FormatError) as info:
        loader(doc)
    assert type(info.value) is FormatError
    assert str(info.value) == message


@pytest.mark.parametrize("data, message", [
    (b'{"n": ' + b"1" * 5000 + b', "relations": []}', "limit (4300 digits)"),
    (b'{"n": 2, "relations": []}\xff', "can't decode byte 0xff"),
    (b'{"n": 2,', "Expecting property name"),
], ids=["long-int", "not-utf8", "truncated"])
def test_unparsable_file_raises_format_error(tmp_path, data, message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(FormatError) as info:
        read_json(path)
    assert message in str(info.value)
