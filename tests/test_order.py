import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetff import (
    CycleError,
    Graph,
    IdOutOfRange,
    InternalError,
    KkWitness,
    MalformedInterval,
    ParamError,
    Poset,
    SizeMismatch,
    SplitMix64,
    build_poset,
    dilworth_partition,
    find_k_plus_k,
    gen_interval_order,
    incomparability_graph,
    interval_cover_rows,
    interval_order_from_intervals,
    is_extension,
    is_interval_order,
    kierstead,
    poset_from_dict,
    poset_text,
    random_intervals,
    stacked,
    width_with_witness,
)
from posetff import order
from posetff.order import _maximum_matching, _reach, _transpose
from helpers import (
    antichain_poset,
    backtrack_kk,
    brute_contains_kk,
    brute_width,
    chain_poset,
    complete_multipartite_graph,
    graph_edges,
    incomparable,
    interval_cover_pairs,
    is_antichain_pairwise,
    is_chain_partition,
    is_kk_witness_pairwise,
    posets,
    reference_koenig,
    reference_matching,
    shuffled_posets,
    span_lists,
    spined_posets,
    transpose_by_strings,
)

TWO_PLUS_TWO = [(0, 1), (2, 3)]
NAN = float("nan")


def naive_interval_succ(intervals):
    """Successor masks straight from the definition: u < v iff right_u < left_v."""
    return [
        sum(1 << v for v, (left, _) in enumerate(intervals) if right < left)
        for _, right in intervals
    ]


def interval_lists():
    """Closed intervals over ints, Fractions and floats, mixed, with the first
    two repeated as duplicates; the narrow ranges force ties (right == left
    is not <)."""
    endpoints = st.one_of(
        st.integers(0, 6),
        st.fractions(Fraction(0), Fraction(3), max_denominator=4),
        st.floats(-2.0, 2.0, allow_nan=False),
    )
    intervals = st.lists(st.tuples(endpoints, endpoints).map(sorted).map(tuple), max_size=14)
    return intervals.map(lambda ivs: ivs + ivs[:2])


class TestBuildPoset:
    def test_transitivity_forced(self):
        p = build_poset(4, [(0, 1), (1, 2)])
        assert p.less(0, 2)
        assert not p.less(2, 0)
        assert incomparable(p, 0, 3)

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            build_poset(3, [(0, 1), (1, 0)])

    def test_self_pair_rejected(self):
        with pytest.raises(CycleError):
            build_poset(2, [(0, 0)])

    def test_id_out_of_range(self):
        with pytest.raises(IdOutOfRange):
            build_poset(3, [(0, 5)])

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleError):
            build_poset(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_kierstead_rule_gives_width_two(self):
        kp = kierstead(5)
        assert kp.poset.n == 15
        width, witness = width_with_witness(kp.poset)
        assert width == 2
        assert kp.poset.is_antichain(witness)

    def test_empty(self):
        p = build_poset(0, [])
        assert p.n == 0
        assert width_with_witness(p) == (0, ())
        assert dilworth_partition(p) == ()

    @given(posets())
    @settings(max_examples=60)
    def test_axioms_hold_after_closure(self, p):
        for u in range(p.n):
            assert not p.less(u, u)
            for v in range(p.n):
                if p.less(u, v):
                    assert not p.less(v, u)
                    for w in range(p.n):
                        if p.less(v, w):
                            assert p.less(u, w)


def assert_checked_copy_agrees(p):
    """The checked constructor accepts p's masks, and p's predecessor masks
    are the transpose of its successor masks."""
    succ = [p.succ_mask(u) for u in range(p.n)]
    assert Poset(p.n, succ) == p
    assert [p.pred_mask(u) for u in range(p.n)] == list(transpose_by_strings(succ, p.n))


class TestConstructorsAgreeWithTheCheckedPoset:
    """Every constructor's masks pass ``Poset(n, succ)`` and mirror each other."""

    @given(st.one_of(posets(), spined_posets(), shuffled_posets()))
    @settings(max_examples=200, deadline=None)
    def test_build_poset(self, p):
        assert_checked_copy_agrees(p)

    @given(st.one_of(interval_lists(), span_lists(max_size=24)))
    @settings(max_examples=200)
    def test_interval_order_from_intervals(self, intervals):
        assert_checked_copy_agrees(interval_order_from_intervals(intervals))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 70])
    def test_chain_and_antichain(self, n):
        assert_checked_copy_agrees(chain_poset(n))
        assert_checked_copy_agrees(antichain_poset(n))

    @pytest.mark.parametrize("n, pairs, error, message", [
        (3, [(0, 1), (0, 5)], IdOutOfRange, "pair (0,5) outside [0,3)"),
        (3, [(-1, 2)], IdOutOfRange, "pair (-1,2) outside [0,3)"),
        (-1, [], IdOutOfRange, "negative element count"),
        (2, [(0, 1), (1, 1)], CycleError, "element 1 related to itself"),
        (4, [(0, 1), (1, 2), (2, 3), (3, 1)], CycleError, "generator pairs contain a directed cycle"),
        (2, [(0, 1), (0, 1), (1, 0)], CycleError, "generator pairs contain a directed cycle"),
    ])
    def test_build_poset_pinned_errors(self, n, pairs, error, message):
        with pytest.raises(error) as info:
            build_poset(n, pairs)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_loader_names_mismatch(self):
        with pytest.raises(SizeMismatch) as info:
            poset_from_dict({"n": 2, "relations": [[0, 1]], "names": ["a"]})
        assert type(info.value) is SizeMismatch
        assert str(info.value) == "names must match element count"

    def test_negative_counts(self):
        for build in (chain_poset, antichain_poset):
            with pytest.raises(IdOutOfRange, match="^negative element count$"):
                build(-1)

    def test_loading_runs_neither_checked_kernel(self, monkeypatch):
        """Loading a file and building an interval order adopt their masks:
        with ``_reach`` and ``_transpose`` broken they still give the posets
        that the checked constructor accepts."""
        doc = json.loads(poset_text(stacked(4, 3).poset, None, None))
        spans = [(v % 7, v % 7 + v % 3) for v in range(40)]
        want_spans = Poset(40, naive_interval_succ(spans))

        def broken(*args):
            raise AssertionError("a checked kernel ran")

        monkeypatch.setattr(order, "_reach", broken)
        monkeypatch.setattr(order, "_transpose", broken)
        p = poset_from_dict(doc)
        q = interval_order_from_intervals(spans)
        monkeypatch.undo()
        assert p == stacked(4, 3).poset
        assert q == want_spans
        assert_checked_copy_agrees(p)
        assert_checked_copy_agrees(q)


@pytest.mark.parametrize("call", [
    lambda: Poset(2, [0, 0], ["a", "b"]),
    lambda: interval_order_from_intervals([(0, 1), (2, 3)], ["a", "b"]),
    lambda: build_poset(2, [], ["a", "b"]),
    lambda: gen_interval_order(0, 3, 10),
    lambda: random_intervals(0, 3, 10),
], ids=["Poset-names", "interval-order-names", "build-poset-names", "gen-interval-range",
        "random-intervals-range"])
def test_retired_keywords_are_refused(call):
    """Names stay in the documents, never on a poset, and interval ends are
    drawn from [0, 2n) alone: the old keywords are not accepted."""
    with pytest.raises(TypeError):
        call()


class TestPosetConstructor:
    """Error class and message of ``Poset(n, succ)`` on fixed malformed masks."""

    @pytest.mark.parametrize("n, succ, error, message", [
        (2, [1, 0], CycleError, "element 0 below itself"),
        (3, [2, 1, 0], CycleError, "both 0 < 1 and 1 < 0"),
        (3, [2, 4, 0], CycleError, "relation below 0 is not transitively closed"),
        # u = 0 is not closed and u = 3, 4 form a 2-cycle: the lower id reports first
        (5, [2, 4, 0, 16, 8], CycleError, "relation below 0 is not transitively closed"),
        (2, [0], SizeMismatch, "expected 2 masks, got 1"),
        (2, [8, 0], IdOutOfRange, "mask of 0 mentions ids >= 2"),
        (2, [-1, 0], IdOutOfRange, "mask of 0 mentions ids >= 2"),
        (-1, [], IdOutOfRange, "negative element count"),
        (2, [2.0, 0], ParamError, "mask of 0 is not an int"),
        (2, [2, "0"], ParamError, "mask of 1 is not an int"),
        # a bool is refused before the range check of an earlier bad row
        (3, [8, True, 0], ParamError, "mask of 1 is not an int"),
    ])
    def test_pinned_errors(self, n, succ, error, message):
        with pytest.raises(error) as info:
            Poset(n, succ)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("succ, error, message", [
        ([0, 8, 0], IdOutOfRange, "mask of 1 mentions ids >= 3"),
        ([0, -2, 0], IdOutOfRange, "mask of 1 mentions ids >= 3"),
        # ids run in order, so an earlier element's closure test reads the later bad row first
        ([2, 8, 0], CycleError, "relation below 0 is not transitively closed"),
        ([2, -1, 0], CycleError, "both 0 < 1 and 1 < 0"),
    ])
    def test_out_of_range_rows_fail_in_id_order(self, succ, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            Poset(3, succ)

    @given(posets(max_n=12))
    @settings(max_examples=80)
    def test_pred_mask_mirrors_succ_mask(self, p):
        for v in range(p.n):
            assert p.pred_mask(v) == sum(1 << u for u in range(p.n) if p.less(u, v))

    # shuffled ids do not follow the order, so the cover walk takes a linear extension
    @given(posets(max_n=12) | shuffled_posets(max_n=24))
    @settings(max_examples=120)
    def test_cover_pairs_are_the_transitive_reduction(self, p):
        n = p.n
        covers = [
            (u, v) for u in range(n) for v in range(n)
            if p.less(u, v) and not any(p.less(u, x) and p.less(x, v) for x in range(n))
        ]
        assert p.cover_pairs() == covers
        assert p.cover_rows() == [[v for u2, v in covers if u2 == u] for u in range(n)]


class TestWidthAndDilworth:
    def test_single_chain(self):
        width, witness = width_with_witness(chain_poset(5))
        assert width == 1
        assert len(witness) == 1

    def test_antichain(self):
        width, witness = width_with_witness(antichain_poset(7))
        assert width == 7
        assert sorted(witness) == list(range(7))

    def test_stacked_width(self):
        assert width_with_witness(stacked(5, 4).poset)[0] == 4

    def test_antichain_partition(self):
        cp = dilworth_partition(antichain_poset(3))
        assert len(cp) == 3
        assert all(len(c) == 1 for c in cp)

    def test_kierstead_two_chains(self):
        cp = dilworth_partition(kierstead(5).poset)
        assert len(cp) == 2
        assert is_chain_partition(kierstead(5).poset, cp)

    def test_two_plus_two_partition(self):
        cp = dilworth_partition(build_poset(4, TWO_PLUS_TWO))
        assert len(cp) == 2

    def test_free_vertex_in_the_dead_set_is_refused(self, monkeypatch):
        # on 0 < 1 with nothing matched, the dead right vertex 1 is free
        monkeypatch.setattr(order, "_maximum_matching", lambda p: ([-1, -1], [-1, -1], 1 << 1))
        with pytest.raises(InternalError, match="^an augmenting path survived the maximum matching$"):
            width_with_witness(chain_poset(2))

    def test_witness_of_the_wrong_size_is_refused(self, monkeypatch):
        # on 0 < 1 < 2, a match_r that leaves 1 free counts a width of 2
        monkeypatch.setattr(order, "_maximum_matching", lambda p: ([1, 2, -1], [-1, -1, 1], 0))
        with pytest.raises(InternalError, match="^Koenig witness has 1 elements, width is 2$"):
            width_with_witness(chain_poset(3))

    def test_witness_that_is_no_antichain_is_refused(self, monkeypatch):
        # on 0 < 1 with 2 apart, nothing matched passes the size and path checks
        monkeypatch.setattr(order, "_maximum_matching", lambda p: ([-1] * 3, [-1] * 3, 0))
        with pytest.raises(InternalError, match="^Koenig witness is not an antichain$"):
            width_with_witness(build_poset(3, [(0, 1)]))

    @given(posets())
    @settings(max_examples=60)
    def test_width_matches_partition_and_brute_force(self, p):
        width, witness = width_with_witness(p)
        cp = dilworth_partition(p)
        assert len(witness) == width == len(cp)
        assert p.is_antichain(witness)
        assert is_chain_partition(p, cp)
        assert width == brute_width(p)


# The matching pinned by sha256, width and all, as it stood before failed
# searches kept their visited sets: (poset, width, dilworth_partition chains
# as a JSON list of lists, width_with_witness antichain as a JSON list).
PINNED_PARTITIONS = [
    ("gen_interval_order(1, 2000)", lambda: gen_interval_order(1, 2000), 1019,
     "ac08f82710c2fbafbcfbe10c34ff5fc34d49df4bd0be92b2b2ba52049889fcc6",
     "2f21cebb535e7433fee961b73fa50c5cb61c07cdb824faeb3b6f754bf2bd32c7"),
    ("stacked(30, 10)", lambda: stacked(30, 10).poset, 10,
     "df4eaccb776b757c2d568f8770b7f4204244ed7b487d554ef0a052bbb44b8e00",
     "ab7255a6b2148ed60330f8d371e3926858b796a6adde14302b5bc303da701b28"),
    ("gen_interval_order(0, 300)", lambda: gen_interval_order(0, 300), 159,
     "24ee63b5531cf9c1cfc338169a231e9a18d6cd11c3cdc82a2137d947468bbe47",
     "bbf2c2ee4d02e9ab2614978f258d225f77b95ecd50bd83588329a5ee6d1e96f2"),
    ("gen_interval_order(1, 300)", lambda: gen_interval_order(1, 300), 164,
     "d295e8406fe46c834d2fde822c3075ac8e17f218e36597b89a7926cdcae60808",
     "9fc2f4366f589c9eacd161a42a51591cbcaeebd659464f90ff33bdb988f556b0"),
    ("gen_interval_order(2, 300)", lambda: gen_interval_order(2, 300), 162,
     "6bb98608594e91cb8a1bd0af4a9993c95547b5850bd15b85e9e1305e154d593e",
     "2ca760e0dcf0bc2204c20b6f94f0db54dde97ebfb7833a6fb1515291df66da3b"),
]


def _json_sha256(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _narrow_spans(seed, n, span):
    """Spans shaped like the certify-deep benchmark's: left end uniform on
    [0, n), length uniform on [0, span), so width about span.  Most searches
    after the first failure augment with failed sets left out."""
    rng = SplitMix64(seed)
    spans = []
    for _ in range(n):
        left = rng.below(n)
        spans.append((left, left + rng.below(span)))
    return spans


def _greedy_roots(p):
    """The elements the greedy seed leaves unmatched on the left, in id order."""
    taken = 0
    roots = []
    for u in range(p.n):
        free = p.succ_mask(u) & ~taken
        taken |= free & -free
        if not free:
            roots.append(u)
    return roots


def _assert_equals_reference(p):
    """The matching, its dead set and the width witness equal the references':
    the dead set is Koenig's Z_R, and the witness is Z_L minus Z_R."""
    match_l, match_r = reference_matching(p)
    zl, zr = reference_koenig(p)
    assert _maximum_matching(p) == (match_l, match_r, zr)
    assert width_with_witness(p) == (match_r.count(-1), tuple(order.iter_bits(zl & ~zr)))


class TestMaximumMatching:
    """``_maximum_matching`` against the copy of its earlier search: the same
    (match_l, match_r), so the same chains, block moves and files, and a dead
    set that is Koenig's Z_R, so the same width witness."""

    @given(shuffled_posets())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_on_shuffled_posets(self, p):
        _assert_equals_reference(p)

    @given(span_lists(max_size=40))
    @example(_narrow_spans(0, 400, 15))
    @example(_narrow_spans(1, 400, 15))
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_on_interval_orders(self, spans):
        _assert_equals_reference(interval_order_from_intervals(spans))

    @pytest.mark.parametrize("k, w", [(3, 2), (3, 5), (4, 3), (5, 4), (6, 6), (8, 3)])
    def test_equals_reference_on_stacked(self, k, w):
        _assert_equals_reference(stacked(k, w).poset)

    @pytest.mark.parametrize("q", [*range(1, 10), 30, 40])
    def test_equals_reference_on_kierstead(self, q):
        _assert_equals_reference(kierstead(q).poset)

    def test_empty_poset(self):
        p = Poset(0, [])
        assert _maximum_matching(p) == ([], [], 0)
        assert width_with_witness(p) == (0, ())
        _assert_equals_reference(p)

    def test_searches_after_a_run_of_failures(self):
        # the greedy seed leaves roots 4, 5, 6, 7, 9, 10; roots 5, 6 and 7 fail
        # in a row with successors to visit, then 9 and 10 augment with those
        # failed sets left out: keeping 9's own visits out of 10's search, a
        # free-vertex mask left stale or a goal taken from the wrong end
        # changes the result
        p = build_poset(11, [(0, 7), (1, 8), (1, 10), (2, 0), (2, 6), (3, 7), (5, 4),
                             (6, 4), (7, 4), (8, 5), (8, 9), (9, 2), (10, 2)])
        match_l, match_r, dead = _maximum_matching(p)
        _assert_equals_reference(p)
        assert match_l == [4, 5, 6, 7, -1, -1, -1, -1, 9, 0, 2]
        assert match_r == [9, -1, 10, -1, 0, 1, 2, 3, -1, 8, -1]
        # root 5 kills 4 and 7 (through 4's partner 0); roots 6 and 7 then
        # find every successor dead, and the augmentations leave both dead
        assert dead == 1 << 4 | 1 << 7
        assert width_with_witness(p) == (4, (0, 3, 5, 6))
        # a root that fails stays unmatched and one that augments stays matched
        roots = _greedy_roots(p)
        assert roots == [4, 5, 6, 7, 9, 10]
        assert [match_l[r] == -1 for r in roots] == [True, True, True, True, False, False]
        assert all(p.succ_mask(r) for r in (5, 6, 7))

    def test_dead_set_joins_failed_searches_across_an_augmentation(self):
        # three components: root 2 fails visiting 1, root 6 augments (6 takes
        # 4 from 3, which moves to 5), and root 9 fails visiting 8
        p = build_poset(10, [(0, 1), (2, 1), (3, 4), (3, 5), (6, 4), (7, 8), (9, 8)])
        match_l, _, dead = _maximum_matching(p)
        _assert_equals_reference(p)
        assert _greedy_roots(p) == [1, 2, 4, 5, 6, 8, 9]
        assert match_l == [1, -1, -1, 5, -1, -1, 4, 8, -1, -1]
        assert dead == 1 << 1 | 1 << 8
        assert width_with_witness(p) == (6, (0, 2, 4, 5, 7, 9))

    @pytest.mark.parametrize(
        "name, build, width, chains_sha256, antichain_sha256",
        PINNED_PARTITIONS,
        ids=[case[0] for case in PINNED_PARTITIONS],
    )
    def test_pinned_partitions(self, name, build, width, chains_sha256, antichain_sha256):
        p = build()
        cp = dilworth_partition(p)
        got_width, witness = width_with_witness(p)
        assert len(cp) == got_width == width
        assert _json_sha256([list(c) for c in cp]) == chains_sha256
        assert _json_sha256(list(witness)) == antichain_sha256


class TestGraph:
    def test_equality_ignores_edge_order_direction_and_duplicates(self):
        a = Graph(4, [(0, 1), (1, 2), (2, 3)])
        b = Graph(4, [(3, 2), (1, 0), (2, 1), (0, 1), (2, 3)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(4, [(0, 1), (1, 2)])
        assert Graph(3, []) != Graph(4, [])

    def test_edges_once_in_increasing_order(self):
        g = Graph(5, [(4, 0), (2, 1), (0, 4), (3, 0), (1, 2), (0, 1)])
        assert graph_edges(g) == [(0, 1), (0, 3), (0, 4), (1, 2)]
        assert graph_edges(Graph(0, [])) == []

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Graph(3, [(0, 1), (1, 1)]), ParamError, "loop at 1"),
        (lambda: Graph(-1, []), IdOutOfRange, "negative vertex count"),
        (lambda: Graph(3, [(0, 3)]), IdOutOfRange, "edge (0,3) outside [0,3)"),
    ], ids=["loop", "negative-size", "id-out-of-range"])
    def test_pinned_errors(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error
        assert str(info.value) == message

    @given(st.data())
    @settings(max_examples=60)
    def test_any_edge_list_gives_its_normal_form(self, data):
        n = data.draw(st.integers(2, 9))
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda t: t[0] != t[1]),
                                   max_size=30))
        norm = sorted({(min(u, v), max(u, v)) for u, v in pairs})
        g = Graph(n, pairs)
        assert graph_edges(g) == norm
        assert g == Graph(n, norm)
        assert hash(g) == hash(Graph(n, norm))


class TestIncomparabilityGraph:
    def test_chain_is_edgeless(self):
        assert graph_edges(incomparability_graph(chain_poset(6))) == []

    def test_antichain_is_complete(self):
        g = incomparability_graph(antichain_poset(5))
        assert len(graph_edges(g)) == 10

    @pytest.mark.parametrize("w,k", [(2, 3), (3, 4), (4, 3)])
    def test_incomparable_chains_give_multipartite(self, w, k):
        # w chains of size k-1, pairwise incomparable: ids grouped per chain
        pairs = []
        for c in range(w):
            base = c * (k - 1)
            pairs.extend((base + i, base + i + 1) for i in range(k - 2))
        p = build_poset(w * (k - 1), pairs)
        g = incomparability_graph(p)
        assert g == complete_multipartite_graph([k - 1] * w)

    @given(posets(max_n=12))
    @settings(max_examples=80)
    def test_matches_definition(self, p):
        n = p.n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if incomparable(p, u, v)]
        g = incomparability_graph(p)
        assert g == Graph(n, pairs)
        assert g.n == n and graph_edges(g) == pairs
        assert incomparability_graph(p) is g

    @pytest.mark.parametrize("build", [
        lambda: Poset(4, [0b1100, 0b1000, 0, 0]),
        lambda: build_poset(5, [(0, 1), (1, 2), (3, 4)]),
        lambda: interval_order_from_intervals([(0, 1), (1, 3), (2, 4), (5, 6), (0, 6)]),
        lambda: stacked(4, 3).poset,
    ], ids=["Poset", "build_poset", "interval_order_from_intervals", "stacked"])
    def test_kept_graph_matches_definition(self, build):
        p = build()
        g = incomparability_graph(p)
        assert incomparability_graph(p) is g
        pairs = [(u, v) for u in range(p.n) for v in range(u + 1, p.n) if incomparable(p, u, v)]
        assert g == Graph(p.n, pairs)


class TestFindKPlusK:
    def test_rejects_k_below_one(self):
        for k in (0, 1):
            with pytest.raises(ParamError, match="^k must be at least 2$"):
                find_k_plus_k(chain_poset(2), k)

    def test_two_plus_two_witness_is_the_defining_pair(self):
        p = build_poset(4, TWO_PLUS_TWO)
        witness = find_k_plus_k(p, 2)
        assert witness is not None
        assert witness.a == (0, 1)
        assert witness.b == (2, 3)

    def test_witness_tops_avoid_the_other_bottom(self):
        # 0's least top 1 lies above 3, so chain a must end at 2 instead
        p = build_poset(5, [(0, 1), (0, 2), (3, 1), (3, 4)])
        witness = find_k_plus_k(p, 2)
        assert (witness.a, witness.b) == ((0, 2), (3, 4))

    def test_witness_chains_walk_down_from_their_tops(self):
        # the open interval (0, 9) has layers {1, 2} and {3, 4} with 2 < 3 and
        # 1 < 4: from 9 the walk takes 3, then 2, the layer's least element below 3
        relations = [(0, 1), (0, 2), (2, 3), (1, 4), (3, 9), (4, 9), (10, 11), (11, 12), (12, 13)]
        witness = find_k_plus_k(build_poset(14, relations), 4)
        assert (witness.a, witness.b) == ((0, 2, 3, 9), (10, 11, 12, 13))

    def test_interval_orders_are_two_two_free(self):
        for seed in (1, 7, 23):
            p = interval_order_from_intervals(
                [((s := (seed * 31 + i * 7) % 19), s + (i % 5)) for i in range(12)]
            )
            assert find_k_plus_k(p, 2) is None

    def test_kierstead_has_no_long_pattern(self):
        for q in (2, 3, 4):
            assert find_k_plus_k(kierstead(q).poset, q + 1) is None

    @given(posets(max_n=9))
    @settings(max_examples=60)
    def test_matches_subset_oracle(self, p):
        for k in (2, 3):
            got = find_k_plus_k(p, k)
            assert (got is not None) == brute_contains_kk(p, k)
            if got is not None:
                assert got.is_valid(p)

    @given(st.one_of(posets(max_n=24), spined_posets(max_n=24)), st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_backtracking(self, p, k):
        got = find_k_plus_k(p, k)
        assert (got is None) == (backtrack_kk(p, k) is None)
        if got is not None:
            assert got.is_valid(p) and got.k == k

    @given(spined_posets(max_n=12), st.integers(2, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_endpoint_lemma(self, p, k, data):
        # ids increase along every chain of these posets, so the id-sorted
        # k-subsets that are chains are all the k-chains
        chains = [c for c in combinations(range(p.n), k)
                  if all(p.less(u, v) for u, v in zip(c, c[1:]))]
        if not chains:
            return
        a = data.draw(st.sampled_from(chains))
        b = data.draw(st.sampled_from(chains))
        pairwise = not set(a) & set(b) and all(incomparable(p, u, v) for u in a for v in b)
        assert pairwise == (not p.less(a[0], b[-1]) and not p.less(b[0], a[-1]))

    def test_north_star_interval_order_is_two_two_free(self):
        assert find_k_plus_k(gen_interval_order(1, 2000), 2) is None

    def test_north_star_stacked_adversary_is_free_of_its_pattern(self):
        assert find_k_plus_k(stacked(30, 10).poset, 30) is None

    def test_north_star_planted_pattern_is_found(self):
        # gen_interval_order(1, 2000) beside two incomparable 30-chains
        base = gen_interval_order(1, 2000)
        n = base.n + 60
        succ = [base.succ_mask(u) for u in range(base.n)]
        for start in (base.n, base.n + 30):
            top = 1 << (start + 30)
            succ += [top - (2 << u) for u in range(start, start + 30)]
        p = Poset(n, succ)
        witness = find_k_plus_k(p, 30)
        assert witness is not None and witness.k == 30 and witness.is_valid(p)


class TestReach:
    @given(st.integers(1, 40).filter(lambda n: n % 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_definition_with_distinct_keys_and_rows(self, n, data):
        # key bits at or above n are drawn too, and must be ignored
        keys = data.draw(st.lists(st.integers(0, (1 << (n + 8)) - 1), min_size=n, max_size=n))
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        want = []
        for key in keys:
            acc = 0
            for v in range(n):
                if (key >> v) & 1:
                    acc |= rows[v]
            want.append(acc)
        assert _reach(keys, rows, n) == want


def transpose_cases(n):
    """Rows of n x n bit matrices: empty, full, the diagonal and the
    anti-diagonal, one bit in the last corner, one bit in each row's last
    column, and two seeded random fills, one sparse and one dense."""
    full = (1 << n) - 1
    rng = random.Random(n)
    yield [0] * n
    yield [full] * n
    yield [1 << u for u in range(n)]
    yield [1 << (n - 1 - u) for u in range(n)]
    yield [0] * (n - 1) + [1 << (n - 1)] if n else []
    yield [1 << (n - 1)] * n if n else []
    yield [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
    yield [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(n)]


def test_transpose_equals_reference():
    """The tile kernel equals the string transpose at every size up to 136
    (each residue mod 8, the word edges 63-65 and 127-129) and past them."""
    for n in [*range(137), 255, 256, 257, 1001]:
        for rows in transpose_cases(n):
            assert _transpose(rows, n) == transpose_by_strings(rows, n), n


@given(st.integers(0, 80).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
@settings(max_examples=200)
def test_transpose_equals_reference_on_drawn_rows(case):
    n, rows = case
    assert _transpose(rows, n) == transpose_by_strings(rows, n)


class TestIsExtension:
    def test_reflexive(self):
        p = build_poset(3, [(0, 1)])
        assert is_extension(p, p)

    def test_total_order_extends_antichain(self):
        assert is_extension(chain_poset(3), antichain_poset(3))

    def test_antichain_does_not_extend_chain(self):
        assert not is_extension(antichain_poset(3), chain_poset(3))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            is_extension(chain_poset(3), chain_poset(4))


class TestIntervalOrders:
    def test_disjoint_intervals_form_chain(self):
        p = interval_order_from_intervals([(0, 1), (2, 3)])
        assert p.less(0, 1)

    def test_overlapping_intervals_are_incomparable(self):
        p = interval_order_from_intervals([(0, 2), (1, 3)])
        assert incomparable(p, 0, 1)

    def test_point_pair_with_cover(self):
        p = interval_order_from_intervals([(0, 0), (1, 1), (0, 1)])
        assert p.less(0, 1)
        assert incomparable(p, 0, 2)
        assert incomparable(p, 1, 2)

    @given(interval_lists())
    @settings(max_examples=150)
    def test_matches_definition(self, intervals):
        p = interval_order_from_intervals(intervals)
        assert [p.succ_mask(u) for u in range(p.n)] == naive_interval_succ(intervals)

    def test_empty_and_touching(self):
        assert interval_order_from_intervals([]).n == 0
        p = interval_order_from_intervals([(0, 1), (1, 2), (Fraction(3, 2), 2.5), (1, 1)])
        assert [p.succ_mask(u) for u in range(4)] == [0b0100, 0, 0, 0b0100]

    def test_malformed(self):
        with pytest.raises(MalformedInterval):
            interval_order_from_intervals([(2, 1)])

    @given(st.one_of(interval_lists(), span_lists(max_size=24)))
    @settings(max_examples=300)
    def test_cover_rows_match_the_built_order(self, intervals):
        q = interval_order_from_intervals(intervals)
        assert interval_cover_rows(intervals) == q.cover_rows()
        assert interval_cover_pairs(intervals) == sorted(q.cover_pairs())

    def test_cover_rows_pinned(self):
        assert interval_cover_rows([]) == []
        assert interval_cover_rows([(1, 1), (1, 1), (2, 2), (3, 3)]) == [[2], [2], [3], []]
        mixed = [(0, 1), (1, 2), (Fraction(3, 2), 2.5), (1, 1)]
        assert interval_cover_rows(mixed) == [[2], [], [], [2]]
        # (2, 5) begins after (0, 0) ends, but (1, 1) lies between them
        assert interval_cover_rows([(2, 5), (0, 0), (1, 1)]) == [[], [2], [0]]

    def test_cover_rows_malformed(self):
        with pytest.raises(MalformedInterval, match=r"interval \(2, 1\) has left > right"):
            interval_cover_rows([(0, 1), (2, 1)])

    @pytest.mark.parametrize("bad", [(NAN, NAN), (NAN, 1), (0, NAN), (NAN, 0.5), (0.5, NAN)])
    @pytest.mark.parametrize("build", [interval_order_from_intervals, interval_cover_rows])
    def test_nan_ends_rejected(self, bad, build):
        for at in range(3):
            spans = [(0, 1), (2, 3)]
            spans.insert(at, bad)
            with pytest.raises(MalformedInterval) as info:
                build(spans)
            assert str(info.value) == f"interval {bad!r} has ends that are not ordered"

    def test_two_plus_two_is_not_interval(self):
        assert not is_interval_order(build_poset(4, TWO_PLUS_TWO))

    def test_interval_constructions_pass(self):
        p = interval_order_from_intervals([(i % 4, i % 4 + i % 3) for i in range(9)])
        assert is_interval_order(p)

    def test_kierstead_three_by_subset_scan(self):
        p = kierstead(3).poset
        expected = not brute_contains_kk(p, 2)
        assert is_interval_order(p) == expected

    @given(posets())
    @settings(max_examples=80)
    def test_agrees_with_pattern_search(self, p):
        assert is_interval_order(p) == (find_k_plus_k(p, 2) is None)
        assert is_interval_order(p) == (not brute_contains_kk(p, 2))


class TestChainSortAndTypes:
    def test_chain_validity(self):
        p = chain_poset(3)
        assert p.is_chain((0, 1, 2))
        assert not p.is_chain((2, 1))

    def test_antichain_validity(self):
        p = build_poset(3, [(0, 1)])
        assert p.is_antichain((0, 2))
        assert not p.is_antichain((0, 1))

    def test_empty_selection_is_a_chain_and_an_antichain(self):
        for n in (0, 3):
            assert build_poset(n, []).is_chain(()) and build_poset(n, []).is_antichain(())

    @given(shuffled_posets(), st.data())
    @settings(max_examples=150)
    def test_antichain_test_is_the_pairwise_definition(self, p, data):
        # the mask test against every pair: sub-lists of a width antichain, with
        # repeats, and lists of any ids, negative and >= n among them
        _, antichain = width_with_witness(p)
        drawn = data.draw(st.lists(st.sampled_from(antichain), max_size=8) if antichain
                          else st.just([]))
        ids = data.draw(st.lists(st.integers(-2, p.n + 1), max_size=6))
        for elems in ((), antichain, drawn, ids, (0, 0), (-1,), (p.n,), (p.n - 1, -1)):
            assert p.is_antichain(elems) == is_antichain_pairwise(p, elems), elems

    @given(spined_posets(max_n=12), st.integers(1, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_witness_test_is_the_pairwise_definition(self, p, k, data):
        # ids increase along every chain of these posets, so the id-sorted
        # k-subsets that are chains are all the k-chains; two drawn ones may
        # share elements, and lists of any ids need not be chains at all
        chains = [c for c in combinations(range(p.n), k)
                  if all(p.less(u, v) for u, v in zip(c, c[1:]))]
        pairs = [((0,), (0,)), ((), ())]
        if chains:
            pairs.append((data.draw(st.sampled_from(chains)), data.draw(st.sampled_from(chains))))
        ids = st.lists(st.integers(-1, p.n), min_size=k, max_size=k).map(tuple)
        pairs.append((data.draw(ids), data.draw(ids)))
        found = find_k_plus_k(p, k) if k >= 2 else None
        if found is not None:
            pairs.append((found.a, found.b))
        for a, b in pairs:
            assert KkWitness(a, b).is_valid(p) == is_kk_witness_pairwise(p, a, b), (a, b)

    @pytest.mark.parametrize("relations, check", [
        ([(2, 0)], lambda p: p.is_chain((-1, 0))),  # -1 would read element 2's row
        ([(2, 0)], lambda p: p.is_chain((3,))),
        ([(2, 0)], lambda p: p.is_antichain((0, 9))),
        ([(2, 0)], lambda p: p.is_antichain((-1,))),
        ([(2, 0)], lambda p: p.is_antichain((1, -2))),
        ([], lambda p: KkWitness((0,), (5,)).is_valid(p)),
        ([], lambda p: KkWitness((-1,), (0,)).is_valid(p)),
        ([], lambda p: p.is_antichain((0, 0))),
        ([], lambda p: KkWitness((0,), (0,)).is_valid(p)),
        ([(2, 0)], lambda p: p.is_chain((0.0,))),
        ([(2, 0)], lambda p: p.is_chain((2.0, 0.0))),
        ([(2, 0)], lambda p: p.is_chain((2, 0.0))),
        ([(2, 0)], lambda p: p.is_antichain((0.5,))),
        ([(2, 0)], lambda p: p.is_antichain(("a",))),
        ([], lambda p: KkWitness((0.0,), (2,)).is_valid(p)),
    ], ids=["chain-negative", "chain-past-n", "antichain-past-n", "antichain-negative",
            "antichain-negative-pair", "witness-past-n", "witness-negative", "antichain-repeated",
            "witness-shared", "chain-float", "chain-floats", "chain-later-float",
            "antichain-float", "antichain-str", "witness-float"])
    def test_ids_outside_the_poset_are_refused(self, relations, check):
        """The public validators say False, without raising or reading
        another element's row, for data read from a file."""
        assert check(build_poset(3, relations)) is False
