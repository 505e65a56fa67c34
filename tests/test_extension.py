import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetff import (
    BlockSequence,
    CoverageError,
    Graph,
    InternalError,
    KkWitness,
    MalformedInterval,
    ParamError,
    SplitMix64,
    PathDecomposition,
    block_sequence,
    build_poset,
    canonical_dumps,
    dilworth_partition,
    find_k_plus_k,
    gen_interval_order,
    gen_kk_free,
    gen_random_poset,
    incomparability_graph,
    interval_clique_number,
    interval_completion,
    is_extension,
    is_interval_order,
    kierstead,
    path_decomposition_exact,
    pathwidth_exact,
    pd_text,
    spans_from_blocks,
    stacked,
    validate_path_decomposition,
    width_with_witness,
    witness_to_dict,
)
import posetff.extension as extension_module
from posetff.cli import main
from posetff.order import _spans_cover_edges
from helpers import (
    antichain_poset,
    bags_by_definition,
    chain_poset,
    empty_graph,
    graph_edges,
    graphs,
    moves_of,
    path_graph,
    posets,
    shuffled_posets,
    slide_decomposition,
    slide_order,
    spined_posets,
)

TWO_PLUS_TWO = [(0, 1), (2, 3)]
WITNESS_COUNT = 234
WITNESS_DIGEST = "0bdc5f14d8885c8fed10e26aa7dab2f25431932609d60a69a0a2026ab0daeaa9"
SLIDE_COUNT, MOVE_COUNT = 616, 2549
MOVES_DIGEST = "696d1a3f4cb771038901692868ccfa3786a7353698334835353d3154ac723f57"


def spans_by_edge_rule(g, pd):
    """Bag spans checked edge by edge: the rule ``_valid_spans`` had before its masks."""
    first = [0] * g.n
    last = [0] * g.n
    for t, bag in enumerate(pd.bags, start=1):
        for v in bag:
            if not 0 <= v < g.n:
                return None
            if last[v] == t:
                continue
            if not first[v]:
                first[v] = t
            elif last[v] != t - 1:
                return None
            last[v] = t
    if 0 in first:
        return None
    if not all(first[u] <= last[v] and first[v] <= last[u] for u, v in graph_edges(g)):
        return None
    return tuple(zip(first, last))


@st.composite
def graphs_with_bag_lists(draw):
    """A random graph with arbitrary bag lists, or with bags cut from consecutive
    spans; half of the latter swap the graph for a subgraph of the spans'
    intersection graph, which the bags then decompose."""
    g = draw(graphs(max_n=9))
    n = g.n
    if n == 0 or draw(st.booleans()):
        bags = draw(st.lists(st.lists(st.integers(-1, n), max_size=5), max_size=8))
        return g, PathDecomposition(tuple(map(tuple, bags)))
    t = draw(st.integers(1, 6))
    spans = [sorted(draw(st.tuples(st.integers(1, t), st.integers(1, t)))) for _ in range(n)]
    bags = [tuple(v for v in range(n) if spans[v][0] <= i <= spans[v][1]) for i in range(1, t + 1)]
    if draw(st.booleans()):
        meets = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]]
        keep = draw(st.lists(st.booleans(), min_size=len(meets), max_size=len(meets)))
        g = Graph(n, [e for e, kept in zip(meets, keep) if kept])
    return g, PathDecomposition(tuple(bags))


def first_block(seq):
    """The slide's first block as segments: each chain's 2k-3 least positions, or all of it."""
    return tuple((0, min(len(chain), 2 * seq.k - 3)) for chain in seq.partition)


def block_size(segments):
    return sum(hi - lo for lo, hi in segments)


def elements_above(cp, segments):
    """The elements above a block: every chain's suffix past its segment."""
    return {e for (_, hi), chain in zip(segments, cp) for e in chain[hi:]}


def mask(elements):
    return sum(1 << e for e in elements)


def live_chains(cp, segments):
    """The chains reaching past their segments, in increasing order."""
    return [i for i, ((_, hi), chain) in enumerate(zip(segments, cp)) if hi < len(chain)]


def slide_state(cp, segments):
    """One block as the slide keeps it: (chains, segment starts, live chains, up-set mask)."""
    lo = [lo for lo, _ in segments]
    return cp, lo, live_chains(cp, segments), mask(elements_above(cp, segments))


def check_blocked(p, chains, lo, ups, good, blocked):
    """Every live chain is good or listed once under a blocker, an up-set element
    not above its segment minimum; returns the live chains in increasing order."""
    listed = [i for chains_under in blocked.values() for i in chains_under]
    assert len(set(listed)) == len(listed) and not good & mask(listed)
    for u, chains_under in blocked.items():
        assert ups >> u & 1
        assert not any(p.less(chains[i][lo[i]], u) for i in chains_under)
    return sorted(listed + [i for i in range(len(chains)) if good >> i & 1])


def pick(p, segments, k):
    """The slide's choice on one block of p's Dilworth partition, from scratch:
    ``_retest`` on every live chain, then the least good chain, or the stuck
    path's witness when none is good."""
    cp, lo, live, ups = slide_state(dilworth_partition(p), segments)
    blocked = {}
    good = extension_module._retest(p, cp, lo, ups, 0, blocked, live)
    assert check_blocked(p, cp, lo, ups, good, blocked) == live
    if good:
        return (good & -good).bit_length() - 1
    runs = runs_of(p, segments)
    return extension_module._witness_from_cycle(p, runs, k, extension_module._least_cycle(p, runs))


def runs_of(p, segments):
    """Each live chain's run on one block: its segment, then the element just above it."""
    cp = dilworth_partition(p)
    return {i: cp[i][segments[i][0] : segments[i][1] + 1] for i in live_chains(cp, segments)}


def traced_slide(p, k):
    """The slide's result and its (segment starts, live chains, up-set, good chains) at every pick.

    The live chains are read off the slide's own bookkeeping: those it holds
    good and those it lists under a blocker.
    """
    states = []
    real = extension_module._retest

    def spy(p, chains, lo, ups, good, blocked, tested):
        good = real(p, chains, lo, ups, good, blocked, tested)
        states.append((list(lo), check_blocked(p, chains, lo, ups, good, blocked), ups, good))
        return good

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extension_module, "_retest", spy)
        return block_sequence(p, k), states


def arcs_by_definition(p, cp, segments):
    """The certifying digraph of one block: i -> j iff a_i is not below d_j,
    where a_i is live chain i's segment minimum and d_j is live chain j's
    least element above its segment."""
    live = live_chains(cp, segments)
    a = {i: cp[i][segments[i][0]] for i in live}
    d = {i: cp[i][segments[i][1]] for i in live}
    return {i: mask(j for j in live if j != i and not p.less(a[i], d[j])) for i in live}


def sinks(p, cp, segments):
    """The sinks of the block's certifying digraph, as a mask over chain indices."""
    return mask(i for i, out in arcs_by_definition(p, cp, segments).items() if not out)


def least_sink(p, cp, segments):
    """The smallest sink of the block's certifying digraph, or None when it has none."""
    good = sinks(p, cp, segments)
    return (good & -good).bit_length() - 1 if good else None


def check_pick(p, cp, segments, k, got):
    """``got`` is the smallest sink of the block's certifying digraph, or a
    valid k+k witness when the digraph has no sink."""
    sink = least_sink(p, cp, segments)
    if sink is None:
        assert isinstance(got, KkWitness) and got.is_valid(p) and got.k == k
    else:
        assert got == sink
    return got


def slide_from_scratch(p, k):
    """Reference slide, from the definitions alone: on every block, move the
    smallest sink of the certifying digraph.

    Returns (moves, blocks, stuck): the moved sinks, each block as its
    segments tuple, and whether the last block's digraph has no sink, so
    that the slide must end in a witness.
    """
    cp = dilworth_partition(p)
    segments = [(0, min(len(c), 2 * k - 3)) for c in cp]
    blocks = [tuple(segments)]
    moves = []
    while elements_above(cp, segments):
        sink = least_sink(p, cp, segments)
        if sink is None:
            return moves, blocks, True
        lo, hi = segments[sink]
        moves.append(sink)
        segments[sink] = (lo + 1, hi + 1)
        blocks.append(tuple(segments))
    return moves, blocks, False


def replay_blocks(seq):
    """Every block of a slide as its segments, replayed from the first block and the moves."""
    blocks = [first_block(seq)]
    segments = list(blocks[0])
    for i in seq.moves:
        lo, hi = segments[i]
        segments[i] = (lo + 1, hi + 1)
        blocks.append(tuple(segments))
    assert len(blocks) == len(seq)
    return blocks


def assert_slide_matches_scratch(p, k):
    moves, blocks, stuck = slide_from_scratch(p, k)
    got, states = traced_slide(p, k)
    cp = dilworth_partition(p)
    # the slide picks on every block with something above it, keeping that
    # block's state, and holds good exactly the sinks of its certifying digraph
    assert states == [
        (*slide_state(cp, b)[1:], sinks(p, cp, b)) for b in blocks if elements_above(cp, b)
    ]
    if stuck:
        assert isinstance(got, KkWitness) and got.is_valid(p) and got.k == k
    else:
        assert got.moves == tuple(moves)
        assert replay_blocks(got) == blocks


class TestUpSet:
    """The elements above a block, as the slide keeps them."""

    def test_single_chain_window(self):
        _, states = traced_slide(chain_poset(5), 2)
        assert states[1] == ([1], [0], mask({2, 3, 4}), 1)  # X = {c_2}, chain 0 good

    def test_full_antichain_block(self):
        seq, states = traced_slide(antichain_poset(4), 2)
        assert first_block(seq) == ((0, 1),) * 4
        assert block_size(first_block(seq)) == 4
        assert seq.moves == ()
        assert states == []  # nothing above the block, so no pick

    def test_two_chains(self):
        # a1 < a2 < a3 plus an isolated b1
        p = build_poset(4, [(0, 1), (1, 2)])
        seq, states = traced_slide(p, 2)
        assert first_block(seq) == ((0, 1), (0, 1))  # X = {a1, b1}
        assert states[0][2] == mask({1, 2})

    def test_up_set_is_what_later_moves_admit(self):
        for p, k in [(gen_interval_order(3, 30), 2), (stacked(3, 6).poset, 3)]:
            seq = block_sequence(p, k)
            for t, segments in enumerate(replay_blocks(seq)):
                admitted_later = {mv["added"] for mv in moves_of(seq)[t:]}
                assert elements_above(seq.partition, segments) == admitted_later


class TestFindGoodElement:
    """The good-element lemma on a fresh certifying digraph and along the slide."""

    def test_single_chain_window_is_good(self):
        p = chain_poset(5)
        assert pick(p, ((1, 2),), 2) == 0
        # k=2 degeneracy: the run is a == b, then c == d
        assert runs_of(p, ((1, 2),)) == {0: (1, 2)}

    def test_two_plus_two_yields_witness(self):
        p = build_poset(4, TWO_PLUS_TWO)
        got = block_sequence(p, 2)
        assert isinstance(got, KkWitness)
        assert got.is_valid(p)
        assert pick(p, ((0, 1), (0, 1)), 2) == got
        assert find_k_plus_k(p, 2) is not None

    def test_witnesses_above_k2_are_pinned(self):
        # the golden files pin k = 2 witnesses only; these pin the replay's
        # choice of lower and upper chains when they differ
        two_sevens = [(i, i + 1) for i in range(6)] + [(i, i + 1) for i in range(7, 13)]
        cases = [
            (build_poset(14, two_sevens + [(0, 13), (7, 6)]), 4,
             ((0, 1, 2, 3), (9, 10, 11, 12))),
            (gen_random_poset(SplitMix64(50), 20, 0.2), 3, ((9, 4, 15), (12, 8, 3))),
        ]
        for p, k, chains in cases:
            got = block_sequence(p, k)
            assert isinstance(got, KkWitness) and got.is_valid(p)
            assert (got.a, got.b) == chains

    def test_stuck_slide_witnesses_are_pinned(self):
        # every witness of the failure path on seeded random posets and on the
        # stacked adversaries below their k, pinned as one digest
        docs = []
        for seed in range(200):
            p = gen_random_poset(SplitMix64(seed), 12 + seed % 25, 0.15 + 0.05 * (seed % 6))
            for k in range(2, 6):
                got = block_sequence(p, k)
                if isinstance(got, KkWitness):
                    docs.append([seed, k, witness_to_dict(got)])
        for kk in range(3, 8):
            for w in range(2, 6):
                p = stacked(kk, w).poset
                for k in range(2, kk):
                    got = block_sequence(p, k)
                    if isinstance(got, KkWitness):
                        docs.append(["stacked", kk, w, k, witness_to_dict(got)])
        digest = hashlib.sha256(canonical_dumps(docs).encode()).hexdigest()
        assert len(docs) == WITNESS_COUNT
        assert digest == WITNESS_DIGEST

    def test_certificate_shape(self):
        p = gen_interval_order(2, 40)  # two chains reach past their windows here
        k = 3
        seq = block_sequence(p, k)
        runs = runs_of(p, first_block(seq))
        assert len(runs) >= 2
        sink = pick(p, first_block(seq), k)
        a = runs[sink][0]
        # the sink's a lies below every other run's d
        assert all(p.less(a, run[-1]) for j, run in runs.items() if j != sink)
        assert seq.moves[0] == sink
        assert moves_of(seq)[0]["removed"] == a
        for run in runs.values():
            assert len(run) == 2 * k - 2
            assert p.is_chain(run)

    @given(st.data())
    @settings(max_examples=150)
    def test_pick_on_arbitrary_blocks(self, data):
        # the lemma holds on every block, also on those the slide never reaches
        p = data.draw(posets(max_n=12))
        k = data.draw(st.integers(2, 4))
        cp = dilworth_partition(p)
        segments = []
        for chain in cp:
            size = min(len(chain), 2 * k - 3)
            lo = data.draw(st.integers(0, len(chain) - size))
            segments.append((lo, lo + size))
        # the slide picks only while some chain reaches past its segment
        if live_chains(cp, segments):
            check_pick(p, cp, segments, k, pick(p, segments, k))

    def test_least_cycle_rejects_a_sink(self):
        # every chain failed the up-set test, so a sink means the lemma broke:
        # here chain 0's a = 0 lies below chain 1's d = 3
        sink = "^chain 0 fails the up-set test but has no out-arc$"
        with pytest.raises(InternalError, match=sink):
            extension_module._least_cycle(chain_poset(4), {0: (0, 1), 1: (2, 3)})

    def test_saturated_chain_is_omitted_from_certificate(self):
        # a singleton chain sits wholly inside the block and never participates
        p = build_poset(6, [(i, i + 1) for i in range(4)])  # chain of 5 plus element 5
        seq, states = traced_slide(p, 2)
        assert [live for _, live, _, _ in states] == [[0]] * 4
        assert pick(p, first_block(seq), 2) == 0
        assert moves_of(seq)[0] == {"removed": 0, "added": 1, "chain": 0}


class TestBlockSequence:
    def test_chain_slides_one_by_one(self):
        p = chain_poset(7)
        seq = block_sequence(p, 2)
        assert isinstance(seq, BlockSequence)
        assert slide_decomposition(seq).bags == tuple((t,) for t in range(7))

    def test_antichain_is_one_block(self):
        seq = block_sequence(antichain_poset(5), 2)
        assert len(seq) == 1 and seq.moves == ()
        assert slide_decomposition(seq).bags == (tuple(range(5)),)

    def test_block_count_formula(self):
        for seed in (0, 3, 9):
            p = gen_interval_order(seed, 25)
            seq = block_sequence(p, 2)
            blocks = replay_blocks(seq)
            assert len(blocks) == p.n - block_size(first_block(seq)) + 1
            bags = slide_decomposition(seq).bags
            assert [block_size(b) for b in blocks] == [len(bag) for bag in bags]

    def test_segment_sizes_are_conserved(self):
        p = gen_interval_order(5, 30)
        seq = block_sequence(p, 2)
        sizes0 = [hi - lo for lo, hi in first_block(seq)]
        for blk in replay_blocks(seq)[1:]:
            assert [hi - lo for lo, hi in blk] == sizes0

    def test_interval_orders_stay_within_width(self):
        for seed in range(8):
            p = gen_interval_order(seed, 40 + seed)
            w, _ = width_with_witness(p)
            seq = block_sequence(p, 2)
            assert isinstance(seq, BlockSequence)
            assert all(block_size(b) <= w for b in replay_blocks(seq))

    def test_moves_are_pinned(self):
        # every completed slide's moves on seeded random posets and on the
        # stacked adversaries at their k, pinned as one digest
        slides = []
        cases = [
            (gen_random_poset(SplitMix64(seed), 12 + seed % 25, 0.15 + 0.05 * (seed % 6)), k)
            for seed in range(200) for k in range(2, 6)
        ]
        cases += [(stacked(kk, w).poset, kk) for kk in range(3, 8) for w in range(2, 6)]
        for p, k in cases:
            seq = block_sequence(p, k)
            if isinstance(seq, BlockSequence):
                slides.append(moves_of(seq))
        digest = hashlib.sha256(canonical_dumps(slides).encode()).hexdigest()
        assert (len(slides), sum(map(len, slides))) == (SLIDE_COUNT, MOVE_COUNT)
        assert digest == MOVES_DIGEST

    def test_rejects_k_below_two(self):
        with pytest.raises(ParamError, match="^k must be at least 2$"):
            block_sequence(chain_poset(3), 1)

    @given(posets(max_n=12))
    @settings(max_examples=80)
    def test_incremental_slide_matches_scratch_on_random_posets(self, p):
        for k in (2, 3):
            assert_slide_matches_scratch(p, k)

    def test_incremental_slide_matches_scratch_on_seeded_posets(self):
        cases = [(gen_interval_order(seed, 40 + 5 * seed), 2) for seed in range(4)]
        cases += [(gen_interval_order(seed, 60), 3) for seed in (4, 5)]
        cases += [(stacked(3, 12).poset, 3), (stacked(4, 8).poset, 4), (stacked(4, 8).poset, 3)]
        cases += [(gen_kk_free(seed, 16, 3), k) for seed in (1, 2) for k in (2, 3)]
        cases += [(gen_random_poset(SplitMix64(seed), 20, 0.4), 2) for seed in range(6)]
        for p, k in cases:
            assert_slide_matches_scratch(p, k)

    def test_incremental_slide_matches_scratch_on_many_chains(self):
        # wide interval orders, whose steps re-test many listed chains, and two
        # slides that stick after several moves with at least 10 live chains
        for seed in (1, 2, 3):
            p = gen_interval_order(seed, 150)
            assert len(dilworth_partition(p)) >= 50
            assert_slide_matches_scratch(p, 2)
        for seed, n, density in ((1, 70, 0.1), (9, 100, 0.05)):
            p = gen_random_poset(SplitMix64(seed), n, density)
            got, states = traced_slide(p, 3)
            assert isinstance(got, KkWitness)
            assert len(states) >= 10 and len(states[-1][1]) >= 10 and not states[-1][3]
            assert_slide_matches_scratch(p, 3)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3"])
    def test_rejects_a_k_that_is_not_an_int(self, k):
        for search in (block_sequence, find_k_plus_k):
            with pytest.raises(ParamError) as info:
                search(chain_poset(6), k)
            assert str(info.value) == f"k must be an int, got {k!r}"

    @pytest.mark.parametrize("k, message", [
        (2.5, "k must be an int, got 2.5"),
        (3.0, "k must be an int, got 3.0"),
        ("3", "k must be an int, got '3'"),
        (1, "k must be at least 2"),
    ])
    def test_record_and_generator_refuse_a_bad_k(self, k, message):
        # a record built by hand and the k+k-free generator check k as the
        # searches do, not with a TypeError or a record of width -2
        for make in (lambda: BlockSequence(((0, 1),), k, ()), lambda: gen_kk_free(0, 8, k)):
            with pytest.raises(ParamError) as info:
                make()
            assert str(info.value) == message

    def test_non_increasing_chain_raises_internal_error(self, monkeypatch):
        def sabotaged(p):
            return (tuple(reversed(range(p.n))),)

        monkeypatch.setattr(extension_module, "dilworth_partition", sabotaged)
        # the up-set test fails at once, and the lone live chain has no out-arc
        with pytest.raises(InternalError, match="has no out-arc"):
            block_sequence(chain_poset(4), 2)

    @given(posets(max_n=12), st.integers(2, 4))
    @settings(max_examples=150)
    def test_k_plus_k_free_posets_slide_to_the_end(self, p, k):
        # the theorem: without a k+k the slide never gets stuck; a witness it
        # returns is a genuine k+k
        got = block_sequence(p, k)
        if find_k_plus_k(p, k) is None:
            assert isinstance(got, BlockSequence)
        if isinstance(got, KkWitness):
            assert got.is_valid(p) and got.k == k
            assert find_k_plus_k(p, k) is not None

    @given(posets(max_n=10))
    @settings(max_examples=60)
    def test_one_sided_contract(self, p):
        # on arbitrary input: either a valid sequence or a valid witness
        got = block_sequence(p, 2)
        if isinstance(got, KkWitness):
            assert got.is_valid(p)
            assert got.k == 2
        else:
            assert len(replay_blocks(got)) == p.n - block_size(first_block(got)) + 1


class TestIntervalOrderOf:
    def test_chain_maps_to_itself(self):
        p = chain_poset(6)
        assert slide_order(p, block_sequence(p, 2)) == p

    def test_antichain_maps_to_itself(self):
        p = antichain_poset(5)
        q = slide_order(p, block_sequence(p, 2))
        assert q == p
        wq, _ = width_with_witness(q)
        assert wq == 5 == (2 * 2 - 3) * 5

    def test_postconditions_on_seeded_two_two_free(self):
        for seed in range(10):
            p = gen_interval_order(seed, 20 + 2 * seed)
            seq = block_sequence(p, 2)
            q = slide_order(p, seq)
            w, _ = width_with_witness(p)
            wq, _ = width_with_witness(q)
            assert is_extension(p, q)
            assert is_interval_order(q)
            assert wq == seq.width + 1 <= (2 * 2 - 3) * w

    def test_postconditions_on_seeded_three_free(self):
        for seed in range(5):
            p = gen_kk_free(seed, 16, 3)
            seq = block_sequence(p, 3)
            assert not isinstance(seq, KkWitness)
            q = slide_order(p, seq)
            w, _ = width_with_witness(p)
            wq, _ = width_with_witness(q)
            assert is_extension(p, q)
            assert is_interval_order(q)
            assert wq == seq.width + 1 <= (2 * 3 - 3) * w

    def test_empty_poset(self):
        seq = block_sequence(build_poset(0, []), 2)
        assert spans_from_blocks(seq) == ()
        assert len(seq) == 1

    @given(spined_posets(max_n=24), st.integers(2, 4))
    @settings(max_examples=150, deadline=None)
    def test_spans_are_the_completion_of_the_blocks(self, p, k):
        # the spans read back off the validated bags they were swept into
        seq = block_sequence(p, k)
        if isinstance(seq, KkWitness):
            return
        pd = slide_decomposition(seq)
        assert spans_from_blocks(seq) == interval_completion(incomparability_graph(p), pd)
        assert seq.width == pd.width

    def test_spans_are_the_completion_on_seeded_kk_free(self):
        for seed in range(10):
            for k in (2, 3, 4):
                p = gen_kk_free(seed, 20, k)
                seq = block_sequence(p, k)
                pd = slide_decomposition(seq)
                assert spans_from_blocks(seq) == interval_completion(incomparability_graph(p), pd)

    def test_element_outside_every_block_raises(self):
        seq = block_sequence(chain_poset(3), 2)
        lost = BlockSequence(seq.partition, seq.k, seq.moves[:-1])
        with pytest.raises(InternalError, match="^element 2 never entered any block$"):
            spans_from_blocks(lost)

    def test_move_past_a_chain_end_raises(self):
        seq = block_sequence(chain_poset(3), 2)
        assert seq.moves == (0, 0)
        for moves, t, i in (((0, 0, 0), 3, 0), ((1,), 1, 1), ((-1,), 1, -1)):
            past = rf"^move {t} slides chain {i} past its end$"
            with pytest.raises(InternalError, match=past):
                spans_from_blocks(BlockSequence(seq.partition, seq.k, moves))

    @pytest.mark.parametrize("partition, moves, n", [
        (((0, -1),), (0,), 2),  # -1 would wrap round to element 1
        (((5, 0),), (), 2),
        (((0, 5),), (0,), 2),
        (((-1, 0),), (), 2),
        (((0, 1), (1, 2)), (), 4),
    ])
    def test_partition_off_the_ground_set_raises(self, partition, moves, n):
        with pytest.raises(CoverageError) as info:
            spans_from_blocks(BlockSequence(partition, 2, moves))
        assert type(info.value) is CoverageError
        assert str(info.value) == f"the chains do not cover 0..{n - 1} exactly once"


class TestPathDecomposition:
    def test_chain_bags(self):
        pd = slide_decomposition(block_sequence(chain_poset(4), 2))
        assert pd.bags == ((0,), (1,), (2,), (3,))
        assert pd.width == 0

    def test_antichain_bag(self):
        pd = slide_decomposition(block_sequence(antichain_poset(4), 2))
        assert pd.bags == ((0, 1, 2, 3),)
        assert pd.width == 3

    def test_ladder_with_larger_k(self):
        kp = kierstead(5)
        pd = slide_decomposition(block_sequence(kp.poset, 4))
        assert validate_path_decomposition(incomparability_graph(kp.poset), pd)
        assert pd.width <= (2 * 4 - 3) * 2 - 1

    def test_validator_accepts_path(self):
        pd = PathDecomposition(((0, 1), (1, 2)))
        assert validate_path_decomposition(path_graph(3), pd)

    def test_validator_rejects_uncovered_edge(self):
        pd = PathDecomposition(((0,), (1,)))
        assert not validate_path_decomposition(path_graph(2), pd)

    def test_validator_rejects_gap(self):
        pd = PathDecomposition(((0, 1), (2,), (1, 2)))
        assert not validate_path_decomposition(path_graph(3), pd)

    def test_validator_accepts_vertex_repeated_in_a_bag(self):
        pd = PathDecomposition(((0, 1, 1), (1, 2)))
        assert validate_path_decomposition(path_graph(3), pd)

    def test_validator_rejects_out_of_range_ids(self):
        assert not validate_path_decomposition(path_graph(2), PathDecomposition(((0, 1, 2),)))
        assert not validate_path_decomposition(path_graph(2), PathDecomposition(((-1, 0, 1),)))

    def test_validator_rejects_missing_vertex(self):
        pd = PathDecomposition(((0,),))
        assert not validate_path_decomposition(empty_graph(2), pd)

    @given(graphs_with_bag_lists())
    @settings(max_examples=300)
    def test_spans_match_the_edge_rule(self, case):
        g, pd = case
        assert extension_module._valid_spans(g, pd) == spans_by_edge_rule(g, pd)

    def test_seeded_pipeline_certificates(self):
        for seed in range(6):
            p = gen_interval_order(seed + 100, 35)
            w, _ = width_with_witness(p)
            pd = slide_decomposition(block_sequence(p, 2))
            assert validate_path_decomposition(incomparability_graph(p), pd)
            assert pd.width <= (2 * 2 - 3) * w - 1


class TestBagsFromSpans:
    @given(st.integers(2, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bags_are_the_spans_by_definition(self, k, data):
        # on every slide that completes, the bags, their check and their width
        # agree with the spans; so do the bags of spans with one end moved
        p = data.draw(st.one_of(
            spined_posets(), shuffled_posets(),
            st.integers(0, 40).map(lambda seed: gen_kk_free(seed, 16, k)),
        ))
        seq = block_sequence(p, k)
        if isinstance(seq, KkWitness):
            return
        g = incomparability_graph(p)
        spans = spans_from_blocks(seq)
        bags = bags_by_definition(spans, len(seq))
        assert tuple(map(tuple, extension_module._bag_rows(spans, len(seq)))) == bags
        pd = PathDecomposition(bags)
        assert validate_path_decomposition(g, pd) and _spans_cover_edges(g, spans)
        assert pd.width == seq.width == interval_clique_number(spans) - 1
        moved = [
            (v, (a + da, b + db))
            for v, (a, b) in enumerate(spans)
            for da, db in ((-1, 0), (1, 0), (0, -1), (0, 1))
            if 1 <= a + da <= b + db <= len(seq)
        ]
        if not moved:
            return
        v, span = data.draw(st.sampled_from(moved))
        spans = spans[:v] + (span,) + spans[v + 1 :]
        bags = bags_by_definition(spans, len(seq))
        assert tuple(map(tuple, extension_module._bag_rows(spans, len(seq)))) == bags
        pd = PathDecomposition(bags)
        assert validate_path_decomposition(g, pd) == _spans_cover_edges(g, spans)
        assert pd.width == interval_clique_number(spans) - 1

    def test_empty_poset(self, tmp_path):
        seq = block_sequence(build_poset(0, []), 2)
        assert slide_decomposition(seq).bags == ((),)
        assert path_decomposition_exact(Graph(0, [])).bags == ()
        # the three widths of no vertices agree: no bags, or one empty bag
        assert seq.width == path_decomposition_exact(Graph(0, [])).width == -1
        assert pathwidth_exact(Graph(0, [])) == -1
        assert list(extension_module._bag_rows((), 0)) == []
        poset_file, pd_file = tmp_path / "p.json", tmp_path / "pd.json"
        poset_file.write_text('{"n": 0, "relations": []}')
        assert main(["extend", "--poset", str(poset_file), "--k", "2",
                     "--out-pd", str(pd_file)]) == 0
        assert pd_file.read_text() == '{"bags":[[]]}\n'

    @pytest.mark.parametrize("sweep", [
        lambda spans, count: list(extension_module._bag_rows(spans, count)), pd_text,
    ], ids=["bag_rows", "pd_text"])
    def test_span_outside_the_blocks_raises(self, sweep):
        for span in ((0, 1), (2, 1), (1, 4), (0, 0), (4, 4)):
            outside = rf"^span {re.escape(str(span))} of 1 lies outside 1\.\.3$"
            with pytest.raises(MalformedInterval, match=outside):
                sweep([(1, 3), span], 3)
        with pytest.raises(MalformedInterval, match=r"^span \(1, 1\) of 0 lies outside 1\.\.0$"):
            sweep([(1, 1)], 0)
