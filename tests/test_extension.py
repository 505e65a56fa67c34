import pytest
from hypothesis import given, settings

from posetff import (
    Block,
    BlockMove,
    BlockSequence,
    Chain,
    ChainPartition,
    GoodElement,
    InternalError,
    InvalidBlock,
    KkWitness,
    SplitMix64,
    NoUpSet,
    PathDecomposition,
    antichain_poset,
    block_sequence,
    build_poset,
    chain_poset,
    decomposition_from_blocks,
    dilworth_partition,
    empty_graph,
    find_good_element,
    find_k_plus_k,
    gen_interval_order,
    gen_kk_free,
    gen_random_poset,
    incomparability_graph,
    initial_block,
    interval_order_of,
    is_extension,
    is_interval_order,
    kierstead,
    path_graph,
    stacked,
    up_set,
    validate_path_decomposition,
    width_with_witness,
)
import posetff.extension as extension_module
from helpers import posets

TWO_PLUS_TWO = [(0, 1), (2, 3)]


def slide_from_scratch(p, k):
    """Reference slide: a fresh find_good_element on every block.

    Also checks each certificate's arcs against the definition (i -> j iff
    a_i is not below d_j).  Returns (moves, blocks, witness or None).
    """
    cp = dilworth_partition(p)
    segments = list(initial_block(cp, k).segments)
    blocks = [Block(tuple(segments))]
    moves = []
    while up_set(p, cp, blocks[-1]):
        got = find_good_element(p, cp, blocks[-1], k)
        if isinstance(got, KkWitness):
            return moves, blocks, got
        entries = got.certificate.entries
        assert got.certificate.arcs == {
            (i, j)
            for i in entries
            for j in entries
            if i != j and not p.less(entries[i].a, entries[j].d)
        }
        lo, hi = segments[got.chain]
        chain = cp.chains[got.chain].elements
        assert got.element == chain[lo]
        moves.append(BlockMove(removed=got.element, added=chain[hi], chain=got.chain))
        segments[got.chain] = (lo + 1, hi + 1)
        blocks.append(Block(tuple(segments)))
    return moves, blocks, None


def replay_blocks(seq):
    """Every block of a slide, replayed from its first block and its moves.

    Each move must remove its chain's segment minimum and admit the element
    just above the segment.
    """
    segments = list(seq.first.segments)
    blocks = [seq.first]
    for mv in seq.moves:
        lo, hi = segments[mv.chain]
        chain = seq.partition.chains[mv.chain].elements
        assert (mv.removed, mv.added) == (chain[lo], chain[hi])
        segments[mv.chain] = (lo + 1, hi + 1)
        blocks.append(Block(tuple(segments)))
    assert len(blocks) == len(seq)
    return blocks


def assert_slide_matches_scratch(p, k):
    moves, blocks, witness = slide_from_scratch(p, k)
    got = block_sequence(p, k)
    if witness is not None:
        assert got == witness
    else:
        assert got.moves == tuple(moves)
        assert replay_blocks(got) == blocks


class TestUpSet:
    def test_single_chain_window(self):
        p = chain_poset(5)
        cp = dilworth_partition(p)
        block = Block(((1, 2),))  # X = {c_2}
        assert up_set(p, cp, block) == {2, 3, 4}

    def test_full_antichain_block(self):
        p = antichain_poset(4)
        cp = dilworth_partition(p)
        block = initial_block(cp, 2)
        assert block.segments == ((0, 1),) * 4
        assert block.size() == 4
        assert up_set(p, cp, block) == frozenset()

    def test_two_chains(self):
        # a1 < a2 < a3 plus an isolated b1
        p = build_poset(4, [(0, 1), (1, 2)])
        cp = dilworth_partition(p)
        block = Block(((0, 1), (0, 1)))  # X = {a1, b1}
        assert up_set(p, cp, block) == {1, 2}

    def test_invalid_segments(self):
        p = chain_poset(3)
        cp = dilworth_partition(p)
        with pytest.raises(InvalidBlock):
            up_set(p, cp, Block(((2, 5),)))
        with pytest.raises(InvalidBlock):
            up_set(p, cp, Block(((1, 1),)))
        with pytest.raises(InvalidBlock):
            up_set(p, cp, Block(((0, 1), (1, 2))))


class TestFindGoodElement:
    def test_single_chain_window_is_good(self):
        p = chain_poset(5)
        cp = dilworth_partition(p)
        block = Block(((1, 2),))
        got = find_good_element(p, cp, block, 2)
        assert isinstance(got, GoodElement)
        assert got.element == 1
        assert got.chain == 0
        assert got.certificate.sink == 0
        entry = got.certificate.entries[0]
        # k=2 degeneracy: a == b and c == d
        assert entry.a == entry.b == 1
        assert entry.c == entry.d == 2

    def test_no_up_set(self):
        p = antichain_poset(2)
        cp = dilworth_partition(p)
        with pytest.raises(NoUpSet):
            find_good_element(p, cp, initial_block(cp, 2), 2)

    def test_two_plus_two_yields_witness(self):
        p = build_poset(4, TWO_PLUS_TWO)
        cp = dilworth_partition(p)
        block = initial_block(cp, 2)
        got = find_good_element(p, cp, block, 2)
        assert isinstance(got, KkWitness)
        assert got.is_valid(p)
        assert find_k_plus_k(p, 2) is not None

    def test_certificate_shape(self):
        p = gen_interval_order(2, 40)  # two chains reach past their windows here
        cp = dilworth_partition(p)
        k = 3
        block = initial_block(cp, k)
        assert up_set(p, cp, block)
        got = find_good_element(p, cp, block, k)
        assert isinstance(got, GoodElement)
        assert len(got.certificate.entries) >= 2
        assert got.chain == got.certificate.sink
        for entry in got.certificate.entries.values():
            assert len(entry.upper) == k
            assert len(entry.lower) == k
            assert entry.lower[0] == entry.a
            a, b, c, d = entry.a, entry.b, entry.c, entry.d
            assert a == b or p.less(a, b)
            assert p.less(b, c)
            assert c == d or p.less(c, d)

    def test_wrong_segment_width_rejected(self):
        p = chain_poset(6)
        cp = dilworth_partition(p)
        with pytest.raises(InvalidBlock):
            find_good_element(p, cp, Block(((0, 2),)), 2)

    def test_saturated_chain_is_omitted_from_certificate(self):
        # a singleton chain sits wholly inside the block and never participates
        p = build_poset(6, [(i, i + 1) for i in range(4)])  # chain of 5 plus element 5
        cp = dilworth_partition(p)
        got = find_good_element(p, cp, initial_block(cp, 2), 2)
        assert isinstance(got, GoodElement)
        assert set(got.certificate.entries) == {0}
        assert got.element == 0


class TestBlockSequence:
    def test_chain_slides_one_by_one(self):
        p = chain_poset(7)
        seq = block_sequence(p, 2)
        assert isinstance(seq, BlockSequence)
        assert decomposition_from_blocks(seq).bags == tuple((t,) for t in range(7))

    def test_antichain_is_one_block(self):
        seq = block_sequence(antichain_poset(5), 2)
        assert len(seq) == 1 and seq.moves == ()
        assert decomposition_from_blocks(seq).bags == (tuple(range(5)),)

    def test_block_count_formula(self):
        for seed in (0, 3, 9):
            p = gen_interval_order(seed, 25)
            seq = block_sequence(p, 2)
            blocks = replay_blocks(seq)
            assert len(blocks) == p.n - seq.first.size() + 1
            bags = decomposition_from_blocks(seq).bags
            assert [b.size() for b in blocks] == [len(bag) for bag in bags]

    def test_segment_sizes_are_conserved(self):
        p = gen_interval_order(5, 30)
        seq = block_sequence(p, 2)
        sizes0 = [hi - lo for lo, hi in seq.first.segments]
        for blk in replay_blocks(seq)[1:]:
            assert [hi - lo for lo, hi in blk.segments] == sizes0

    def test_interval_orders_stay_within_width(self):
        for seed in range(8):
            p = gen_interval_order(seed, 40 + seed)
            w, _ = width_with_witness(p)
            seq = block_sequence(p, 2)
            assert isinstance(seq, BlockSequence)
            assert all(b.size() <= w for b in replay_blocks(seq))

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
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

    def test_non_increasing_chain_raises_internal_error(self, monkeypatch):
        def sabotaged(p):
            return ChainPartition((Chain(tuple(reversed(range(p.n)))),))

        monkeypatch.setattr(extension_module, "dilworth_partition", sabotaged)
        with pytest.raises(InternalError):
            block_sequence(chain_poset(4), 2)

    @given(posets(max_n=10))
    @settings(max_examples=60)
    def test_one_sided_contract(self, p):
        # on arbitrary input: either a valid sequence or a valid witness
        got = block_sequence(p, 2)
        if isinstance(got, KkWitness):
            assert got.is_valid(p)
            assert got.k == 2
        else:
            assert len(replay_blocks(got)) == p.n - got.first.size() + 1


class TestIntervalOrderOf:
    def test_chain_maps_to_itself(self):
        p = chain_poset(6)
        ext = interval_order_of(p, 2)
        assert ext.order == p

    def test_antichain_maps_to_itself(self):
        p = antichain_poset(5)
        ext = interval_order_of(p, 2)
        assert ext.order == p
        wq, _ = width_with_witness(ext.order)
        assert wq == 5 == (2 * 2 - 3) * 5

    def test_postconditions_on_seeded_two_two_free(self):
        for seed in range(10):
            p = gen_interval_order(seed, 20 + 2 * seed)
            ext = interval_order_of(p, 2)
            w, _ = width_with_witness(p)
            wq, _ = width_with_witness(ext.order)
            assert is_extension(p, ext.order)
            assert is_interval_order(ext.order)
            assert wq == decomposition_from_blocks(ext.sequence).width + 1 <= (2 * 2 - 3) * w

    def test_postconditions_on_seeded_three_free(self):
        for seed in range(5):
            p = gen_kk_free(seed, 16, 3)
            ext = interval_order_of(p, 3)
            assert not isinstance(ext, KkWitness)
            w, _ = width_with_witness(p)
            wq, _ = width_with_witness(ext.order)
            assert is_extension(p, ext.order)
            assert is_interval_order(ext.order)
            assert wq == decomposition_from_blocks(ext.sequence).width + 1 <= (2 * 3 - 3) * w

    def test_witness_propagates(self):
        got = interval_order_of(build_poset(4, TWO_PLUS_TWO), 2)
        assert isinstance(got, KkWitness)

    def test_empty_poset(self):
        p = build_poset(0, [])
        ext = interval_order_of(p, 2)
        assert ext.order.n == 0
        assert ext.representation.intervals == ()
        assert len(ext.sequence) == 1


class TestPathDecomposition:
    def test_chain_bags(self):
        pd = decomposition_from_blocks(block_sequence(chain_poset(4), 2))
        assert pd.bags == ((0,), (1,), (2,), (3,))
        assert pd.width == 0

    def test_antichain_bag(self):
        pd = decomposition_from_blocks(block_sequence(antichain_poset(4), 2))
        assert pd.bags == ((0, 1, 2, 3),)
        assert pd.width == 3

    def test_ladder_with_larger_k(self):
        kp = kierstead(5)
        pd = decomposition_from_blocks(block_sequence(kp.poset, 4))
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

    def test_seeded_pipeline_certificates(self):
        for seed in range(6):
            p = gen_interval_order(seed + 100, 35)
            w, _ = width_with_witness(p)
            pd = decomposition_from_blocks(block_sequence(p, 2))
            assert validate_path_decomposition(incomparability_graph(p), pd)
            assert pd.width <= (2 * 2 - 3) * w - 1
