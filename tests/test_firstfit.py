import gc
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetff import (
    CoverageError,
    FFColoring,
    Graph,
    PresentationOrder,
    SizeMismatch,
    TooLarge,
    build_poset,
    first_fit_chains,
    first_fit_color,
    grundy_coloring,
    grundy_number,
    incomparability_graph,
    kierstead,
    validate_ff_coloring,
    validate_ff_partition,
)
from helpers import (
    antichain_poset,
    brute_ff_coloring_ok,
    brute_ff_partition_ok,
    brute_first_fit_chains,
    brute_first_fit_color,
    brute_grundy,
    chain_poset,
    coloring_from_grundy_table,
    complete_bipartite_graph,
    complete_graph,
    corrupted_parts,
    cycle_graph,
    dense_graphs_with_orders,
    empty_graph,
    gen_graph,
    graphs,
    graphs_with_orders,
    grundy_table,
    increasing,
    ladder_id,
    minus_perfect_matching,
    outcome,
    path_graph,
    posets_with_orders,
    reference_grundy_table,
    shuffled_posets,
)
from posetff.firstfit import _grundy_ceiling


class TestPresentationOrder:
    def test_identity(self):
        assert PresentationOrder.identity(3).order == (0, 1, 2)

    def test_rejects_non_permutation(self):
        with pytest.raises(CoverageError,
                           match=r"^presentation order must be a permutation of 0\.\.n-1$"):
            PresentationOrder((0, 0, 1))

    @pytest.mark.parametrize("order", [(0.0, 1.0, 2.0), (False, True), (0, 1.0), ("a", 0)],
                             ids=["floats", "bools", "one-float", "str"])
    def test_rejects_entries_that_are_not_ints(self, order):
        # floats and bools equal to ids would pass the permutation test as those ids
        with pytest.raises(CoverageError,
                           match=r"^presentation order must be a permutation of 0\.\.n-1$"):
            PresentationOrder(order)


class TestFirstFitChains:
    def test_chain_single(self):
        p = chain_poset(6)
        res = first_fit_chains(p, PresentationOrder((3, 0, 5, 2, 4, 1)))
        assert res.chain_count == 1

    def test_antichain_all_separate(self):
        res = first_fit_chains(antichain_poset(5), PresentationOrder.identity(5))
        assert res.chain_count == 5

    def test_ladder_natural_order(self):
        kp = kierstead(5)
        res = first_fit_chains(kp.poset, kp.natural_order)
        assert res.chain_count == 5
        for i in range(1, 6):
            for j in range(1, i + 1):
                assert res.assignment[ladder_id(5, i, j, 1)] == i - j + 1

    def test_empty(self):
        res = first_fit_chains(chain_poset(0), PresentationOrder(()))
        assert res.chain_count == 0

    def test_order_of_another_length_is_rejected(self):
        with pytest.raises(SizeMismatch, match="^order covers 2 elements, poset has 3$"):
            first_fit_chains(chain_poset(3), PresentationOrder.identity(2))


class TestEnginesAgreeWithOracles:
    """Each First-Fit run against its pair-by-pair oracle, element by element."""

    @given(posets_with_orders(max_n=12))
    @settings(max_examples=200, deadline=None)
    def test_ff_chains(self, pair):
        p, order = pair
        res = first_fit_chains(p, order)
        assignment, chains = brute_first_fit_chains(p, order)
        assert res.assignment == assignment
        assert list(res.partition) == chains

    @given(graphs_with_orders(max_n=12))
    @settings(max_examples=200, deadline=None)
    def test_ff_color(self, pair):
        g, order = pair
        assert first_fit_color(g, order).classes == brute_first_fit_color(g, order)

    # the runs below use up to 80 classes, so the class count crosses every
    # power of two from 1 to 64

    def test_complete_graphs_in_shuffled_orders(self):
        rng = random.Random(0)
        for n in range(71):
            g = complete_graph(n)
            for _ in range(3):
                order = PresentationOrder(tuple(rng.sample(range(n), n)))
                assert first_fit_color(g, order).classes == brute_first_fit_color(g, order), n

    @pytest.mark.parametrize("sizes", [
        (1,), (2, 2), (17, 3, 16), (33, 32, 1), (8,) * 9, (65, 5, 64), (3,) * 20,
    ])
    def test_disjoint_cliques_in_shuffled_orders(self, sizes):
        edges, start = [], 0
        for size in sizes:
            edges += [(start + a, start + b) for a in range(size) for b in range(a + 1, size)]
            start += size
        g = Graph(start, edges)
        rng = random.Random(start)
        for _ in range(3):
            order = PresentationOrder(tuple(rng.sample(range(start), start)))
            classes = first_fit_color(g, order).classes
            assert classes == brute_first_fit_color(g, order)
            assert len(classes) == max(sizes)

    @given(dense_graphs_with_orders(max_n=80))
    @settings(max_examples=100, deadline=None)
    def test_ff_color_on_dense_graphs(self, pair):
        g, order = pair
        assert first_fit_color(g, order).classes == brute_first_fit_color(g, order)


class TestValidateFFPartition:
    def test_singletons_of_antichain(self):
        p = antichain_poset(2)
        assert validate_ff_partition(p, ((0,), (1,)))

    def test_split_chain_rejected(self):
        p = chain_poset(2)
        assert not validate_ff_partition(p, ((0,), (1,)))

    def test_coverage_error(self):
        p = chain_poset(3)
        with pytest.raises(CoverageError):
            validate_ff_partition(p, ((0, 1),))

    def test_element_repeated_inside_one_chain(self):
        # as a set this chain is {0, 1}, a valid cover; as listed it repeats 0
        with pytest.raises(CoverageError):
            validate_ff_partition(chain_poset(2), ((0, 0, 1),))

    @pytest.mark.parametrize("chains", [((0.0, 1),), ((0,), (1.5,)), (("a",), (1,))],
                             ids=["float-equal-to-an-id", "float-in-range", "str"])
    def test_ids_that_are_not_ints_raise_coverage_error(self, chains):
        with pytest.raises(CoverageError):
            validate_ff_partition(chain_poset(2), chains)

    def test_comparable_pair_listed_out_of_order(self):
        # as a set {0, 1} is a chain of chain_poset(2); a chain lists it increasing
        assert not validate_ff_partition(chain_poset(2), ((1, 0),))

    def test_witness_missing_only_two_chains_back(self):
        # with 0 < 2 and 1 incomparable to both, chain 3 = (2,) has its
        # witness 1 in chain 2 but none in chain 1 = (0,)
        cp = ((0,), (1,), (2,))
        assert validate_ff_partition(antichain_poset(3), cp)
        assert not validate_ff_partition(build_poset(3, [(0, 2)]), cp)

    @given(posets_with_orders())
    @settings(max_examples=60)
    def test_ff_output_always_validates(self, pair):
        p, order = pair
        res = first_fit_chains(p, order)
        assert validate_ff_partition(p, res.partition)

    @given(shuffled_posets(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_ff_output_lists_chains_in_increasing_order(self, p, rng):
        # ids do not follow the order here, so a chain sorted by id would fail
        order = PresentationOrder(tuple(rng.sample(range(p.n), p.n)))
        assert validate_ff_partition(p, first_fit_chains(p, order).partition)


class TestValidatorsAgreeWithOracles:
    """Each validator against its pair-by-pair oracle: the same bool, or the
    same exception class, on First-Fit outputs and on corrupted copies."""

    @given(posets_with_orders(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_ff_partition(self, pair, data):
        p, order = pair
        chains = first_fit_chains(p, order).partition
        parts = data.draw(corrupted_parts(chains, p.n))
        if data.draw(st.booleans()) and all(0 <= e < p.n for part in parts for e in part):
            parts = [increasing(p, part) for part in parts]  # list chain parts in order
        cp = tuple(map(tuple, parts))
        assert outcome(validate_ff_partition, p, cp) == outcome(brute_ff_partition_ok, p, cp)

    @given(graphs_with_orders(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_ff_coloring(self, pair, data):
        g, order = pair
        classes = [sorted(cls) for cls in first_fit_color(g, order).classes]
        parts = data.draw(corrupted_parts(classes, g.n))
        coloring = FFColoring(tuple(frozenset(part) for part in parts))
        assert outcome(validate_ff_coloring, g, coloring) == outcome(brute_ff_coloring_ok, g, coloring)


class TestFirstFitColor:
    def test_edgeless(self):
        c = first_fit_color(empty_graph(4), PresentationOrder.identity(4))
        assert c.color_count == 1

    def test_complete(self):
        c = first_fit_color(complete_graph(4), PresentationOrder.identity(4))
        assert c.color_count == 4

    def test_order_of_another_length_is_rejected(self):
        with pytest.raises(SizeMismatch, match="^order covers 4 vertices, graph has 3$"):
            first_fit_color(empty_graph(3), PresentationOrder.identity(4))

    @given(posets_with_orders())
    @settings(max_examples=60)
    def test_matches_chain_run_on_incomparability_graph(self, pair):
        p, order = pair
        chains = first_fit_chains(p, order)
        colors = first_fit_color(incomparability_graph(p), order)
        chain_sets = tuple(map(frozenset, chains.partition))
        assert chain_sets == colors.classes


class TestValidateFFColoring:
    def test_improper_class_rejected(self):
        g = complete_graph(2)
        assert not validate_ff_coloring(g, FFColoring((frozenset({0, 1}),)))

    def test_path_coloring_accepted(self):
        # path 0-1-2-3 with classes {0,3}, {2}, {1}
        g = path_graph(4)
        coloring = FFColoring((frozenset({0, 3}), frozenset({2}), frozenset({1})))
        assert validate_ff_coloring(g, coloring)

    def test_missing_lower_neighbor_rejected(self):
        g = empty_graph(2)
        assert not validate_ff_coloring(g, FFColoring((frozenset({0}), frozenset({1}))))

    def test_coverage_error(self):
        with pytest.raises(CoverageError):
            validate_ff_coloring(empty_graph(2), FFColoring((frozenset({0}),)))

    def test_neighbor_missing_only_two_classes_back(self):
        # path 0-1-2: class 3 = {2} has its neighbor 1 in class 2 but none in class 1 = {0}
        g = path_graph(3)
        assert validate_ff_coloring(g, FFColoring((frozenset({1}), frozenset({0, 2}))))
        assert not validate_ff_coloring(g, FFColoring((frozenset({0}), frozenset({1}), frozenset({2}))))

    @given(graphs_with_orders())
    @settings(max_examples=60)
    def test_greedy_output_always_validates(self, pair):
        g, order = pair
        assert validate_ff_coloring(g, first_fit_color(g, order))


class TestGrundy:
    def test_path_four_beats_cycle_four(self):
        # the classic non-monotonicity guard: P4 is a subgraph of C4
        assert grundy_number(path_graph(4)) == 3
        assert grundy_number(cycle_graph(4)) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_complete_bipartite_is_two(self, n):
        assert grundy_number(complete_bipartite_graph(n, n)) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bipartite_minus_matching_is_n(self, n):
        assert grundy_number(minus_perfect_matching(n)) == n

    def test_too_large(self):
        with pytest.raises(TooLarge):
            grundy_number(empty_graph(17))

    def test_exact_at_the_default_limit(self):
        assert grundy_number(minus_perfect_matching(8)) == 8
        assert grundy_number(complete_graph(16)) == 16
        assert grundy_number(path_graph(16)) == 3
        triangles = Graph(15, [(3 * t + a, 3 * t + b) for t in range(5)
                               for a, b in ((0, 1), (0, 2), (1, 2))])
        assert grundy_number(triangles) == 3

    def test_leaves_no_reference_cycle(self):
        g = minus_perfect_matching(5)
        gc.collect()
        gc.disable()
        try:
            grundy_coloring(g)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_empty(self):
        assert grundy_number(empty_graph(0)) == 0

    def test_witness_coloring_is_valid_and_maximal(self):
        g = minus_perfect_matching(3)
        coloring = grundy_coloring(g)
        assert validate_ff_coloring(g, coloring)
        assert coloring.color_count == 3

    @given(graphs(max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_matches_full_permutation_sweep(self, g):
        assert grundy_number(g) == brute_grundy(g)

    @given(graphs(max_n=8))
    @settings(max_examples=30, deadline=None)
    def test_some_order_attains_the_sweep_value(self, g):
        # presenting the witness classes in order reproduces the class count
        coloring = grundy_coloring(g)
        order = PresentationOrder(tuple(v for cls in coloring.classes for v in sorted(cls)))
        assert first_fit_color(g, order).color_count == coloring.color_count

    @given(graphs_with_orders(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_dominates_any_single_order(self, pair):
        g, order = pair
        assert grundy_number(g) >= first_fit_color(g, order).color_count


def all_graphs(max_n):
    """Every labelled graph on at most max_n vertices."""
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph(n, [pair for i, pair in enumerate(pairs) if bits >> i & 1])


def max_degree_plus_one(g):
    return 1 + max((g.nbr_mask(v).bit_count() for v in range(g.n)), default=0)


class TestGrundyCeiling:
    def test_between_gamma_and_max_degree_plus_one(self):
        # 1 + 1 + 2 + 8 + 64 + 1024 graphs, each with a full permutation sweep
        for g in all_graphs(5):
            full = (1 << g.n) - 1
            if g.n:
                nbr = [g.nbr_mask(v) for v in range(g.n)]
                assert brute_grundy(g) <= _grundy_ceiling(nbr, full) <= max_degree_plus_one(g)

    def test_star_is_two_against_six(self):
        star = complete_bipartite_graph(1, 5)
        nbr = [star.nbr_mask(v) for v in range(6)]
        assert _grundy_ceiling(nbr, 0b111111) == 2
        assert max_degree_plus_one(star) == 6
        assert grundy_number(star) == 2

    def test_reads_only_the_induced_subgraph(self):
        # K4 on 0..3 plus a pendant 4 at 0: G[{0, 1, 4}] is a path
        g = Graph(5, list(combinations(range(4), 2)) + [(0, 4)])
        nbr = [g.nbr_mask(v) for v in range(5)]
        assert _grundy_ceiling(nbr, 0b11111) == 4
        assert _grundy_ceiling(nbr, 0b10011) == 2
        assert _grundy_ceiling(nbr, 0b10010) == 1


def pruning_graphs():
    """Seeded graphs at n <= 12 over several densities, then larger pinned ones."""
    seeded = [gen_graph(seed, n, density) for seed in range(3) for n in (5, 8, 10, 12)
              for density in (0.15, 0.3, 0.5, 0.7, 0.9)]
    return seeded + [gen_graph(2, 14, 0.6), path_graph(16), minus_perfect_matching(7),
                     cycle_graph(13), complete_bipartite_graph(6, 7)]


class TestGrundyPruning:
    def test_table_is_a_part_of_the_unpruned_one(self):
        for g in pruning_graphs() + [golden_graph(i) for i in range(len(GOLDEN_GRUNDY))]:
            reference = reference_grundy_table(g)
            table = grundy_table(g)
            assert table.items() <= reference.items()
            assert grundy_coloring(g).classes == coloring_from_grundy_table(reference, g.n)

    @pytest.mark.parametrize("g, before, after", [
        (gen_graph(2, 14, 0.6), 2199, 1543),
        (path_graph(16), 5, 5),
    ], ids=["gen_graph(2,14,0.6)", "P16"])
    def test_pinned_table_sizes(self, g, before, after):
        assert len(reference_grundy_table(g)) == before
        assert len(grundy_table(g)) == after


# Graph i is gen_graph(1000 + i, 5 + i % 6, GOLDEN_DENSITIES[i // 6 % 6]).
# GOLDEN_GRUNDY[i] is its Grundy number, pinned from an earlier oracle that
# shares no code with the first-class recursion: a memoised sweep over
# presentation orders on colour tuples.
GOLDEN_DENSITIES = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
GOLDEN_GRUNDY = (
    2, 1, 2, 2, 2, 3, 3, 3, 3, 2, 3, 3, 2, 3, 4, 4, 4, 6, 3, 3,
    4, 5, 6, 6, 4, 4, 6, 5, 6, 7, 4, 5, 5, 6, 7, 7, 2, 2, 2, 2,
    2, 3, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 2, 4, 5, 6, 4, 5,
)


def golden_graph(i):
    return gen_graph(1000 + i, 5 + i % 6, GOLDEN_DENSITIES[i // 6 % 6])


@pytest.mark.parametrize("i", range(len(GOLDEN_GRUNDY)))
def test_golden_grundy(i):
    g = golden_graph(i)
    coloring = grundy_coloring(g)
    assert coloring.color_count == GOLDEN_GRUNDY[i]
    assert grundy_number(g) == GOLDEN_GRUNDY[i]
    # facts that hold for any maximum witness, whatever the tie-break
    assert validate_ff_coloring(g, coloring)
    assert coloring.color_count <= max(g.nbr_mask(v).bit_count() for v in range(g.n)) + 1
