import gc
import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetff import (
    FFColoring,
    Graph,
    Homomorphism,
    InternalError,
    InvalidColoring,
    InvalidDecomposition,
    PathDecomposition,
    PresentationOrder,
    TooLarge,
    block_sequence,
    build_ff_image,
    build_poset,
    canonical_dumps,
    find_k_plus_k,
    first_fit_color,
    gen_interval_order,
    grundy_coloring,
    grundy_number,
    incomparability_graph,
    interval_clique_number,
    interval_completion,
    path_decomposition_exact,
    pathwidth_exact,
    spans_from_blocks,
    stacked,
    validate_ff_coloring,
    validate_homomorphism,
    validate_path_decomposition,
    width_with_witness,
)
from posetff import SplitMix64, interval_order_from_intervals, kierstead
import posetff.homomorphism as homomorphism_module
from helpers import (
    adjacent,
    brute_components,
    brute_homomorphism_ok,
    brute_interval_clique_number,
    brute_interval_graph,
    brute_pathwidth,
    complete_bipartite_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    empty_graph,
    gen_graph,
    graph_edges,
    graphs,
    graphs_with_orders,
    image_coloring,
    outcome,
    path_graph,
    reference_separation_table,
    span_lists,
)

# ties on the left end, a single point, a duplicate, and two spans that
# touch (end 3, begin 4) without sharing a point
SPAN_EDGE_CASES = [(1, 1), (1, 3), (1, 3), (4, 5), (3, 3)]


def clique_path_of_intervals(intervals):
    """Sweep bags at left endpoints: a decomposition whose completion adds nothing."""
    bags = []
    for x in sorted({a for a, _ in intervals}):
        bags.append(tuple(v for v, (a, b) in enumerate(intervals) if a <= x <= b))
    return PathDecomposition(tuple(bags))


class TestIntervalCompletion:
    def test_path_read_off(self):
        g = path_graph(4)
        pd = PathDecomposition(((0, 1), (1, 2), (2, 3)))
        ic = interval_completion(g, pd)
        assert ic == ((1, 1), (1, 2), (2, 3), (3, 3))
        assert interval_clique_number(ic) == 2
        assert brute_interval_graph(ic) == g  # a path is its own completion here

    def test_single_bag_completes_everything(self):
        g = empty_graph(3)
        ic = interval_completion(g, PathDecomposition(((0, 1, 2),)))
        assert brute_interval_graph(ic) == complete_graph(3)
        assert interval_clique_number(ic) == 3

    def test_invalid_decomposition(self):
        with pytest.raises(InvalidDecomposition):
            interval_completion(path_graph(2), PathDecomposition(((0,), (1,))))

    def test_pipeline_load_stays_within_bound(self):
        p = gen_interval_order(3, 25)
        seq = block_sequence(p, 2)
        assert interval_clique_number(spans_from_blocks(seq)) == seq.width + 1

    def test_ladder_pipeline_completion_load(self):
        kp = kierstead(5)
        ic = spans_from_blocks(block_sequence(kp.poset, 4))
        assert interval_clique_number(ic) <= (2 * 4 - 3) * 2


class TestIntervalCliqueNumber:
    def test_disjoint(self):
        assert interval_clique_number([(0, 1), (2, 3), (4, 5)]) == 1

    def test_identical_copies(self):
        assert interval_clique_number([(0, 1)] * 6) == 6

    def test_hand_swept_example(self):
        assert interval_clique_number([(1, 1), (3, 3), (2, 3), (1, 2)]) == 2

    def test_empty(self):
        assert interval_clique_number([]) == 0

    @given(span_lists())
    @example([])
    @example(SPAN_EDGE_CASES)
    @settings(max_examples=200, deadline=None)
    def test_is_the_largest_point_load(self, spans):
        assert interval_clique_number(spans) == brute_interval_clique_number(spans)


class TestBuildFFImage:
    def test_path_example(self):
        g = path_graph(4)
        pd = PathDecomposition(((0, 1), (1, 2), (2, 3)))
        ic = interval_completion(g, pd)
        coloring = FFColoring((frozenset({0, 3}), frozenset({2}), frozenset({1})))
        image, hom = build_ff_image(g, ic, coloring)
        assert image.intervals == ((1, 1), (3, 3), (2, 3), (1, 2))
        assert interval_clique_number(image.intervals) == 2
        assert tuple(len(z) for z in image.classes) == (2, 1, 1)
        assert validate_ff_coloring(image.h, image_coloring(image))
        assert validate_homomorphism(g, image.h, hom)

    def test_edgeless_single_class(self):
        g = empty_graph(3)
        pd = PathDecomposition(((0,), (1,), (2,)))
        ic = interval_completion(g, pd)
        image, hom = build_ff_image(g, ic, FFColoring((frozenset({0, 1, 2}),)))
        assert image.h.n == 3  # disjoint spans stay separate components
        assert validate_homomorphism(g, image.h, hom)

    def test_failed_certificate_raises_internal_error(self, monkeypatch):
        # a merge whose running right end never grows keeps vertex 1's span
        # (2, 3) in the component of (1, 2), and the certificate refuses it
        g = empty_graph(3)
        spans = ((1, 2), (2, 3), (3, 4))
        coloring = FFColoring((frozenset({0, 1, 2}),))
        assert build_ff_image(g, spans, coloring)[0].intervals == ((1, 4),)
        monkeypatch.setattr(homomorphism_module, "max", lambda reach, b: reach, raising=False)
        message = r"vertex 1's span \(2, 3\) leaves its image's interval"
        with pytest.raises(InternalError, match=message):
            build_ff_image(g, spans, coloring)

    @pytest.mark.parametrize("g, spans, classes, message", [
        (path_graph(2), ((1, 1), (1, 1)), [{0, 1}], "vertex 1 shares its image 0 with a neighbour"),
        (empty_graph(2), ((1, 1), (2, 2)), [{0}], r"vertex 1 has image -1, outside 0\.\.0"),
        (empty_graph(2), ((1, 1), (2, 2)), [{0}, {0, 1}], "image vertex 0 is not hit"),
    ], ids=["edge in a class", "vertex in no class", "vertex in two classes"])
    def test_certificate_refuses_maps_from_a_bad_coloring(self, monkeypatch, g, spans, classes,
                                                          message):
        # with the coloring checks switched off, each bad input reaches the map's certificate
        monkeypatch.setattr(homomorphism_module, "_greedy_law", lambda *a: True)
        with pytest.raises(InternalError, match=message):
            build_ff_image(g, spans, FFColoring(tuple(map(frozenset, classes))))

    def test_completion_of_another_size_is_rejected(self):
        g = path_graph(3)
        coloring = first_fit_color(g, PresentationOrder.identity(3))
        with pytest.raises(InvalidDecomposition, match="completion and graph sizes differ"):
            build_ff_image(g, ((1, 1),), coloring)

    def test_completion_missing_an_edge_is_rejected(self):
        g = path_graph(2)
        coloring = first_fit_color(g, PresentationOrder.identity(2))
        with pytest.raises(InvalidDecomposition):
            build_ff_image(g, ((1, 1), (2, 2)), coloring)

    @given(graphs(max_n=7), span_lists(max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_entry_check_is_the_edge_rule(self, g, spans):
        # any completion: rejected exactly when some edge joins disjoint spans
        spans = (spans + [(1, 1)] * g.n)[: g.n]
        coloring = first_fit_color(g, PresentationOrder.identity(g.n))
        ic = tuple(spans)
        if all(spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]
               for u, v in graph_edges(g)):
            image, hom = build_ff_image(g, ic, coloring)
            assert validate_homomorphism(g, image.h, hom)
            assert brute_homomorphism_ok(g, image.h, hom)
        else:
            with pytest.raises(InvalidDecomposition):
                build_ff_image(g, ic, coloring)

    @given(span_lists())
    @example([])
    @example(SPAN_EDGE_CASES)
    @settings(max_examples=100, deadline=None)
    def test_image_of_an_interval_graph_is_its_spans(self, spans):
        # the classes of an interval graph hold disjoint spans, so none merge
        # and H is the intersection graph of the completion's spans
        g = brute_interval_graph(spans)
        ic = interval_completion(g, clique_path_of_intervals(spans))
        assert brute_interval_graph(ic) == g
        image, hom = build_ff_image(g, ic, first_fit_color(g, PresentationOrder.identity(g.n)))
        assert tuple(image.intervals[x] for x in hom.mapping) == ic
        assert image.h == brute_interval_graph(image.intervals)
        assert validate_homomorphism(g, image.h, hom)
        assert brute_homomorphism_ok(g, image.h, hom)

    @given(span_lists())
    @example([])
    @example(SPAN_EDGE_CASES)
    @settings(max_examples=100, deadline=None)
    def test_one_class_merges_into_intersection_components(self, spans):
        # an edgeless graph is one First-Fit class, so each component of the
        # completion becomes one vertex, numbered by its least member
        g = Graph(len(spans), [])
        ic = interval_completion(g, clique_path_of_intervals(spans))
        image, hom = build_ff_image(g, ic, first_fit_color(g, PresentationOrder.identity(g.n)))
        spans = ic
        comps = brute_components(brute_interval_graph(spans))
        assert image.intervals == tuple(
            (min(spans[v][0] for v in c), max(spans[v][1] for v in c)) for c in comps
        )
        assert hom.mapping == tuple(
            next(i for i, c in enumerate(comps) if v in c) for v in range(g.n)
        )
        assert validate_homomorphism(g, image.h, hom)
        assert brute_homomorphism_ok(g, image.h, hom)

    def test_north_star_stacked_quotient(self):
        # stacked(30, 10) in its natural order: every certificate runs at n = 3915
        sp = stacked(30, 10)
        g = incomparability_graph(sp.poset)
        seq = block_sequence(sp.poset, 30)
        coloring = first_fit_color(g, sp.natural_order)
        image, hom = build_ff_image(g, spans_from_blocks(seq), coloring)
        assert validate_homomorphism(g, image.h, hom)
        assert seq.width == 569
        assert coloring.color_count == 261
        assert image.h.n == 270
        assert interval_clique_number(image.intervals) == 261

    def test_north_star_interval_order_quotient(self):
        # gen_interval_order(1, 2000) with the k = 2 slide decomposition and
        # identity First-Fit: every certificate runs at n = 2000
        p = gen_interval_order(1, 2000)
        g = incomparability_graph(p)
        seq = block_sequence(p, 2)
        coloring = first_fit_color(g, PresentationOrder.identity(g.n))
        image, hom = build_ff_image(g, spans_from_blocks(seq), coloring)
        assert validate_homomorphism(g, image.h, hom)
        assert seq.width == 1018
        assert coloring.color_count == 1038
        assert image.h.n == 1576
        assert interval_clique_number(image.intervals) == 1019

    def test_rejects_non_ff_coloring(self):
        g = path_graph(3)
        pd = path_decomposition_exact(g)
        ic = interval_completion(g, pd)
        with pytest.raises(InvalidColoring):
            build_ff_image(g, ic, FFColoring((frozenset({0}), frozenset({1, 2}))))

    def test_interval_graphs_keep_their_class_count(self):
        for seed in range(6):
            p = gen_interval_order(seed, 12)
            g = incomparability_graph(p)
            ic = spans_from_blocks(block_sequence(p, 2))
            coloring = first_fit_color(g, PresentationOrder.identity(g.n))
            image, hom = build_ff_image(g, ic, coloring)
            assert len(image.classes) == coloring.color_count
            assert validate_ff_coloring(image.h, image_coloring(image))
            assert validate_homomorphism(g, image.h, hom)

    def test_interval_graph_with_clique_path_maps_injectively(self):
        # when the completion adds no edges, classes split into singletons
        for seed in range(6):
            rng = SplitMix64(seed)
            intervals = []
            for _ in range(12):
                a, b = rng.below(20), rng.below(20)
                intervals.append((min(a, b), max(a, b)))
            p = interval_order_from_intervals(intervals)
            g = incomparability_graph(p)
            pd = clique_path_of_intervals(intervals)
            ic = interval_completion(g, pd)
            assert brute_interval_graph(ic) == g
            coloring = first_fit_color(g, PresentationOrder.identity(g.n))
            image, hom = build_ff_image(g, ic, coloring)
            assert sorted(hom.mapping) == list(range(g.n))  # injective
            assert len(image.classes) == coloring.color_count
            assert validate_ff_coloring(image.h, image_coloring(image))

    @given(graphs_with_orders(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_quotient_laws_hold(self, pair):
        g, order = pair
        pd = path_decomposition_exact(g)
        ic = interval_completion(g, pd)
        coloring = first_fit_color(g, order)
        image, hom = build_ff_image(g, ic, coloring)
        assert interval_clique_number(image.intervals) <= pd.width + 1
        assert validate_homomorphism(g, image.h, hom)
        assert brute_homomorphism_ok(g, image.h, hom)
        assert validate_ff_coloring(image.h, image_coloring(image))
        assert len(image.classes) == coloring.color_count
        assert image.h == brute_interval_graph(image.intervals)
        # distinct quotient intervals of one class never meet
        for cls in image.classes:
            for x in cls:
                for y in cls:
                    if x < y:
                        ax, bx = image.intervals[x]
                        ay, by = image.intervals[y]
                        assert bx < ay or by < ax


def grid_graph(rows, cols):
    """The rows x cols grid, vertex c * rows + r at row r and column c."""
    edges = [(v, v + 1) for v in range(rows * cols) if v % rows < rows - 1]
    return Graph(rows * cols, edges + [(v, v + rows) for v in range(rows * (cols - 1))])


def three_plus_three_free_poset():
    """A 16-element 3+3-free poset of width 7, by its cover pairs: a search
    for posets whose Dilworth chains stick a slide at window 2 found it."""
    return build_poset(16, [
        (0, 4), (0, 14), (1, 6), (1, 8), (2, 1), (2, 5), (2, 7), (3, 14), (4, 7), (7, 6), (9, 3),
        (9, 6), (9, 8), (10, 7), (10, 14), (11, 7), (11, 9), (11, 15), (13, 8), (13, 10),
        (13, 15), (15, 14),
    ])


def width_three_poset_above_window_k_minus_1():
    """A 13-element 3+3-free poset of width 3, by its cover pairs: its exact
    pathwidth 6 lies above (k-1)w - 1 = 5 at k = 3 and below the slide's 8."""
    return build_poset(13, [
        (0, 1), (0, 2), (1, 3), (1, 9), (2, 4), (2, 5), (2, 10), (3, 5), (4, 8), (4, 12), (6, 7),
        (6, 8), (7, 9), (8, 11), (9, 10), (10, 11), (10, 12),
    ])


def pinned_pathwidth_graphs():
    """Past the golden quotient cases' n <= 10: seeded graphs at n = 11-14 with
    densities 0.1-0.95, then C14, the 2 x 7 grid and K7,7."""
    seeded = [gen_graph(i, 11 + i % 4, 0.1 + 0.85 * i / 20) for i in range(21)]
    return seeded + [cycle_graph(14), grid_graph(2, 7), complete_bipartite_graph(7, 7)]


# sha256 of the canonical JSON list of path_decomposition_exact's bags over
# pinned_pathwidth_graphs(); the recovery takes the lowest vertex that keeps
# the optimum, so any exact-cost table gives these bytes
PINNED_BAGS_SHA256 = "fa9dd4412deb11426277d345f5dbbe10334e9c601af4da89a2e9d40fc2859192"


class TestPathwidthExact:
    def test_path(self):
        assert pathwidth_exact(path_graph(6)) == 1

    def test_complete(self):
        assert pathwidth_exact(complete_graph(5)) == 4

    def test_complete_tripartite_two_each(self):
        assert pathwidth_exact(complete_multipartite_graph([2, 2, 2])) == 4

    def test_known_spot_values(self):
        assert pathwidth_exact(path_graph(1)) == 0
        assert pathwidth_exact(cycle_graph(6)) == 2
        assert pathwidth_exact(complete_bipartite_graph(2, 5)) == 2
        grid = []
        for r in range(3):
            for c in range(3):
                v = 3 * r + c
                if c < 2:
                    grid.append((v, v + 1))
                if r < 2:
                    grid.append((v, v + 3))
        assert pathwidth_exact(Graph(9, grid)) == 3

    def test_too_large(self):
        for oracle in (pathwidth_exact, path_decomposition_exact):
            with pytest.raises(TooLarge, match="subset DP limited to 16 vertices, got 17"):
                oracle(empty_graph(17))

    def test_largest_accepted_size(self):
        assert pathwidth_exact(empty_graph(16)) == 0
        assert path_decomposition_exact(empty_graph(16)).width == 0

    def test_exact_decomposition_matches(self):
        for seed in range(8):
            g = gen_graph(seed, 8, 0.35)
            pd = path_decomposition_exact(g)
            assert pd.width == pathwidth_exact(g)

    def test_spot_values_at_the_limit(self):
        for g, width in ((cycle_graph(14), 2), (path_graph(14), 1), (grid_graph(2, 7), 2),
                         (complete_bipartite_graph(7, 7), 7), (complete_graph(14), 13)):
            assert pathwidth_exact(g) == width
            assert path_decomposition_exact(g).width == width

    def test_pinned_bags_up_to_the_limit(self):
        bags = []
        for g in pinned_pathwidth_graphs():
            pd = path_decomposition_exact(g)
            assert pd.width == pathwidth_exact(g)
            bags.append([list(b) for b in pd.bags])
        assert hashlib.sha256(canonical_dumps(bags).encode()).hexdigest() == PINNED_BAGS_SHA256

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_permutation_sweep(self, g):
        assert pathwidth_exact(g) == brute_pathwidth(g)

    @pytest.mark.parametrize("oracle", [pathwidth_exact, path_decomposition_exact])
    def test_leaves_no_reference_cycle(self, oracle):
        # the memo table must be freed with the call, not left to the collector
        g = gen_graph(3, 12, 0.4)
        gc.collect()
        gc.disable()
        try:
            oracle(g)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_failed_certificate_raises_internal_error(self, monkeypatch):
        monkeypatch.setattr(homomorphism_module, "_spans_cover_edges", lambda *a: False)
        with pytest.raises(InternalError, match="recovered layout is not a path decomposition"):
            path_decomposition_exact(path_graph(4))

    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_ff_bounded_by_pathwidth(self, g):
        assert grundy_number(g) <= 8 * (pathwidth_exact(g) + 1)


class TestSeparationPruning:
    """The pruned cost table against the recursion that fills every child it tries."""

    @staticmethod
    def graphs():
        seeded = [gen_graph(seed, n, density) for seed in range(3) for n in (5, 8, 10, 12, 15, 16)
                  for density in (0.15, 0.3, 0.5, 0.7, 0.9)]
        inc = incomparability_graph(three_plus_three_free_poset())
        return seeded + pinned_pathwidth_graphs() + [inc]

    def test_table_is_a_part_of_the_unpruned_one(self):
        for g in self.graphs():
            assert homomorphism_module._separation_costs(g)[1].items() <= \
                reference_separation_table(g).items()

    def test_decomposition_is_the_unpruned_tables(self, monkeypatch):
        graphs = self.graphs()
        pruned = [path_decomposition_exact(g).bags for g in graphs]
        # the walk over the full table, where no child it reads is missing
        monkeypatch.setattr(homomorphism_module, "_separation_costs", lambda g: (
            [g.nbr_mask(v) for v in range(g.n)], reference_separation_table(g)))
        assert pruned == [path_decomposition_exact(g).bags for g in graphs]

    @pytest.mark.parametrize("g, before, after", [
        (cycle_graph(14), 7694, 15),
        (grid_graph(2, 7), 7953, 15),
        (complete_bipartite_graph(7, 7), 771, 15),
        (gen_graph(1, 14, 0.2), 2449, 254),
    ], ids=["C14", "grid2x7", "K7,7", "gen_graph(1,14,0.2)"])
    def test_pinned_table_sizes(self, g, before, after):
        assert len(reference_separation_table(g)) == before
        assert len(homomorphism_module._separation_costs(g)[1]) == after

    def test_three_plus_three_free_poset_at_the_limit(self):
        p = three_plus_three_free_poset()
        assert width_with_witness(p)[0] == 7
        assert find_k_plus_k(p, 3) is None
        g = incomparability_graph(p)
        assert pathwidth_exact(g) == 10
        assert path_decomposition_exact(g).width == 10
        assert reference_separation_table(g)[(1 << g.n) - 1] == 10

    def test_width_three_poset_above_window_k_minus_1(self):
        p = width_three_poset_above_window_k_minus_1()
        assert width_with_witness(p)[0] == 3
        assert find_k_plus_k(p, 3) is None
        g = incomparability_graph(p)
        assert pathwidth_exact(g) == 6
        assert reference_separation_table(g)[(1 << g.n) - 1] == 6
        pd = path_decomposition_exact(g)
        assert pd.width == 6 and validate_path_decomposition(g, pd)
        # the paper's window 2k - 3 on the 3 Dilworth chains: (2k - 3)w - 1
        assert block_sequence(p, 3).width == 8


class TestValidateHomomorphism:
    def test_identity(self):
        g = path_graph(3)
        assert validate_homomorphism(g, g, Homomorphism((0, 1, 2)))

    def test_constant_map_fails_on_edges(self):
        g = path_graph(2)
        h = complete_graph(1)
        assert not validate_homomorphism(g, h, Homomorphism((0, 0)))

    def test_edge_onto_a_non_edge_fails(self):
        # surjective and no edge collapsed, but the edge 0-1 lands on a non-edge
        assert not validate_homomorphism(path_graph(2), empty_graph(2), Homomorphism((0, 1)))

    def test_non_surjective_fails(self):
        g = empty_graph(2)
        h = empty_graph(2)
        assert not validate_homomorphism(g, h, Homomorphism((0, 0)))

    def test_grundy_optimal_transfer_certifies(self):
        # with a worst-case coloring the quotient pins FF(H) >= FF(G)
        for seed in (2, 5, 8):
            g = gen_graph(seed, 8, 0.4)
            pd = path_decomposition_exact(g)
            ic = interval_completion(g, pd)
            best = grundy_coloring(g)
            image, _ = build_ff_image(g, ic, best)
            assert validate_ff_coloring(image.h, image_coloring(image))
            assert grundy_number(image.h) >= best.color_count


class TestValidateHomomorphismAgreesWithOracle:
    """validate_homomorphism against the pair-by-pair oracle: the same bool,
    or the same exception class."""

    @given(graphs(max_n=7), graphs(max_n=5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_maps_onto_a_random_graph(self, g, h, data):
        # lengths and values a step outside the valid ranges too
        size = data.draw(st.sampled_from((g.n, g.n, g.n, max(g.n - 1, 0), g.n + 1)))
        mapping = data.draw(st.lists(st.integers(-1, h.n), min_size=size, max_size=size))
        f = Homomorphism(tuple(mapping))
        assert outcome(validate_homomorphism, g, h, f) == outcome(brute_homomorphism_ok, g, h, f)

    @given(graphs(max_n=7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_maps_onto_their_image_and_more(self, g, data):
        # H holds the image of every uncollapsed edge but at most one, plus
        # extra edges (few, or all), so the map fails only by collapsing an
        # edge, sending one onto the dropped non-edge, or missing a vertex
        raw = data.draw(st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n))
        rank = {x: i for i, x in enumerate(sorted(set(raw)))}
        mapping = [rank[x] for x in raw]
        hn = len(rank) + data.draw(st.integers(0, 1))  # one more vertex is never hit
        image = {tuple(sorted((mapping[u], mapping[v]))) for u, v in graph_edges(g)}
        dropped = set()
        if image and data.draw(st.booleans()):
            dropped.add(data.draw(st.sampled_from(sorted(image))))
        if data.draw(st.booleans()):
            extra = set(combinations(range(hn), 2))
        else:
            extra = data.draw(st.frozensets(st.tuples(st.integers(0, hn), st.integers(0, hn))))
        h = Graph(hn, sorted({(a, b) for a, b in (image | extra) - dropped if a < b < hn}))
        f = Homomorphism(tuple(mapping))
        assert outcome(validate_homomorphism, g, h, f) == outcome(brute_homomorphism_ok, g, h, f)

    # Each image vertex x ORs the preimages of its neighbours.  An edgeless h
    # gives every x no neighbour, a complete h every other vertex, and a star
    # its centre every leaf and each leaf the centre alone.  Random h mix
    # sparse and dense neighbourhoods.
    @pytest.mark.parametrize("hn", [1, 7, 8, 9, 17])
    @pytest.mark.parametrize("shape", ["edgeless", "complete", "star", "sparse", "dense"])
    def test_both_sides_of_each_neighbourhood(self, hn, shape):
        rng = random.Random(hn)
        pairs = list(combinations(range(hn), 2))
        h = Graph(hn, {
            "edgeless": [],
            "complete": pairs,
            "star": [(0, x) for x in range(1, hn)],
            "sparse": [e for e in pairs if rng.random() < 0.25],
            "dense": [e for e in pairs if rng.random() < 0.75],
        }[shape])
        for trial in range(60):
            # a surjective map that hits some vertex twice, and g holds each
            # pair over an edge of h with probability 1/2; every other trial
            # adds one pair that collapses onto one vertex or lands on a non-edge
            mapping = list(range(hn)) + [rng.randrange(hn) for _ in range(rng.randrange(1, 8))]
            rng.shuffle(mapping)
            over_edge = {(u, v): adjacent(h, mapping[u], mapping[v])
                         for u, v in combinations(range(len(mapping)), 2)}
            edges = {e for e, ok in over_edge.items() if ok and rng.random() < 0.5}
            if trial % 2:
                edges.add(rng.choice([e for e, ok in over_edge.items() if not ok]))
            g = Graph(len(mapping), sorted(edges))
            f = Homomorphism(tuple(mapping))
            assert validate_homomorphism(g, h, f) == brute_homomorphism_ok(g, h, f) == (trial % 2 == 0)

    @given(graphs_with_orders(max_n=7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_quotient_maps_and_one_changed_image(self, pair, data):
        g, order = pair
        if g.n == 0:
            return
        ic = interval_completion(g, path_decomposition_exact(g))
        image, hom = build_ff_image(g, ic, first_fit_color(g, order))
        mapping = list(hom.mapping)
        if data.draw(st.booleans()):
            mapping[data.draw(st.integers(0, g.n - 1))] = data.draw(st.integers(0, image.h.n - 1))
        f = Homomorphism(tuple(mapping))
        assert outcome(validate_homomorphism, g, image.h, f) == outcome(brute_homomorphism_ok, g, image.h, f)
