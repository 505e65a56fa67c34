import pytest

from posetff import (
    GaveUp,
    ParamError,
    SplitMix64,
    block_sequence,
    canonical_dumps,
    find_k_plus_k,
    gen_interval_order,
    gen_kk_free,
    gen_random_poset,
    is_interval_order,
    poset_text,
    random_intervals,
    width_with_witness,
)
from helpers import complete_graph, empty_graph, gen_graph, graph_edges, slide_order

# regression pin: published splitmix64 stream for seed 0
SPLITMIX_SEED0 = (16294208416658607535, 7960286522194355700, 487617019471545679)

# regression pin: gen_graph(seed=3, n=9, density=0.4), generated once
PINNED_GRAPH_EDGES = [
    (0, 1), (0, 4), (0, 5), (0, 7), (1, 7), (2, 4), (2, 5), (2, 6),
    (3, 6), (4, 5), (4, 6), (5, 8), (7, 8),
]
PINNED_GRAPH_JSON = (
    '{"edges":[[0,1],[0,4],[0,5],[0,7],[1,7],[2,4],[2,5],[2,6],[3,6],[4,5],[4,6],[5,8],[7,8]],'
    '"n":9}\n'
)


class TestSplitMix:
    def test_reference_stream(self):
        rng = SplitMix64(0)
        assert tuple(rng.next_u64() for _ in range(3)) == SPLITMIX_SEED0

    def test_shuffle_deterministic(self):
        assert SplitMix64(9).permutation(6) == SplitMix64(9).permutation(6)

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ParamError, match=r"^below\(\) needs a positive bound$"):
            SplitMix64(1).below(0)


class TestGenIntervalOrder:
    def test_empty(self):
        assert gen_interval_order(0, 0).n == 0

    def test_single(self):
        assert gen_interval_order(0, 1).n == 1

    def test_draw_pinned(self):
        # regression pin: the draw behind gen_interval_order, generated once
        assert random_intervals(5, 6) == [(2, 4), (5, 11), (1, 4), (3, 9), (4, 11), (3, 4)]
        assert random_intervals(0, 0) == []
        assert all(0 <= lo <= hi < 60 for lo, hi in random_intervals(4, 30))

    def test_seeded_instance_is_interval(self):
        p = gen_interval_order(7, 30)
        assert is_interval_order(p)
        assert find_k_plus_k(p, 2) is None

    def test_blocks_stay_within_width(self):
        for seed in range(6):
            p = gen_interval_order(seed, 30)
            wq, _ = width_with_witness(slide_order(p, block_sequence(p, 2)))
            wp, _ = width_with_witness(p)
            assert wq <= wp

    def test_determinism_bytes(self):
        a = poset_text(gen_interval_order(11, 25), None, None)
        b = poset_text(gen_interval_order(11, 25), None, None)
        c = poset_text(gen_interval_order(12, 25), None, None)
        assert a == b
        assert a != c


class TestGenKkFree:
    def test_k2_matches_interval_recognition(self):
        p = gen_kk_free(5, 12, 2)
        assert is_interval_order(p)

    def test_k3_seeded(self):
        p = gen_kk_free(1, 18, 3)
        assert find_k_plus_k(p, 3) is None

    def test_single_element_immediate(self):
        assert gen_kk_free(0, 1, 4).n == 1

    def test_gave_up(self):
        # every one of the 100 tries at n = 40 holds a 2+2
        with pytest.raises(GaveUp, match=r"^no 2\+2-free instance within 100 tries$"):
            gen_kk_free(0, 40, 2)

    def test_determinism(self):
        assert gen_kk_free(9, 14, 3) == gen_kk_free(9, 14, 3)


class TestGenRandomPoset:
    def test_extremes(self):
        assert gen_random_poset(SplitMix64(0), 6, 0.0).n == 6
        full = gen_random_poset(SplitMix64(0), 6, 1.0)
        assert width_with_witness(full)[0] == 1  # every forward pair kept: a chain

    def test_density_validation(self):
        with pytest.raises(ParamError, match=r"^density must lie in \[0, 1\]$"):
            gen_random_poset(SplitMix64(0), 4, 1.5)


def graph_json(g):
    return canonical_dumps({"n": g.n, "edges": [list(e) for e in graph_edges(g)]})


class TestGenGraph:
    def test_density_zero(self):
        assert gen_graph(4, 7, 0.0) == empty_graph(7)

    def test_density_one(self):
        assert gen_graph(4, 6, 1.0) == complete_graph(6)

    def test_pinned_fixture(self):
        g = gen_graph(3, 9, 0.4)
        assert graph_edges(g) == PINNED_GRAPH_EDGES
        assert graph_json(g) == PINNED_GRAPH_JSON

    def test_determinism_bytes(self):
        a = graph_json(gen_graph(8, 10, 0.5))
        b = graph_json(gen_graph(8, 10, 0.5))
        assert a == b


@pytest.mark.parametrize("make, message", [
    (lambda: gen_kk_free(0, 5, 1), "k must be at least 2"),
    (lambda: random_intervals(0, -1), "n must be non-negative"),
], ids=["kk-free-k1", "intervals-negative-n"])
def test_pinned_param_errors(make, message):
    with pytest.raises(ParamError) as info:
        make()
    assert type(info.value) is ParamError
    assert str(info.value) == message
