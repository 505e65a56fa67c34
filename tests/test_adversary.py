import pytest

from posetff import (
    KkWitness,
    LadderPoset,
    ParamError,
    Poset,
    PresentationOrder,
    block_sequence,
    build_poset,
    find_k_plus_k,
    first_fit_chains,
    incomparability_graph,
    kierstead,
    stacked,
    width_with_witness,
)
from posetff import order
from posetff.adversary import _ladder_covers
from helpers import ladder_assignment, ladder_id, stacked_degenerate, transpose_by_strings


def ladder_rule_pairs(q):
    """The defining relation, spelled out pairwise (oracle for the fast masks)."""
    ids = {}
    for i in range(1, q + 1):
        for j in range(1, i + 1):
            ids[(i, j)] = len(ids)
    pairs = []
    for (i, j), u in ids.items():
        for (i2, j2), v in ids.items():
            if i <= i2 - 2 or (i in (i2 - 1, i2) and j <= j2 - 1):
                pairs.append((u, v))
    return len(ids), pairs


def ladder_names(q, prefix="v"):
    return [f"{prefix}[{i},{j}]" for i in range(1, q + 1) for j in range(1, i + 1)]


def assert_same_order(got, want, names):
    """Equal successor and predecessor masks, and the given names.

    ``Poset.__eq__`` compares only the successor masks."""
    assert got == want
    assert [got.pred_mask(u) for u in range(got.n)] == [want.pred_mask(u) for u in range(want.n)]
    assert got.names == tuple(names)


class TestKierstead:
    def test_single_element(self):
        kp = kierstead(1)
        assert kp.poset.n == 1
        assert first_fit_chains(kp.poset, kp.natural_order).chain_count == 1

    def test_three_elements(self):
        kp = kierstead(2)
        assert kp.poset.n == 3
        assert first_fit_chains(kp.poset, kp.natural_order).chain_count == 2

    def test_rejects_zero(self):
        with pytest.raises(ParamError):
            kierstead(0)

    @pytest.mark.parametrize("q", range(2, 13))
    def test_natural_order_forces_q_chains(self, q):
        kp = kierstead(q)
        assert kp.poset.n == q * (q + 1) // 2
        res = first_fit_chains(kp.poset, kp.natural_order)
        assert res.chain_count == q
        assert res.assignment == ladder_assignment(q, 1)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_width_two(self, q):
        assert width_with_witness(kierstead(q).poset)[0] == 2

    @pytest.mark.parametrize("q", range(2, 8))
    def test_incomparability_degree_at_most_q(self, q):
        g = incomparability_graph(kierstead(q).poset)
        assert max(g.nbr_mask(u).bit_count() for u in range(g.n)) <= q

    @pytest.mark.parametrize("q", range(1, 17))
    def test_masks_match_the_rule_closure(self, q):
        n, pairs = ladder_rule_pairs(q)
        assert_same_order(kierstead(q).poset, build_poset(n, pairs), ladder_names(q))

    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_names_follow_the_ids(self, q):
        names = kierstead(q).poset.names
        assert [names[ladder_id(q, i, j, 1)] for i in range(1, q + 1)
                for j in range(1, i + 1)] == ladder_names(q)

    def test_least_k_without_k_plus_k_and_least_k_the_slide_completes(self):
        # the slide may finish where a k+k still exists, never the other way
        kk_free, slid = [], []
        for q in range(2, 16):
            p = kierstead(q).poset
            kk_free.append(next(k for k in range(2, q + 2) if find_k_plus_k(p, k) is None))
            slid.append(next(k for k in range(2, q + 2)
                             if not isinstance(block_sequence(p, k), KkWitness)))
        assert kk_free == [q // 2 + 1 for q in range(2, 16)]
        assert slid == [2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5]

    @pytest.mark.parametrize("k", range(2, 9))
    def test_odd_ladder_forces_2k_minus_1_chains_at_width_two(self, k):
        # stacked(k, 2) forces only k - 1 chains on a width-2 k+k-free poset
        kp = kierstead(2 * k - 1)
        assert width_with_witness(kp.poset)[0] == 2
        assert find_k_plus_k(kp.poset, k) is None
        assert first_fit_chains(kp.poset, kp.natural_order).chain_count == 2 * k - 1


class TestStacked:
    def test_param_errors(self):
        with pytest.raises(ParamError):
            stacked(2, 3)
        with pytest.raises(ParamError):
            stacked(4, 1)

    def test_w_two_is_the_plain_ladder(self):
        sp = stacked(3, 2)
        assert sp.poset == kierstead(2).poset
        assert first_fit_chains(sp.poset, sp.natural_order).chain_count == 2

    def test_flagship_counts(self):
        sp = stacked(5, 4)
        res = first_fit_chains(sp.poset, sp.natural_order)
        assert res.chain_count == 12
        assert width_with_witness(sp.poset)[0] == 4

    @pytest.mark.parametrize("k,w", [(3, 3), (4, 3), (3, 5), (6, 4)])
    def test_forced_chains_and_width(self, k, w):
        sp = stacked(k, w)
        res = first_fit_chains(sp.poset, sp.natural_order)
        assert res.chain_count == (k - 1) * (w - 1)
        assert res.assignment == ladder_assignment(k - 1, w - 1)
        assert width_with_witness(sp.poset)[0] == w

    @pytest.mark.parametrize("k,w", [(3, 3), (3, 4), (4, 3), (4, 4)])
    def test_no_forbidden_pattern(self, k, w):
        assert find_k_plus_k(stacked(k, w).poset, k) is None

    @pytest.mark.parametrize("k,w", [(3, 2), (3, 3), (3, 6), (4, 2), (4, 3), (5, 4), (7, 3)])
    def test_closure_matches_pairwise_rule(self, k, w):
        # glue the pairwise ladder rule across copies and re-close; at k = 3
        # the ladder has two rows, so only row 1 lies below the later copies
        sp = stacked(k, w)
        q = k - 1
        m, base_pairs = ladder_rule_pairs(q)
        top_row = {m - q + t for t in range(q)}
        pairs = []
        for copy in range(w - 1):
            off = copy * m
            pairs.extend((u + off, v + off) for u, v in base_pairs)
            for u in range(m):
                if u in top_row:
                    continue
                for later in range(copy + 1, w - 1):
                    pairs.extend((u + off, later * m + v) for v in range(m))
        names = [name for c in range(1, w) for name in ladder_names(q, f"v{c}")]
        assert_same_order(sp.poset, build_poset(sp.poset.n, pairs), names)

    @pytest.mark.parametrize("k,w", [(3, 3), (4, 2), (5, 4)])
    def test_names_follow_the_ids(self, k, w):
        q, names = k - 1, stacked(k, w).poset.names
        for c in range(1, w):
            assert [names[ladder_id(q, i, j, c)] for i in range(1, q + 1)
                    for j in range(1, i + 1)] == ladder_names(q, f"v{c}")

    def test_degenerate_k2(self):
        p = stacked_degenerate(4)
        assert p.names == ("v1[1,1]", "v2[1,1]", "v3[1,1]", "v4[1,1]")
        assert width_with_witness(p)[0] == 4
        assert find_k_plus_k(p, 2) is None
        res = first_fit_chains(p, PresentationOrder.identity(4))
        assert res.chain_count == 4
        assert res.assignment == (1, 2, 3, 4) == ladder_assignment(1, 4)


def test_one_record_for_every_family():
    records = [kierstead(4), stacked(4, 3)]
    assert [type(r) for r in records] == [LadderPoset] * 2
    assert [(r.q, r.copies) for r in records] == [(4, 1), (3, 2)]


class TestCoverConstruction:
    """Both families are closed from their cover pairs, never by the checked kernels."""

    def test_built_without_the_checked_kernels(self, monkeypatch):
        def broken(*args):
            raise AssertionError("a checked kernel ran")

        monkeypatch.setattr(order, "_reach", broken)
        monkeypatch.setattr(order, "_transpose", broken)
        kp = kierstead(9)
        sp = stacked(5, 4)
        monkeypatch.undo()
        for p in (kp.poset, sp.poset):
            succ = [p.succ_mask(u) for u in range(p.n)]
            assert Poset(p.n, succ) == p
            assert [p.pred_mask(u) for u in range(p.n)] == list(transpose_by_strings(succ, p.n))

    @pytest.mark.parametrize("q", [1, 2, 3, 7, 12])
    def test_ladder_covers_are_the_cover_pairs(self, q):
        assert list(_ladder_covers(q, 1)) == sorted(kierstead(q).poset.cover_pairs())

    @pytest.mark.parametrize("k,w", [(3, 2), (3, 5), (4, 3), (6, 4), (9, 2)])
    def test_stacked_covers_are_the_cover_pairs(self, k, w):
        assert list(_ladder_covers(k - 1, w - 1)) == sorted(stacked(k, w).poset.cover_pairs())


class TestPredictedAssignment:
    def test_ladder_corners(self):
        chains = ladder_assignment(5, 1)
        assert chains[ladder_id(5, 5, 5, 1)] == 1
        assert chains[ladder_id(5, 5, 1, 1)] == 5

    def test_stacked_formula(self):
        assert ladder_assignment(4, 3)[ladder_id(4, 4, 1, 3)] == 12

    @pytest.mark.parametrize("q,copies", [(1, 1), (1, 5), (6, 1), (4, 3)])
    def test_ids_run_row_by_row_through_each_copy(self, q, copies):
        assert [ladder_id(q, i, j, c) for c in range(1, copies + 1) for i in range(1, q + 1)
                for j in range(1, i + 1)] == list(range(len(ladder_assignment(q, copies))))
