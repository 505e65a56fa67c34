"""Shared strategies and independent oracles for the test suite.

Oracles here deliberately avoid the library's algorithms: brute-force
subset scans and full permutation sweeps, usable only at tiny sizes, so
the fast implementations are checked against something they do not share
code with.
"""

import random
from itertools import combinations, permutations

from hypothesis import strategies as st

from posetff import (
    CoverageError,
    FFColoring,
    Graph,
    InternalError,
    KkWitness,
    LadderPoset,
    PathDecomposition,
    PresentationOrder,
    SizeMismatch,
    SplitMix64,
    build_poset,
    first_fit_color,
    incomparability_graph,
    interval_cover_rows,
    interval_order_from_intervals,
    spans_from_blocks,
)
from posetff.firstfit import _fill_grundy, _grundy_ceiling, _maximal_independent_sets
from posetff.jsonio import MAX_ELEMENTS


# Any value json.loads returns, and objects shaped like the documents: lists
# of integers read as element ids, pairs and bags.  Integers stay small, plus
# counts past the size limit; a poset near the limit takes seconds to build.
INTS = st.integers(-2, 6) | st.sampled_from([MAX_ELEMENTS + 1, 2**70, -(2**70)])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3) | INTS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)
INT_LISTS = st.lists(st.lists(INTS, max_size=3), max_size=6)
DOCUMENTS = JSON_VALUES | st.fixed_dictionaries({}, optional={
    "n": INTS | JSON_VALUES,
    "relations": INT_LISTS | JSON_VALUES,
    "names": st.lists(st.text(max_size=2), max_size=4) | JSON_VALUES,
    "order": st.lists(INTS, max_size=6) | JSON_VALUES,
    "bags": INT_LISTS | JSON_VALUES,
})


def chain_poset(n):
    """The total order 0 < 1 < ... < n-1."""
    return build_poset(n, [(u, u + 1) for u in range(n - 1)])


def antichain_poset(n):
    """n pairwise incomparable elements."""
    return build_poset(n, [])


def stacked_degenerate(w):
    """The k = 2 stand-in for ``stacked``: an antichain of w elements, named as
    w one-row ladders.  Width w, no two incomparable 2-chains, w forced chains."""
    return LadderPoset(build_poset(w, []), tuple(f"v{c}[1,1]" for c in range(1, w + 1)))


def ladder_id(q, i, j, copy):
    """The id of element v(i,j) of a ladder copy on rows 1..q, all 1-based:
    the ids run row by row through each copy in turn."""
    return (copy - 1) * q * (q + 1) // 2 + i * (i - 1) // 2 + j - 1


def ladder_assignment(q, copies):
    """The chain of each id, in id order, that First-Fit takes in the natural
    order of ``copies`` stacked ladders on rows 1..q: v(i,j) of copy c goes to
    chain q(c-1) + i - j + 1, the Omega(kw) lower bound's claim."""
    return tuple(q * (c - 1) + i - j + 1
                 for c in range(1, copies + 1) for i in range(1, q + 1) for j in range(1, i + 1))


def graph_edges(g):
    """Each edge once as (u, v) with u < v, in increasing order."""
    return [(u, v) for u in range(g.n) for v in _iter_bits(g.nbr_mask(u)) if u < v]


def adjacent(g, u, v):
    return (g.nbr_mask(u) >> v) & 1 == 1


def comparable(p, u, v):
    """Distinct ids in 0..n-1 with one below the other."""
    return 0 <= u < p.n and 0 <= v < p.n and u != v and (p.less(u, v) or p.less(v, u))


def incomparable(p, u, v):
    """Distinct ids in 0..n-1 with neither below the other."""
    return 0 <= u < p.n and 0 <= v < p.n and u != v and not p.less(u, v) and not p.less(v, u)


def is_antichain_pairwise(p, elems):
    """Ids in 0..n-1, every two of them incomparable (so also distinct)."""
    return all(0 <= u < p.n for u in elems) and all(
        incomparable(p, u, v) for u, v in combinations(elems, 2))


def is_chain_pairwise(p, chain):
    """Ids in 0..n-1, each below every one listed after it."""
    return all(0 <= u < p.n for u in chain) and all(
        p.less(u, v) for u, v in combinations(chain, 2))


def is_kk_witness_pairwise(p, a, b):
    """Two k-chains for some k >= 1, each listed in increasing order, with
    every cross pair incomparable (so disjoint)."""
    return (0 < len(a) == len(b) and is_chain_pairwise(p, a) and is_chain_pairwise(p, b)
            and all(incomparable(p, u, v) for u in a for v in b))


def increasing(p, chain):
    """A chain listed in increasing order: a member's place is the number of members below it."""
    return tuple(sorted(chain, key=lambda e: sum(p.less(u, e) for u in chain)))


def image_coloring(image):
    """An FFImage's transported classes as an FFColoring of its graph H."""
    return FFColoring(tuple(map(frozenset, image.classes)))


def empty_graph(n):
    return Graph(n, [])


def complete_graph(n):
    return Graph(n, combinations(range(n), 2))


def path_graph(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle_graph(n):
    """The n-cycle, for n >= 3."""
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def complete_bipartite_graph(a, b):
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def complete_multipartite_graph(sizes):
    """Parts of the given sizes on consecutive ids, every two parts fully joined."""
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return Graph(len(part), [(u, v) for u, v in combinations(range(len(part)), 2)
                             if part[u] != part[v]])


def gen_graph(seed, n, density):
    """Seeded random graph: each pair u < v, in increasing order, is an edge
    when the next SplitMix64 draw falls below density * 2^64."""
    threshold = int(density * (1 << 64))
    rng = SplitMix64(seed)
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.chance(threshold)])


@st.composite
def posets(draw, max_n=10):
    """Random posets via forward pairs on the identity order (always acyclic)."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return build_poset(n, [])
    pairs = draw(
        st.frozensets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda t: t[0] < t[1]),
            max_size=3 * n,
        )
    )
    return build_poset(n, sorted(pairs))


@st.composite
def spined_posets(draw, max_n=24):
    """Random posets in which long chains and k+k patterns are common: each
    element joins spine 0, spine 1 or neither, each spine is linked in id
    order, and up to n/2 random forward pairs may relate the spines."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    role = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    ids = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=n // 2))
    for spine in (0, 1):
        s = [u for u in range(n) if role[u] == spine]
        pairs += zip(s, s[1:])
    return build_poset(n, sorted({(u, v) for u, v in pairs if u < v}))


@st.composite
def shuffled_posets(draw, max_n=60):
    """Random DAGs whose ids do not follow the order: each pair of a random
    permutation is related, earlier below later, with one drawn density in
    0.02-0.5, so sparse forests and near-chains both come up.  About a third
    of the generator pairs are given twice, and all in shuffled order."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    density = draw(st.floats(0.02, 0.5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rank = list(range(n))
    rng.shuffle(rank)
    pairs = [(rank[i], rank[j]) for i, j in combinations(range(n), 2) if rng.random() < density]
    pairs += rng.sample(pairs, len(pairs) // 3)
    rng.shuffle(pairs)
    return build_poset(n, pairs)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return Graph(n, [])
    edges = draw(
        st.frozensets(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda t: t[0] < t[1]),
            max_size=3 * n,
        )
    )
    return Graph(n, sorted(edges))


def span_lists(max_size=10):
    """Closed integer spans on a short line from 1, so tied ends, single
    points, duplicates and spans that touch without overlapping are common;
    the empty list is drawn too."""
    return st.lists(
        st.tuples(st.integers(1, 8), st.integers(0, 3)).map(lambda t: (t[0], t[0] + t[1])),
        max_size=max_size,
    )


@st.composite
def posets_with_orders(draw, max_n=8):
    p = draw(posets(max_n=max_n))
    order = draw(st.permutations(range(p.n)))
    return p, PresentationOrder(tuple(order))


@st.composite
def graphs_with_orders(draw, max_n=8):
    g = draw(graphs(max_n=max_n))
    order = draw(st.permutations(range(g.n)))
    return g, PresentationOrder(tuple(order))


@st.composite
def dense_graphs_with_orders(draw, max_n=80):
    """Graphs in which each pair is an edge with probability at least 1/2,
    up to the complete graph, so greedy colorings use many classes; with a
    random order.  Edges and order come from one drawn seed."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    density = draw(st.sampled_from((0.5, 0.8, 0.9, 0.97, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
    return Graph(n, edges), PresentationOrder(tuple(rng.sample(range(n), n)))


CORRUPTIONS = ("none", "move", "merge", "swap", "empty", "drop", "repeat", "outside")


@st.composite
def corrupted_parts(draw, parts, n):
    """The parts of a partition of 0..n-1, as lists, either unchanged or with
    one corruption: an element moved to another part (or a new last one),
    two parts merged or swapped, an empty part appended, an element dropped,
    repeated in another part, or replaced by an id outside 0..n-1."""
    parts = [list(part) for part in parts]
    kind = draw(st.sampled_from(CORRUPTIONS))
    if kind == "empty":
        parts.append([])
    elif kind == "outside":
        parts.append([draw(st.sampled_from((-1, n)))])
    if not parts or kind in ("none", "empty", "outside"):
        return parts
    i = draw(st.integers(0, len(parts) - 1))
    j = draw(st.integers(0, len(parts)))  # len(parts) stands for a new last part
    if kind in ("merge", "swap"):
        j %= len(parts)
        if kind == "swap":
            parts[i], parts[j] = parts[j], parts[i]
        elif i != j:
            parts[min(i, j)] += parts.pop(max(i, j))
    elif parts[i]:
        at = draw(st.integers(0, len(parts[i]) - 1))
        v = parts[i][at]
        if kind != "repeat":
            del parts[i][at]
        if kind != "drop":
            if j == len(parts):
                parts.append([])
            parts[j].append(v)
    return parts


def brute_contains_kk(p, k):
    """Subset-scan oracle for two disjoint incomparable k-chains."""
    n = p.n
    if 2 * k > n:
        return False
    for sub in combinations(range(n), 2 * k):
        for a_part in combinations(sub, k):
            if a_part[0] != sub[0]:
                continue  # fix the smallest id into the first chain
            b_part = tuple(x for x in sub if x not in a_part)
            if not all(comparable(p, u, v) for u, v in combinations(a_part, 2)):
                continue
            if not all(comparable(p, u, v) for u, v in combinations(b_part, 2)):
                continue
            if all(incomparable(p, u, v) for u in a_part for v in b_part):
                return True
    return False


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def backtrack_kk(p, k):
    """Exhaustive backtracking for two disjoint incomparable k-chains.

    Candidate assignments extend in increasing id order, each element into
    chain a or chain b, pruned by candidate counts; the first element placed
    always goes to chain a.  Returns a KkWitness or None.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = p.n
    if 2 * k > n:
        return None
    full = (1 << n) - 1
    comp = [p.succ_mask(u) | p.pred_mask(u) for u in range(n)]
    g = incomparability_graph(p)
    inc = [g.nbr_mask(u) for u in range(n)]

    def rec(last, cand_a, cand_b, need_a, need_b, a, b):
        if not need_a and not need_b:
            return a, b
        gt = full & ~((1 << (last + 1)) - 1)
        avail_a = cand_a & gt if need_a else 0
        avail_b = cand_b & gt if need_b else 0
        if avail_a.bit_count() < need_a or avail_b.bit_count() < need_b:
            return None
        if (avail_a | avail_b).bit_count() < need_a + need_b:
            return None
        for v in _iter_bits(avail_a | avail_b):
            bit = 1 << v
            if avail_a & bit:
                got = rec(v, cand_a & comp[v], cand_b & inc[v], need_a - 1, need_b, a + (v,), b)
                if got is not None:
                    return got
            # first placed element always goes to chain a (symmetry break)
            if avail_b & bit and a:
                got = rec(v, cand_a & inc[v], cand_b & comp[v], need_a, need_b - 1, a, b + (v,))
                if got is not None:
                    return got
        return None

    got = rec(-1, full, full, k, k, (), ())
    if got is None:
        return None
    a, b = got
    witness = KkWitness(increasing(p, a), increasing(p, b))
    if not witness.is_valid(p):
        raise InternalError("k+k search returned an invalid witness")
    return witness


def transpose_by_strings(rows, n):
    """Columns of the n x n bit matrix whose row u is rows[u], each rows[u] < 2**n.

    Bit v of row u is character v of its reversed binary string, so one
    ``zip`` over the strings yields the columns.  The oracle that the tile
    kernel ``order._transpose`` must equal.
    """
    strings = [format(m, f"0{n}b")[::-1] for m in rows]
    return tuple(int("".join(col)[::-1], 2) for col in zip(*strings))


# -- the document dicts the text writers must equal byte for byte -------------
# canonical_dumps of each is the reference for the writer named in its docstring.


def _poset_dict(n, covers, names, meta):
    if names is not None and len(names) != n:
        raise SizeMismatch("names must match element count")
    d = {"n": n, "relations": covers, "names": names, "meta": meta}
    return {key: value for key, value in d.items() if value is not None}


def poset_to_dict(p, names, meta):
    """The poset file of p as a dict: the reference of ``jsonio.poset_text``."""
    return _poset_dict(p.n, sorted(p.cover_pairs()), names, meta)


def interval_cover_pairs(intervals):
    """The cover pairs (u, v) of the spans' interval order, in sorted order."""
    return [(u, v) for u, row in enumerate(interval_cover_rows(intervals)) for v in row]


def interval_order_to_dict(spans, names, meta):
    """The poset file of the spans' interval order as a dict: the reference of
    ``jsonio.interval_order_text``."""
    return _poset_dict(len(spans), interval_cover_pairs(spans), names, meta)


def reference_matching(p):
    """The Dilworth matching before failed searches kept their visited sets:
    every free root starts its BFS afresh.  Kept as the oracle that the
    faster ``order._maximum_matching`` must equal, (match_l, match_r) and all.

    Maximum bipartite matching on the split-vertex graph of the closed relation.

    Left copy of u connects to right copies of all v with u < v.  A greedy
    pass seeds the matching, then BFS augmentation finishes it.  Returns
    (match_l, match_r) with -1 for unmatched.
    """
    n = p.n
    match_l = [-1] * n
    match_r = [-1] * n
    taken = 0
    for u in range(n):
        free = p.succ_mask(u) & ~taken
        if free:
            v = (free & -free).bit_length() - 1
            match_l[u] = v
            match_r[v] = u
            taken |= 1 << v
    for root in range(n):
        if match_l[root] != -1:
            continue
        prev: dict[int, int] = {}
        visited_r = 0
        frontier = [root]
        goal = -1
        while frontier and goal == -1:
            nxt = []
            for u in frontier:
                fresh = p.succ_mask(u) & ~visited_r
                visited_r |= fresh
                for v in _iter_bits(fresh):
                    prev[v] = u
                    w = match_r[v]
                    if w == -1:
                        goal = v
                        break
                    nxt.append(w)
                if goal != -1:
                    break
            frontier = nxt
        if goal == -1:
            continue
        v = goal
        while True:
            u = prev[v]
            nxt_v = match_l[u]
            match_l[u] = v
            match_r[v] = u
            if nxt_v == -1:
                break
            v = nxt_v
    return match_l, match_r


def reference_koenig(p):
    """Koenig's sets (zl, zr) of ``reference_matching(p)``, as masks, by the
    alternating BFS that ``width_with_witness`` ran before it read Z_R off
    ``order._maximum_matching``'s dead set.

    A BFS from the unmatched left vertices along unmatched edges to the
    right and matched edges back marks Z_L and Z_R; the elements in Z_L but
    not in Z_R are a maximum antichain.  A left vertex in the BFS is a root
    or the partner of a right vertex already marked, so its own matched
    edge is never fresh and each right vertex's partner joins Z_L once.
    """
    match_l, match_r = reference_matching(p)
    frontier = [u for u in range(p.n) if match_l[u] == -1]
    zl = sum(1 << u for u in frontier)
    zr = 0
    while frontier:
        nxt = []
        for u in frontier:
            fresh = p.succ_mask(u) & ~zr
            zr |= fresh
            for v in _iter_bits(fresh):
                w = match_r[v]
                if w == -1:
                    raise AssertionError("an augmenting path survived the maximum matching")
                zl |= 1 << w
                nxt.append(w)
        frontier = nxt
    return zl, zr


def brute_grundy(g):
    """Full permutation sweep, no pruning; usable to n ~ 6."""
    best = 0
    for perm in permutations(range(g.n)):
        used = first_fit_color(g, PresentationOrder(perm)).color_count
        best = max(best, used)
    return best if g.n else 0


def brute_pathwidth(g):
    """Vertex separation by a full permutation sweep; usable to n ~ 7; -1 on no vertices.

    The boundary of a prefix of an order is its vertices with a neighbour
    after it; the pathwidth is the least, over all orders, of the largest
    prefix boundary (Kinnersley's vertex separation number).
    """
    nbrs = [[v for v in range(g.n) if adjacent(g, u, v)] for u in range(g.n)]
    best = g.n
    for perm in permutations(range(g.n)):
        pos = {v: i for i, v in enumerate(perm)}
        # u is on the boundary of the first i vertices when pos[u] < i <= last[u]
        last = [max((pos[v] for v in nbrs[u]), default=-1) for u in range(g.n)]
        worst = max((sum(pos[u] < i <= last[u] for u in range(g.n)) for i in range(1, g.n + 1)),
                    default=0)
        best = min(best, worst)
    return best if g.n else -1


def brute_first_fit_chains(p, order):
    """First-Fit chain partitioning, pair by pair: each element joins the
    least chain whose members are all comparable to it.  Returns the 1-based
    assignment and the chains, each listed in increasing order."""
    chains = []
    assignment = [0] * p.n
    for v in order.order:
        i = next((i for i, c in enumerate(chains) if all(comparable(p, u, v) for u in c)),
                 len(chains))
        if i == len(chains):
            chains.append([])
        chains[i].append(v)
        assignment[v] = i + 1
    chains = [increasing(p, c) for c in chains]
    return tuple(assignment), chains


def brute_first_fit_color(g, order):
    """Greedy coloring, pair by pair: each vertex joins the least class that
    holds no neighbour of it.  Returns the classes in color order."""
    classes = []
    for v in order.order:
        i = next((i for i, cls in enumerate(classes) if not any(adjacent(g, u, v) for u in cls)),
                 len(classes))
        if i == len(classes):
            classes.append(set())
        classes[i].add(v)
    return tuple(frozenset(cls) for cls in classes)


def _brute_cover(parts, n, what):
    """Raise CoverageError unless the parts partition 0..n-1."""
    flat = [v for part in parts for v in part]
    if sorted(flat) != list(range(n)):
        raise CoverageError(f"{what} do not partition 0..{n - 1}")


def is_chain_partition(p, chains):
    """Non-empty chains, each listed in increasing order (checked pair by
    pair), that cover 0..n-1 exactly once."""
    flat = [v for chain in chains for v in chain]
    return (sorted(flat) == list(range(p.n)) and all(chains)
            and all(p.less(chain[a], chain[b])
                    for chain in chains for a, b in combinations(range(len(chain)), 2)))


def brute_ff_partition_ok(p, parts):
    """First-Fit chain law, pair by pair: non-empty parts, each listed in
    increasing order, and each element of a later part incomparable to some
    element of every earlier part."""
    _brute_cover(parts, p.n, "chains")
    for j, part in enumerate(parts):
        if not part:
            return False
        if not all(p.less(part[a], part[b]) for a, b in combinations(range(len(part)), 2)):
            return False
        for v in part:
            if not all(any(incomparable(p, u, v) for u in earlier) for earlier in parts[:j]):
                return False
    return True


def brute_ff_coloring_ok(g, coloring):
    """Greedy coloring law, pair by pair: non-empty independent classes, and
    each vertex of a later class adjacent to some vertex of every earlier
    class."""
    classes = [sorted(cls) for cls in coloring.classes]
    _brute_cover(classes, g.n, "classes")
    for j, cls in enumerate(classes):
        if not cls:
            return False
        if any(adjacent(g, u, v) for u, v in combinations(cls, 2)):
            return False
        for v in cls:
            if not all(any(adjacent(g, u, v) for u in earlier) for earlier in classes[:j]):
                return False
    return True


def brute_homomorphism_ok(g, h, f):
    """A map of g's vertices onto h's that sends every edge to an edge."""
    m = f.mapping
    if len(m) != g.n or not all(0 <= x < h.n for x in m):
        return False
    if any(adjacent(g, u, v) and not adjacent(h, m[u], m[v])
           for u, v in combinations(range(g.n), 2)):
        return False
    return set(m) == set(range(h.n))


def outcome(fn, *args):
    """What fn(*args) returns, or the class of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def brute_width(p):
    """Largest antichain by subset scan; usable to n ~ 12."""
    best = 0
    for size in range(p.n, 0, -1):
        if size <= best:
            break
        for sub in combinations(range(p.n), size):
            if is_antichain_pairwise(p, sub):
                best = size
                break
    return best


def slide_order(p, seq):
    """The interval order q of the slide's block spans, which p extends."""
    return interval_order_from_intervals(spans_from_blocks(seq))


def slide_decomposition(seq):
    """The slide's bags, one per block, read off its spans."""
    return PathDecomposition(bags_by_definition(spans_from_blocks(seq), len(seq)))


def moves_of(seq):
    """The slide's moves as ``{removed, added, chain}`` dicts, the form the goldens write.

    Move t's chain drops the element at its segment start and admits the
    element just above its segment.
    """
    window = 2 * seq.k - 3
    lo = [0] * len(seq.partition)
    out = []
    for i in seq.moves:
        chain = seq.partition[i]
        out.append({"removed": chain[lo[i]], "added": chain[lo[i] + window], "chain": i})
        lo[i] += 1
    return out


def bags_by_definition(spans, count):
    """Bag t, for t = 1..count, holds in increasing order the ids whose span contains t."""
    return tuple(
        tuple(v for v, (a, b) in enumerate(spans) if a <= t <= b) for t in range(1, count + 1)
    )


def brute_interval_graph(spans):
    """Join every two closed integer spans that share an integer point."""
    points = [set(range(a, b + 1)) for a, b in spans]
    n = len(spans)
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if points[u] & points[v]])


def brute_interval_clique_number(spans):
    """Most closed integer spans through one integer point."""
    points = {t for a, b in spans for t in range(a, b + 1)}
    return max((sum(a <= t <= b for a, b in spans) for t in points), default=0)


def brute_components(g):
    """Vertex sets of g's connected components, each sorted, by least vertex."""
    seen = set()
    comps = []
    for root in range(g.n):
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            u = stack.pop()
            for v in range(g.n):
                if adjacent(g, u, v) and v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def minus_perfect_matching(a):
    """K_{a,a} with the i-(a+i) matching removed."""
    return Graph(2 * a, [(u, a + v) for u in range(a) for v in range(a) if u != v])


# -- the exact recursions with and without their lower-bound pruning -------------
# Unlike the oracles above the references share the library's recursions,
# less the skips: the pruned tables are checked against them key by key, and
# the witnesses they give against the library's.


def grundy_table(g):
    """The library's pruned Grundy table for g: (Gamma(G[S]), first class) per filled S."""
    nbr = [g.nbr_mask(v) for v in range(g.n)]
    closed = [m | 1 << v for v, m in enumerate(nbr)]
    s = (1 << g.n) - 1
    table = {0: (0, 0)}
    if s:
        _fill_grundy(nbr, closed, s, table, {s: _grundy_ceiling(nbr, s)})
    return table


def reference_grundy_table(g):
    """The first-class recursion stopped only at the Delta(G[S]) + 1 ceiling.

    Every state below the full set that the loop reaches is filled: no rest
    is skipped, however low its bound.
    """
    nbr = [g.nbr_mask(v) for v in range(g.n)]
    closed = [m | 1 << v for v, m in enumerate(nbr)]
    table = {0: (0, 0)}

    def fill(s):
        ceiling = 1 + max((nbr[v] & s).bit_count() for v in _iter_bits(s))
        best, first = 0, 0
        for i in _maximal_independent_sets(closed, s):
            rest = s & ~i
            if rest not in table:
                fill(rest)
            if table[rest][0] + 1 > best:
                best, first = table[rest][0] + 1, i
                if best == ceiling:
                    break
        table[s] = (best, first)

    if g.n:
        fill((1 << g.n) - 1)
    return table


def coloring_from_grundy_table(table, n):
    """The witness read off a Grundy table: from the full set down, each set's first class."""
    s = (1 << n) - 1
    classes = []
    while s:
        classes.append(frozenset(_iter_bits(table[s][1])))
        s &= ~table[s][1]
    return tuple(classes)


def reference_separation_table(g):
    """The vertex separation recursion with the min stopped only at the boundary.

    Every child tried is filled, whatever its own boundary; cost(S) is
    max(|dS|, min over v of cost(S - v)) with -1 for the empty set.
    """
    nbr = [g.nbr_mask(v) for v in range(g.n)]
    table = {0: -1}

    def fill(s, reach):
        boundary = (s & reach).bit_count()
        best = s.bit_length()
        for v in _iter_bits(s):
            child = s ^ (1 << v)
            if child not in table:
                fill(child, reach | nbr[v])
            if table[child] <= boundary:
                best = boundary
                break
            best = min(best, table[child])
        table[s] = best

    if g.n:
        fill((1 << g.n) - 1, 0)
    return table
