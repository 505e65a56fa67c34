"""The online First-Fit engine, its validators, and the exact FF oracle.

First-Fit on a graph greedily assigns each arriving vertex the least color
absent from its neighborhood.  First-Fit on a poset places each arriving
element into the least-index chain whose members are all comparable to it;
a chain is an independent set of the incomparability graph, so the poset
run is the graph run on that graph, each class then listed in increasing
order.  The run finds each vertex's class in an implicit binary tree over
class slots, whose leaves hold the classes' neighbour unions and whose
inner nodes hold ANDs: one descent and one ascent, O(log c) big-int
operations per vertex for c classes.  On ``stacked(30, 10)`` (n = 3915,
261 classes) and on ``gen_interval_order(1, 2000)`` (1038 classes) a run
takes about 0.005-0.008 s (CPython 3.11, shared 2-vCPU x86-64 host).

``grundy_number`` computes the worst case over all presentation orders
exactly, by the first-class recursion: the first class of any greedy
coloring is a maximal independent set, so
Gamma(G[S]) = max over maximal independent I in S of 1 + Gamma(G[S - I]).
It is memoised on the bitmask S and enumerates I by Bron-Kerbosch on the
complement.  A state stops at its ceiling, 1 plus the largest d such that
the vertices of degree >= d in G[S] span an edge (at most Delta(G[S]) + 1),
and skips a rest whose ceiling is below the best so far, since it could at
most tie; it takes graphs of up to 16 vertices.

Both validators apply one greedy law, the chain partition's on the
incomparability graph, plus the check that each chain is listed in
increasing order.  The law walks the classes from last to first and tests
each class's masks once against the union of the later classes, so it costs
O(n + c) big-int operations for n elements and c classes.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass

from .errors import CoverageError, SizeMismatch, TooLarge
from .order import Graph, Poset, incomparability_graph, iter_bits

__all__ = [
    "PresentationOrder",
    "FFChainResult",
    "FFColoring",
    "first_fit_chains",
    "validate_ff_partition",
    "first_fit_color",
    "validate_ff_coloring",
    "grundy_number",
    "grundy_coloring",
]

GRUNDY_LIMIT = 16


@dataclass(frozen=True)
class PresentationOrder:
    """A permutation of 0..n-1: the order elements are uncovered in."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        # a bool or a float equal to an id sorts as that id, so the types are tested first
        if set(map(type, self.order)) - {int} or sorted(self.order) != list(range(n)):
            raise CoverageError("presentation order must be a permutation of 0..n-1")

    @classmethod
    def identity(cls, n: int) -> "PresentationOrder":
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class FFChainResult:
    """Chains produced by an online run, each in increasing order, with the 1-based assignment."""

    partition: tuple[tuple[int, ...], ...]
    assignment: tuple[int, ...]

    @property
    def chain_count(self) -> int:
        return len(self.partition)


@dataclass(frozen=True)
class FFColoring:
    """Ordered color classes V_1..V_c of a greedy coloring."""

    classes: tuple[frozenset[int], ...]

    @property
    def color_count(self) -> int:
        return len(self.classes)


def first_fit_chains(p: Poset, order: PresentationOrder) -> FFChainResult:
    """Run First-Fit chain partitioning online in the given order.

    A chain is an independent set of the incomparability graph, so this is
    ``first_fit_color`` on that graph, with each class listed as a chain.
    """
    if len(order) != p.n:
        raise SizeMismatch(f"order covers {len(order)} elements, poset has {p.n}")
    classes = first_fit_color(incomparability_graph(p), order).classes
    assignment = [0] * p.n
    for i, cls in enumerate(classes, start=1):
        for v in cls:
            assignment[v] = i
    # u < v puts u and all of u's predecessors below v: a strict superset, so a larger int
    return FFChainResult(tuple(tuple(sorted(cls, key=p.pred_mask)) for cls in classes),
                         tuple(assignment))


def validate_ff_partition(p: Poset, chains: Sequence[Sequence[int]]) -> bool:
    """Check the First-Fit chain partition law.

    The greedy law on the incomparability graph, and every part a chain
    listed in increasing order.  Raises CoverageError when the parts are not
    a partition of the elements.
    """
    return _greedy_law(incomparability_graph(p), chains) and all(map(p.is_chain, chains))


def first_fit_color(g: Graph, order: PresentationOrder) -> FFColoring:
    """Greedy proper coloring in the given order; classes come out 1-based.

    ``tree`` is an implicit binary tree over class slots: node 1 is the
    root, node i has children 2i and 2i + 1, and leaf j is node
    ``leaves + j``.  Leaf j holds the union of class j's neighbour masks,
    0 while class j is unused; an inner node holds the AND of its
    children, so a node lacks bit v iff some class below it has no
    neighbour of v.  At least one slot stays unused, so the root is 0 and
    one descent, going left whenever the left child lacks bit v, ends at
    the least class v may join.  Masks only grow, so the ascent stops at
    the first ancestor that keeps its value.
    """
    if len(order) != g.n:
        raise SizeMismatch(f"order covers {len(order)} vertices, graph has {g.n}")
    leaves = 1
    tree = [0, 0]
    classes: list[list[int]] = []
    for v in order.order:
        i = 1
        while i < leaves:
            i += i
            if (tree[i] >> v) & 1:
                i += 1
        tree[i] |= g.nbr_mask(v)
        j = i - leaves
        if j < len(classes):
            classes[j].append(v)
        else:
            classes.append([v])
            if j + 1 == leaves:
                # the last free slot is taken: double the leaves, rebuild the inner nodes
                tree = [0] * (2 * leaves) + tree[leaves:] + [0] * leaves
                leaves *= 2
                for i in range(leaves - 1, 0, -1):
                    tree[i] = tree[2 * i] & tree[2 * i + 1]
                continue
        while i > 1:
            value = tree[i] & tree[i ^ 1]
            i >>= 1
            if tree[i] == value:
                break
            tree[i] = value
    return FFColoring(tuple(map(frozenset, classes)))


def validate_ff_coloring(g: Graph, coloring: FFColoring) -> bool:
    """Check properness and the lower-neighbor law of a greedy coloring."""
    return _greedy_law(g, coloring.classes)


def _greedy_law(g: Graph, classes: Sequence[Collection[int]]) -> bool:
    """The greedy coloring law on classes given as collections of vertices.

    Raises CoverageError unless the classes list each vertex exactly once; a
    vertex listed twice in one class counts as a duplicate, and an id that is
    not an int is refused.  Then, from the last class back, class j passes
    when it is non-empty, its vertices touch no neighbour among themselves,
    and it neighbours every vertex of a later class.
    """
    seen: set[int] = set()
    try:
        for cls in classes:
            for v in cls:
                if not 0 <= v < g.n or v in seen:
                    raise CoverageError(f"vertex {v} missing, duplicated, or out of range")
                seen.add(v)
        if len(seen) != g.n:
            raise CoverageError("classes do not cover all vertices")
        later = 0
        for cls in reversed(classes):
            if not cls:
                return False
            mask = touched = 0
            for v in cls:
                mask |= 1 << v
                touched |= g.nbr_mask(v)
            if mask & touched:
                return False  # not independent
            if later & ~touched:
                return False  # a later vertex has no neighbour in this class
            later |= mask
    except TypeError:  # a float equal to an id passes the range test, then fails the shift
        raise CoverageError("a class lists a vertex id that is not an int") from None
    return True


def _maximal_independent_sets(closed: list[int], p: int, x: int = 0, r: int = 0):
    """Yield each maximal independent set of G[p], as a bitmask.

    Bron-Kerbosch with a pivot, run on the complement graph, whose cliques
    are the independent sets here.  In the recursion r is the set built so
    far, p the vertices that may still join it and x those already tried;
    ``closed[v]`` is v's closed neighbourhood.
    """
    if not p:
        if not x:
            yield r
        return
    # pivot: the vertex of p | x whose closed neighbourhood leaves fewest branches;
    # bits are peeled inline, since this is the oracle's innermost loop
    branch, size = p, p.bit_count()
    m = p | x
    while m:
        low = m & -m
        m ^= low
        meet = p & closed[low.bit_length() - 1]
        if meet.bit_count() < size:
            branch, size = meet, meet.bit_count()
    while branch:
        low = branch & -branch
        branch ^= low
        cv = closed[low.bit_length() - 1]
        yield from _maximal_independent_sets(closed, p & ~cv, x & ~cv, r | low)
        p ^= low
        x |= low


def _grundy_ceiling(nbr: list[int], s: int) -> int:
    """1 + the largest d such that the vertices of degree >= d in G[s] span an edge; 1 if none.

    A bound on Gamma(G[s]): in a greedy coloring with k >= 2 colors, a vertex
    x of color k and its neighbour y of color k - 1 both have degree at least
    k - 1, since y meets colors 1..k-2 and x.  Taken in decreasing degree,
    the first vertex with a neighbour already taken closes the first edge.
    """
    pairs = []
    m = s
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        pairs.append(((nbr[v] & s).bit_count(), v))
    pairs.sort(reverse=True)
    taken = 0
    for d, v in pairs:
        if nbr[v] & taken:
            return d + 1
        taken |= 1 << v
    return 1


def _fill_grundy(nbr: list[int], closed: list[int], s: int,
                 table: dict[int, tuple[int, int]], ceilings: dict[int, int]) -> None:
    """Set table[s] = (Gamma(G[s]), first class of a witness), and so below s.

    The first class of a greedy coloring is a maximal independent set I, and
    the rest is a greedy coloring of G[s - I]; the loop stops once it reaches
    s's ``_grundy_ceiling``.  A rest not yet in the table is skipped when its
    own ceiling is below the best so far: 1 + Gamma of it could at most tie,
    and only a larger value replaces the witness, so every entry filled holds
    what the unpruned recursion puts there.  ``ceilings`` keeps each ceiling
    computed, s's among them, since a skipped rest may be met again.  A
    module-level function rather than a closure, so the tables are freed as
    soon as the caller drops them.
    """
    ceiling = ceilings[s]
    best, first = 0, 0
    for i in _maximal_independent_sets(closed, s):
        rest = s & ~i
        entry = table.get(rest)
        if entry is None:
            below = ceilings.get(rest)
            if below is None:
                below = ceilings[rest] = _grundy_ceiling(nbr, rest)
            if below < best:
                continue
            _fill_grundy(nbr, closed, rest, table, ceilings)
            entry = table[rest]
        value = entry[0] + 1
        if value > best:
            best, first = value, i
            if best == ceiling:
                break
    table[s] = (best, first)


def grundy_coloring(g: Graph) -> FFColoring:
    """A greedy coloring attaining the maximum color count over all orders.

    Gamma(G[S]) = max over maximal independent I in S of 1 + Gamma(G[S - I]),
    memoised on the bitmask S; the witness takes, from the full set down,
    the first I that attains each maximum.
    """
    n = g.n
    if n > GRUNDY_LIMIT:
        raise TooLarge(f"exact Grundy recursion limited to {GRUNDY_LIMIT} vertices, got {n}")
    nbr = [g.nbr_mask(v) for v in range(n)]
    closed = [m | 1 << v for v, m in enumerate(nbr)]
    s = (1 << n) - 1
    table = {0: (0, 0)}
    if s:
        _fill_grundy(nbr, closed, s, table, {s: _grundy_ceiling(nbr, s)})
    classes = []
    while s:
        i = table[s][1]
        classes.append(frozenset(iter_bits(i)))
        s &= ~i
    return FFColoring(tuple(classes))


def grundy_number(g: Graph) -> int:
    """Exact worst-case First-Fit color count over all presentation orders."""
    return grundy_coloring(g).color_count
