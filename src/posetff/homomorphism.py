"""Collapsing greedy color classes inside an interval completion.

A path decomposition turns a graph into a spanning subgraph of an
interval graph, and the quotient reads only each vertex's closed span of
bags: ``spans_from_blocks`` gives the slide's, and ``interval_completion``
reads them off a file's bags.  Within each greedy color class, the
components of the completed graph merge into single interval vertices; the
quotient is an interval graph with no larger clique than the completion,
the quotient map preserves edges, and the transported classes are again a
valid greedy coloring.  The module also carries the exact oracles used to
certify all of this: interval clique number by an endpoint sweep and
pathwidth as the vertex separation number, by a memoised top-down recursion
over vertex subsets whose drops give the spans of an optimal decomposition.

Costs, for n vertices: a class's components come from one sort of its
spans by left end and a merge on the running right end, O(n log n) in all;
the image H is built from suffix masks by ``interval_order_from_intervals``;
``interval_clique_number`` bisects sorted endpoints, O(n log n).  The
entry check that every edge joins meeting spans is one sort and n mask
tests.  Of the post-checks, the map's certificate is one pass over the
vertices with two n-bit mask operations each (the whole quotient of the
slide of ``gen_interval_order(1, n)`` at k = 2 takes 0.008 s at n = 2000
and 0.04 s at n = 8000), and ``_greedy_law`` is one mask test per class.
The pathwidth recursion, limited to 16 vertices, costs
O(2^n * n) at worst, but it fills a subset only when a parent needs it,
stops a subset's min at the first child that costs no more than the
subset's boundary, and skips a child whose own boundary is at least the
best so far.  On the oracle graphs at n = 14 it fills 220-610 of the 16384
subsets, 0.1-0.3 ms a call; C14, the 2 x 7 grid and K7,7 fill 15 each,
under 0.01 ms.  At n = 16, 300 random graphs fill at most 16928 of the
65536 (23 ms), but one edge among 14 isolated vertices fills 49152 (59 ms)
(CPython 3.11, shared 2-vCPU x86-64 host).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import InternalError, InvalidColoring, InvalidDecomposition, TooLarge
from .extension import PathDecomposition, _bag_rows, _valid_spans
from .firstfit import FFColoring, _greedy_law
from .order import (
    Graph, _spans_cover_edges, incomparability_graph, interval_order_from_intervals, iter_bits
)

__all__ = [
    "Homomorphism",
    "FFImage",
    "interval_completion",
    "build_ff_image",
    "interval_clique_number",
    "pathwidth_exact",
    "path_decomposition_exact",
    "validate_homomorphism",
]

PATHWIDTH_LIMIT = 16


@dataclass(frozen=True)
class Homomorphism:
    """A vertex map; validity (edge preservation, surjectivity) checked separately."""

    mapping: tuple[int, ...]


@dataclass(frozen=True)
class FFImage:
    """The quotient interval graph with its intervals and transported classes."""

    h: Graph
    intervals: tuple[tuple[int, int], ...]
    classes: tuple[tuple[int, ...], ...]  # per input class: the quotient vertices


def interval_completion(g: Graph, pd: PathDecomposition) -> tuple[tuple[int, int], ...]:
    """Read off each vertex's first and last bag as its interval."""
    spans = _valid_spans(g, pd)
    if spans is None:
        raise InvalidDecomposition("path decomposition invalid for this graph")
    return spans


def interval_clique_number(intervals: Sequence[tuple[int, int]]) -> int:
    """Maximum point load of closed intervals, by an endpoint sweep.

    The load peaks at some left end x, where it is the number of spans that
    begin at or before x less the number that end before x.
    """
    lefts = sorted(a for a, _ in intervals)
    rights = sorted(b for _, b in intervals)
    return max((bisect_right(lefts, x) - bisect_left(rights, x) for x in lefts), default=0)


def build_ff_image(
    g: Graph, spans: Sequence[tuple[int, int]], coloring: FFColoring
) -> tuple[FFImage, Homomorphism]:
    """Merge completion components of every color class into interval vertices.

    Every edge of g must join two meeting ``spans``.  The resulting
    map is a surjective homomorphism, the image's clique number is at most
    the completion's, and the transported classes form a valid greedy
    coloring of the image with the same class count; all three facts are
    checked before returning.
    """
    if len(spans) != g.n:
        raise InvalidDecomposition("completion and graph sizes differ")
    if not _spans_cover_edges(g, spans):
        raise InvalidDecomposition("an edge of the graph joins two disjoint spans")
    if not _greedy_law(g, coloring.classes):
        raise InvalidColoring("input classes are not a First-Fit coloring")
    mapping = [-1] * g.n
    h_intervals: list[tuple[int, int]] = []
    classes: list[tuple[int, ...]] = []
    for cls in coloring.classes:
        # by left end, a span meets the component so far exactly when it
        # begins no later than the component's reach
        comps: list[list] = []  # [left, reach, members]
        for v in sorted(cls, key=spans.__getitem__):
            a, b = spans[v]
            if comps and a <= comps[-1][1]:
                comps[-1][1] = max(comps[-1][1], b)
                comps[-1][2].append(v)
            else:
                comps.append([a, b, [v]])
        ids = []
        for lo, hi, members in sorted(comps, key=lambda c: min(c[2])):
            hid = len(h_intervals)
            h_intervals.append((lo, hi))
            for v in members:
                mapping[v] = hid
            ids.append(hid)
        classes.append(tuple(ids))
    # Every edge uv of g joins meeting spans, as checked on entry.  If u and v
    # have different images and each span lies inside its image's interval,
    # those intervals meet, so f(u)f(v) is an edge of H: with every image
    # vertex hit, these three checks make f a surjective homomorphism.
    pre = [0] * len(h_intervals)
    for v, x in enumerate(mapping):
        if not 0 <= x < len(pre):
            raise InternalError(f"vertex {v} has image {x}, outside 0..{len(pre) - 1}")
        lo, hi = h_intervals[x]
        if spans[v][0] < lo or hi < spans[v][1]:
            raise InternalError(f"vertex {v}'s span {spans[v]} leaves its image's interval")
        if pre[x] & g.nbr_mask(v):
            raise InternalError(f"vertex {v} shares its image {x} with a neighbour")
        pre[x] |= 1 << v
    if not all(pre):
        raise InternalError(f"image vertex {pre.index(0)} is not hit")
    # closed spans meet exactly when neither ends before the other begins
    h = incomparability_graph(interval_order_from_intervals(h_intervals))
    image = FFImage(h=h, intervals=tuple(h_intervals), classes=tuple(classes))
    hom = Homomorphism(tuple(mapping))
    if interval_clique_number(image.intervals) > interval_clique_number(spans):
        raise InternalError("quotient clique number exceeds the completion's")
    if not _greedy_law(h, image.classes):
        raise InternalError("transported classes are not a First-Fit coloring")
    if len(image.classes) != len(coloring.classes):
        raise InternalError("quotient lost color classes")
    return image, hom


def validate_homomorphism(g: Graph, h: Graph, f: Homomorphism) -> bool:
    """Edge preservation plus surjectivity onto the image's vertices.

    With pre[x] the vertices sent to x, an edge of g leaves x's preimage
    only for the preimage of a neighbour of x in h, so the union of the
    preimage's neighbourhoods must lie inside the union of those preimages:
    O(n + |E(h)|) ORs of n-bit masks.
    """
    m = f.mapping
    if len(m) != g.n or any(not 0 <= x < h.n for x in m):
        return False
    pre = [0] * h.n
    touched = [0] * h.n
    for u, x in enumerate(m):
        pre[x] |= 1 << u
        touched[x] |= g.nbr_mask(u)
    if not all(pre):
        return False  # not surjective
    for x, reach in enumerate(touched):
        allowed = 0
        for y in iter_bits(h.nbr_mask(x)):
            allowed |= pre[y]
        if reach & ~allowed:
            return False
    return True


def _fill_separation(nbr: list[int], s: int, reach: int, table: dict[int, int]) -> int:
    """Set and return table[s] = cost(S), filling what it needs below S.

    cost(S) = max(|dS|, min over v in S of cost(S - v)): the least, over
    orderings of S, of the largest boundary of a prefix.  The boundary dS is
    S ANDed with ``reach``, the union of the neighbour masks outside S,
    which each child extends by the neighbours of the vertex it drops.  No
    child brings the cost below |dS|, so the min stops, lowest v first, at
    the first child that costs no more.  A child not yet in the table whose
    own boundary is at least the best so far is skipped.  It costs at least
    that boundary, so it cannot lower the min.  Nor is it the lowest child
    that keeps S's cost: S costs at most the best so far, which is above
    |dS| until the min stops, and the lower child that set that best costs
    exactly it.  So every entry still filled keeps the value that filling
    every child would give it.  A module-level function rather than a
    closure, so the table is freed as soon as the caller drops it.
    """
    boundary = (s & reach).bit_count()
    best = s.bit_length()  # above every child's cost, at most |S| - 1
    m = s
    while m:
        low = m & -m
        m ^= low
        child = s ^ low
        cost = table.get(child)
        if cost is None:
            below = reach | nbr[low.bit_length() - 1]
            if (child & below).bit_count() >= best:
                continue
            cost = _fill_separation(nbr, child, below, table)
        if cost <= boundary:
            best = boundary
            break
        if cost < best:
            best = cost
    table[s] = best
    return best


def _separation_costs(g: Graph) -> tuple[list[int], dict[int, int]]:
    """The neighbour masks and a cost table filled top-down from the full set."""
    n = g.n
    if n > PATHWIDTH_LIMIT:
        raise TooLarge(f"subset DP limited to {PATHWIDTH_LIMIT} vertices, got {n}")
    nbr = [g.nbr_mask(v) for v in range(n)]
    table = {0: -1}  # no bags; any other set's boundary is >= 0, so no other cost moves
    if n:
        _fill_separation(nbr, (1 << n) - 1, 0, table)
    return nbr, table


def pathwidth_exact(g: Graph) -> int:
    """Exact pathwidth as the vertex separation number.

    The memoised recursion runs top-down from the full set, cuts each
    subset's min at its boundary and skips a child whose boundary is at
    least the best so far: O(2^n * n) at worst, but 220-610 of the 16384
    subsets on the oracle graphs at n = 14, and 15 on C14.
    """
    _, cost = _separation_costs(g)
    return cost[(1 << g.n) - 1]


def path_decomposition_exact(g: Graph) -> PathDecomposition:
    """An optimal path decomposition recovered from the separation costs.

    From the full set down, each step drops the lowest v whose child
    costs no more than S, which keeps the cost.  The recursion tried S's
    children lowest first and stopped only at such a v.  A child missing
    from the table is read as costing n, above any cost.  The children it
    skipped on the way are such, and none of them is the lowest v: each
    costs at least the best so far, set by a lower child that costs exactly
    that, so it keeps S's cost only if that lower child does too.  The
    vertex dropped from a set of m vertices takes place m, and its span
    runs from there to its last neighbour's place.
    """
    nbr, cost = _separation_costs(g)
    n = g.n
    place = [0] * n
    last = [0] * n
    mask = (1 << n) - 1
    while mask:
        target = cost[mask]
        for v in iter_bits(mask):
            if cost.get(mask ^ (1 << v), n) <= target:
                break
        place[v] = mask.bit_count()
        mask ^= 1 << v
        # drops run down the places: u's first neighbour to drop ends u's span
        for u in iter_bits(nbr[v] & mask):
            last[u] = last[u] or place[v]
    spans = tuple(zip(place, map(max, place, last)))
    if not _spans_cover_edges(g, spans):
        raise InternalError("recovered layout is not a path decomposition")
    pd = PathDecomposition(tuple(map(tuple, _bag_rows(spans, n))))
    if pd.width != cost[(1 << n) - 1]:
        raise InternalError(f"recovered width {pd.width} misses the optimum {cost[(1 << n) - 1]}")
    return pd
