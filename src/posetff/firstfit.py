"""The online First-Fit engine, its validators, and the exact FF oracle.

First-Fit on a poset places each arriving element into the least-index
chain whose members are all comparable to it; on a graph it greedily
assigns the least color absent from the neighborhood.  Both views agree
through the incomparability graph, and ``grundy_number`` sweeps every
presentation order (with state pruning) to compute the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CoverageError, TooLarge
from .order import Chain, ChainPartition, Graph, Poset, iter_bits

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

GRUNDY_DEFAULT_LIMIT = 10


@dataclass(frozen=True)
class PresentationOrder:
    """A permutation of 0..n-1: the order elements are uncovered in."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError("presentation order must be a permutation of 0..n-1")

    @classmethod
    def identity(cls, n: int) -> "PresentationOrder":
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class FFChainResult:
    """Chains produced by an online run, with the 1-based assignment."""

    partition: ChainPartition
    assignment: tuple[int, ...]

    @property
    def chain_count(self) -> int:
        return len(self.partition.chains)


@dataclass(frozen=True)
class FFColoring:
    """Ordered color classes V_1..V_c of a greedy coloring."""

    classes: tuple[frozenset[int], ...]

    @property
    def color_count(self) -> int:
        return len(self.classes)


def first_fit_chains(p: Poset, order: PresentationOrder) -> FFChainResult:
    """Run First-Fit chain partitioning online in the given order."""
    if len(order) != p.n:
        raise ValueError(f"order covers {len(order)} elements, poset has {p.n}")
    members: list[list[int]] = []
    blocked: list[int] = []  # per chain: union of inc masks of its members
    assignment = [0] * p.n
    for v in order.order:
        chosen = -1
        for i, bm in enumerate(blocked):
            if not (bm >> v) & 1:
                chosen = i
                break
        if chosen == -1:
            members.append([v])
            blocked.append(p.inc_mask(v))
            chosen = len(members) - 1
        else:
            members[chosen].append(v)
            blocked[chosen] |= p.inc_mask(v)
        assignment[v] = chosen + 1
    partition = ChainPartition(tuple(Chain(p.sort_chain(c)) for c in members))
    return FFChainResult(partition, tuple(assignment))


def validate_ff_partition(p: Poset, cp: ChainPartition) -> bool:
    """Check the First-Fit chain partition law.

    Every part must be a chain, and every element of a later chain must
    have an incomparable witness in each earlier chain.  Raises
    CoverageError when the parts are not a partition of the elements.
    """
    seen: set[int] = set()
    for c in cp.chains:
        for e in c.elements:
            if not 0 <= e < p.n or e in seen:
                raise CoverageError(f"element {e} missing, duplicated, or out of range")
            seen.add(e)
    if len(seen) != p.n:
        raise CoverageError("partition does not cover all elements")
    for c in cp.chains:
        if not c.elements or not c.is_valid(p):
            return False
    inc_union = []
    for c in cp.chains:
        m = 0
        for e in c.elements:
            m |= p.inc_mask(e)
        inc_union.append(m)
    for j in range(1, len(cp.chains)):
        for v in cp.chains[j].elements:
            for i in range(j):
                if not (inc_union[i] >> v) & 1:
                    return False
    return True


def first_fit_color(g: Graph, order: PresentationOrder) -> FFColoring:
    """Greedy proper coloring in the given order; classes come out 1-based."""
    if len(order) != g.n:
        raise ValueError(f"order covers {len(order)} vertices, graph has {g.n}")
    class_masks: list[int] = []
    classes: list[set[int]] = []
    for v in order.order:
        for i, cm in enumerate(class_masks):
            if not (cm >> v) & 1:
                classes[i].add(v)
                class_masks[i] |= g.nbr_mask(v)
                break
        else:
            classes.append({v})
            class_masks.append(g.nbr_mask(v))
    return FFColoring(tuple(frozenset(c) for c in classes))


def validate_ff_coloring(g: Graph, coloring: FFColoring) -> bool:
    """Check properness and the lower-neighbor law of a greedy coloring."""
    seen: set[int] = set()
    for cls in coloring.classes:
        for v in cls:
            if not 0 <= v < g.n or v in seen:
                raise CoverageError(f"vertex {v} missing, duplicated, or out of range")
            seen.add(v)
    if len(seen) != g.n:
        raise CoverageError("coloring does not cover all vertices")
    masks = []
    for cls in coloring.classes:
        if not cls:
            return False
        m = 0
        for v in cls:
            m |= 1 << v
        masks.append(m)
    for i, cls in enumerate(coloring.classes):
        for v in cls:
            if g.nbr_mask(v) & masks[i]:
                return False  # not independent
            for j in range(i):
                if not g.nbr_mask(v) & masks[j]:
                    return False  # no neighbor in an earlier class
    return True


def grundy_coloring(g: Graph, limit: int = GRUNDY_DEFAULT_LIMIT) -> FFColoring:
    """A greedy coloring attaining the maximum color count over all orders.

    Depth-first sweep over presentation orders, collapsing orders that
    reach the same partial coloring; memoization makes the sweep exact
    without visiting all n! permutations.
    """
    n = g.n
    if n > limit:
        raise TooLarge(f"exact sweep limited to {limit} vertices, got {n}")
    if n == 0:
        return FFColoring(())
    nbr = [g.nbr_mask(v) for v in range(n)]
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def explore(colors: tuple[int, ...]) -> tuple[int, ...]:
        cached = memo.get(colors)
        if cached is not None:
            return cached
        best = None
        best_top = -1
        for v in range(n):
            if colors[v]:
                continue
            used = 0
            for u in iter_bits(nbr[v]):
                used |= 1 << colors[u]
            c = 1
            while (used >> c) & 1:
                c += 1
            final = explore(colors[:v] + (c,) + colors[v + 1 :])
            top = max(final)
            if top > best_top:
                best_top = top
                best = final
        if best is None:  # everything colored
            best = colors
        memo[colors] = best
        return best

    final = explore((0,) * n)
    top = max(final)
    classes = tuple(
        frozenset(v for v in range(n) if final[v] == c) for c in range(1, top + 1)
    )
    return FFColoring(classes)


def grundy_number(g: Graph, limit: int = GRUNDY_DEFAULT_LIMIT) -> int:
    """Exact worst-case First-Fit color count over all presentation orders."""
    return grundy_coloring(g, limit).color_count
