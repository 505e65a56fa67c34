"""Extension of a poset without two long incomparable chains, built from sliding blocks.

Starting from a Dilworth chain partition, a window of 2k-3 consecutive
elements slides up each chain.  At every step one chain owns a "good"
element (below everything still above the windows); removing it and
admitting the next element of that chain keeps the window family a valid
block, so a move is recorded as that chain's index alone.  The membership
spans of the elements across the block sequence, replayed from the moves
on the partition, form closed integer intervals whose interval order the
input extends, and they are a path decomposition of the incomparability
graph: bag t holds the elements whose span contains t.  The slide keeps
only each chain's segment start, the live chains (those reaching past
their segments) and the up-set bitmask.  A chain's segment minimum is good
exactly when the up-set lies above it, so the per-step certificate is one
mask test per live chain.  Only when no chain passes is each live chain's
run cut: its 2k-3 segment elements, then d, its next element.  The
certifying digraph (an arc from chain i to chain j when i's run start is
not below j's run end) then has no sink, and replaying the certification
along its least cycle, on slices of the runs, produces two disjoint
incomparable k-chains instead.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CoverageError, InternalError, MalformedInterval, ParamError
from .order import Graph, KkWitness, Poset, _spans_cover_edges, dilworth_partition

__all__ = [
    "BlockSequence",
    "PathDecomposition",
    "block_sequence",
    "spans_from_blocks",
    "validate_path_decomposition",
]


def _witness_from_cycle(
    p: Poset, runs: dict[int, tuple[int, ...]], k: int, cycle: list[int]
) -> KkWitness:
    """Replay the acyclicity argument along a cycle until it snaps.

    Walking the cycle maintains a k-chain tied to the first vertex; at
    each hop it must meet a comparable element of the next vertex's upper
    chain (the last k elements of its run), and the arc directions force
    that comparability downward.  On an input that genuinely contains two
    incomparable k-chains some hop finds no comparable pair, and that pair
    of chains is the witness.  On a valid k+k-free run every hop succeeds,
    which contradicts the closing arc; reaching the end therefore signals
    a bug.
    """
    first = runs[cycle[0]]
    left = first[:k]
    for i in cycle[1:]:
        right = runs[i][-k:]
        found = next(((u, v) for u in left for v in right if p.comparable(u, v)), None)
        if found is None:
            witness = KkWitness(left, right)
            if not witness.is_valid(p):
                raise InternalError("replay produced an invalid witness")
            return witness
        u, v = found
        if p.less(u, v):
            raise InternalError("comparable pair points upward across an arc")
        # u > v pins the first run's c above this run's b; swap it into the chain
        left = runs[i][: k - 1] + (first[k - 1],)
    raise InternalError("cycle replay exhausted without contradiction or witness")


def _pick(
    p: Poset, chains: tuple[tuple[int, ...], ...], lo: list[int], live: list[int], ups: int,
    k: int,
) -> int | KkWitness:
    """The least live chain whose segment minimum lies below the whole up-set, or a witness.

    Chain i's segment is the 2k-3 elements from position ``lo[i]``; ``live``
    lists, in increasing order, the chains reaching past their segments, and
    ``ups`` masks the elements above the block.  The certifying digraph has
    an arc i -> j when a_i, chain i's segment minimum, is not below d_j,
    chain j's least element above its segment; a_i is below d_i, so chain i
    is a sink exactly when a_i lies below the whole up-set.  Only when no
    chain passes that test are the live chains' runs (segment, then d) cut,
    to find the witness's cycle.
    """
    succ_mask = p.succ_mask
    for i in live:
        if not ups & ~succ_mask(chains[i][lo[i]]):
            return i
    runs = {i: chains[i][lo[i] : lo[i] + 2 * k - 2] for i in live}
    return _witness_from_cycle(p, runs, k, _least_cycle(p, runs))


def _least_cycle(p: Poset, runs: dict[int, tuple[int, ...]]) -> list[int]:
    """Deterministic cycle in a sinkless digraph: walk min out-neighbors from the first vertex.

    Chain i's out-neighbors are the chains j != i whose run's last element
    d_j is not above i's first element a_i; ``runs`` is keyed in increasing
    order, so the first one found is the least.  A sink here is a chain that
    failed the up-set test yet has no out-arc, so the two characterisations
    of a good element disagree.
    """
    less = p.less
    path: list[int] = []
    cur = next(iter(runs))
    while cur not in path:
        path.append(cur)
        a = runs[cur][0]
        cur = next((j for j in runs if j != cur and not less(a, runs[j][-1])), None)
        if cur is None:
            raise InternalError(f"chain {path[-1]} fails the up-set test but has no out-arc")
    cycle = path[path.index(cur) :]
    m = cycle.index(min(cycle))
    return cycle[m:] + cycle[:m]


@dataclass(frozen=True)
class BlockSequence:
    """The full slide over one chain partition: the first block, then one move per step.

    ``partition`` holds the Dilworth chains, each a tuple in increasing order.
    The first block is every chain's ``2k-3`` least elements (all of a
    shorter chain).  Each next block shifts chain ``moves[t]``'s segment up
    one position, dropping its minimum and admitting the element just above,
    so the first block and the moves determine every block.
    """

    partition: tuple[tuple[int, ...], ...]
    k: int
    moves: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.moves) + 1

    @property
    def width(self) -> int:
        """Every bag's size minus one: each move swaps one element out and one in."""
        return sum(min(len(chain), 2 * self.k - 3) for chain in self.partition) - 1


@dataclass(frozen=True)
class PathDecomposition:
    """An ordered bag sequence; width is max bag size minus one."""

    bags: tuple[tuple[int, ...], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    @classmethod
    def from_spans(cls, spans: Sequence[tuple[int, int]], count: int) -> PathDecomposition:
        """Bags 1..count, bag t listing in increasing order the ids whose span contains t."""
        return cls(tuple(map(tuple, _bag_rows(spans, count))))


def _bag_rows(spans: Sequence[tuple[int, int]], count: int) -> Iterator[list[int]]:
    """Bag t for t = 1..count in turn: the ids whose span contains t, in increasing order.

    One sweep over the block indices: an id joins the bag at its span's left
    end and leaves it after its right end.  Each yield is the same list,
    updated in place, so a caller copies or uses it before taking the next.
    """
    enter: list[list[int]] = [[] for _ in range(count + 2)]
    leave: list[list[int]] = [[] for _ in range(count + 2)]
    for v, (a, b) in enumerate(spans):
        if not 1 <= a <= b <= count:
            raise MalformedInterval(f"span {(a, b)!r} of {v} lies outside 1..{count}")
        enter[a].append(v)
        leave[b + 1].append(v)
    bag: list[int] = []
    for t in range(1, count + 1):
        for v in leave[t]:
            del bag[bisect_left(bag, v)]
        for v in enter[t]:
            insort(bag, v)
        yield bag


def block_sequence(p: Poset, k: int) -> BlockSequence | KkWitness:
    """Slide windows up the Dilworth chains until nothing remains above them.

    Each step removes the certified good element and admits the smallest
    element above the same chain's segment, so per-chain segment sizes
    never change.  The slide keeps each chain's segment start, the live
    chains (those reaching past their segments) and the up-set mask; each
    step is one ``_pick``, whose witness, when no chain is good, is returned.
    """
    if k < 2:
        raise ParamError("k must be at least 2")
    chains = dilworth_partition(p)
    window = 2 * k - 3
    lo = [0] * len(chains)
    live = [i for i, chain in enumerate(chains) if len(chain) > window]
    ups = sum(1 << e for i in live for e in chains[i][window:])
    moves: list[int] = []
    while live:
        got = _pick(p, chains, lo, live, ups, k)
        if isinstance(got, KkWitness):
            return got
        moves.append(got)
        start = lo[got]
        ups &= ~(1 << chains[got][start + window])
        lo[got] = start + 1
        if start + 1 + window == len(chains[got]):
            live.remove(got)
    return BlockSequence(partition=chains, k=k, moves=tuple(moves))


def spans_from_blocks(seq: BlockSequence) -> tuple[tuple[int, int], ...]:
    """Per element, the closed 1-based range of blocks containing it.

    The interval order of these spans is the extension of the input.  An
    element enters in block 1 or when admitted, and leaves when removed or
    after the last block.  Move t removes its chain's element at the
    replayed segment start and admits the one just above the segment.
    Raises CoverageError unless the chains cover 0..n-1 exactly once.
    """
    window = 2 * seq.k - 3
    n = sum(map(len, seq.partition))
    if sorted(e for chain in seq.partition for e in chain) != list(range(n)):
        raise CoverageError(f"the chains do not cover 0..{n - 1} exactly once")
    first = [0] * n
    last = [len(seq)] * n
    lo = [0] * len(seq.partition)
    for chain in seq.partition:
        for e in chain[:window]:
            first[e] = 1
    for t, i in enumerate(seq.moves, start=1):
        if not (0 <= i < len(lo) and lo[i] + window < len(seq.partition[i])):
            raise InternalError(f"move {t} slides chain {i} past its end")
        chain, start = seq.partition[i], lo[i]
        last[chain[start]] = t
        first[chain[start + window]] = t + 1
        lo[i] = start + 1
    if 0 in first:
        raise InternalError(f"element {first.index(0)} never entered any block")
    return tuple(zip(first, last))


def _valid_spans(g: Graph, pd: PathDecomposition) -> tuple[tuple[int, int], ...] | None:
    """Each vertex's closed 1-based span of bags, or None when pd does not decompose g.

    Once every vertex's bags are known to be consecutive, an edge is covered
    exactly when the spans of its two ends meet.
    """
    first = [0] * g.n
    last = [0] * g.n
    for t, bag in enumerate(pd.bags, start=1):
        for v in bag:
            if not 0 <= v < g.n:
                return None
            if last[v] == t:
                continue  # repeated within this bag
            if not first[v]:
                first[v] = t
            elif last[v] != t - 1:
                return None
            last[v] = t
    if 0 in first:
        return None
    spans = tuple(zip(first, last))
    return spans if _spans_cover_edges(g, spans) else None


def validate_path_decomposition(g: Graph, pd: PathDecomposition) -> bool:
    """Consecutive occurrence of every vertex and coverage of every edge."""
    return _valid_spans(g, pd) is not None
