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
each chain's segment start, the up-set bitmask and the good chains.  A
chain's segment minimum is good exactly when the up-set lies above it.
The up-set only shrinks, and a chain's segment minimum changes only when
that chain moves, so one up-set element not above the minimum (its
blocker) keeps the chain from being good until that element is admitted.
Each live chain is therefore either good or listed under its blocker, and
a step re-tests only the chain it moved and the chains listed under the
element it admitted.  Only when no chain is good is each live chain's run
cut: its 2k-3 segment elements, then d, its next element.  The certifying
digraph (an arc from chain i to chain j when i's run start is not below
j's run end) then has no sink, and replaying the certification along its
least cycle, on slices of the runs, produces two disjoint incomparable
k-chains instead.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CoverageError, InternalError, MalformedInterval
from .order import Graph, KkWitness, Poset, _check_k, _spans_cover_edges, dilworth_partition

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
        found = next(((u, v) for u in left for v in right if p.less(u, v) or p.less(v, u)), None)
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


def _retest(
    p: Poset, chains: tuple[tuple[int, ...], ...], lo: list[int], ups: int, good: int,
    blocked: dict[int, list[int]], tested: list[int],
) -> int:
    """``good`` plus each tested chain whose segment minimum lies below the whole up-set.

    Chain i's segment starts at position ``lo[i]`` and ``ups`` masks the
    elements above the block.  A chain passes exactly when it is a sink of
    the certifying digraph: each chain's part of the up-set is a chain
    whose least element is d_j.  A tested chain that fails is listed in
    ``blocked`` under its blocker, the up-set element of highest id that is
    not above its segment minimum.  The up-set only shrinks and the minimum
    changes only when the chain moves, so the chain cannot pass before its
    blocker is admitted.  Any such element would do; the highest is the top
    bit, read without a scan.
    """
    succ_mask = p.succ_mask
    for i in tested:
        above = ups & succ_mask(chains[i][lo[i]])
        if above == ups:
            good |= 1 << i
        else:
            blocked.setdefault((ups ^ above).bit_length() - 1, []).append(i)
    return good


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

    def __post_init__(self) -> None:
        _check_k(self.k)

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
    never change.  The slide keeps each chain's segment start, the up-set
    mask and the certifying digraph's sinks: ``good`` masks the chains whose
    segment minimum lies below the whole up-set, and every other live chain
    is listed under its blocker.  A step moves the least good chain, then
    ``_retest`` tests only that chain and those listed under the element it
    admitted.  When no chain is good, the live chains' runs (segment, then
    d) are cut and the witness of their least cycle is returned.
    """
    _check_k(k)
    chains = dilworth_partition(p)
    window = 2 * k - 3
    lo = [0] * len(chains)
    tested = [i for i, chain in enumerate(chains) if len(chain) > window]
    ups = sum(1 << e for i in tested for e in chains[i][window:])
    good = 0
    blocked: dict[int, list[int]] = {}
    moves: list[int] = []
    while ups:
        good = _retest(p, chains, lo, ups, good, blocked, tested)
        if not good:
            runs = {
                i: chain[lo[i] : lo[i] + window + 1]
                for i, chain in enumerate(chains) if lo[i] + window < len(chain)
            }
            return _witness_from_cycle(p, runs, k, _least_cycle(p, runs))
        i = (good & -good).bit_length() - 1
        moves.append(i)
        good ^= 1 << i
        start = lo[i]
        admitted = chains[i][start + window]
        ups ^= 1 << admitted
        lo[i] = start + 1
        tested = blocked.pop(admitted, [])
        if start + 1 + window < len(chains[i]):
            tested.append(i)
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
