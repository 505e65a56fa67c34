"""Extension of a poset without two long incomparable chains, built from sliding blocks.

Starting from a Dilworth chain partition, a window of 2k-3 consecutive
elements slides up each chain.  At every step one chain owns a "good"
element (below everything still above the windows); removing it and
admitting the next element of that chain keeps the window family a valid
block.  The membership spans of the elements across the block sequence
form closed integer intervals whose interval order the input extends,
and the blocks double as a path decomposition of the incomparability
graph.  A chain's segment minimum is good exactly when the up-set bitmask
lies above it, so finding the good element is one mask test per chain.
When no chain passes, the certifying digraph (an arc from chain i to chain
j when i's segment minimum is not below j's next element) is built once:
it has no sink, and replaying the certification along its least cycle
produces two disjoint incomparable k-chains instead.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from .errors import InternalError, ParamError
from .order import (
    Chain,
    ChainPartition,
    Graph,
    KkWitness,
    Poset,
    _after,
    dilworth_partition,
)

__all__ = [
    "BlockMove",
    "BlockSequence",
    "PathDecomposition",
    "block_sequence",
    "spans_from_blocks",
    "decomposition_from_blocks",
    "validate_path_decomposition",
]


@dataclass(frozen=True)
class CertEntry:
    """Per-chain data certifying the good-element argument.

    ``lower`` is the k smallest elements of segment + {d} (so a <= b < c <= d,
    with a == b and c == d exactly when k == 2), ``upper`` the k-element
    chain used for the cross-chain comparability probes.
    """

    a: int
    b: int
    c: int
    d: int
    lower: tuple[int, ...]
    upper: tuple[int, ...]


def _witness_from_cycle(
    p: Poset, entries: dict[int, CertEntry], cycle: list[int]
) -> KkWitness:
    """Replay the acyclicity argument along a cycle until it snaps.

    Walking the cycle maintains a k-chain tied to the first vertex; at
    each hop it must meet a comparable element of the next vertex's upper
    chain, and the arc directions force that comparability downward.  On
    an input that genuinely contains two incomparable k-chains some hop
    finds no comparable pair, and that pair of chains is the witness.
    On a valid k+k-free run every hop succeeds, which contradicts the
    closing arc; reaching the end therefore signals a bug.
    """
    first = cycle[0]
    left = entries[first].lower
    for idx in range(1, len(cycle)):
        i = cycle[idx]
        right = entries[i].upper
        found = None
        for u in left:
            for v in right:
                if p.comparable(u, v):
                    found = (u, v)
                    break
            if found:
                break
        if found is None:
            witness = KkWitness(Chain(left), Chain(right))
            if not witness.is_valid(p):
                raise InternalError("replay produced an invalid witness")
            return witness
        u, v = found
        if p.less(u, v):
            raise InternalError("comparable pair points upward across an arc")
        # u > v pins c_first above this vertex's b; swap it into the chain
        left = entries[i].lower[:-1] + (entries[first].c,)
    raise InternalError("cycle replay exhausted without contradiction or witness")


@dataclass(frozen=True)
class BlockMove:
    removed: int
    added: int
    chain: int


class _SinkDigraph:
    """The certificate state of one block, kept current as windows slide.

    ``entries`` holds a CertEntry for every chain still reaching above its
    segment, in increasing chain order; ``ups`` is the up-set as an element
    bitmask.  The certifying digraph has an arc i -> j when a_i is not below
    d_j.  Since d_j is chain j's least element above its segment, and a_i is
    below d_i on its own chain, chain i is a sink exactly when a_i lies below
    the whole up-set: goodness is the one mask test ``pick`` makes, and the
    arcs are built only when no chain passes it, to find the witness's cycle.
    """

    __slots__ = ("p", "cp", "k", "segments", "entries", "ups")

    def __init__(
        self, p: Poset, cp: ChainPartition, segments: tuple[tuple[int, int], ...], k: int
    ):
        self.p, self.cp, self.k = p, cp, k
        self.segments = list(segments)
        self.entries: dict[int, CertEntry] = {}
        self.ups = 0
        for i, ((_, hi), chain) in enumerate(zip(self.segments, cp.chains)):
            if hi >= len(chain.elements):
                continue  # chain contributes nothing above its segment
            for e in chain.elements[hi:]:
                self.ups |= 1 << e
            self.entries[i] = self._entry(i)

    def _entry(self, i: int) -> CertEntry:
        k = self.k
        window = 2 * k - 3
        lo, hi = self.segments[i]
        # block_sequence gives every chain min(len, 2k-3) positions and only
        # chains reaching past their segment get here, so the width is exact
        if hi - lo != window:
            raise InternalError(
                f"chain {i} segment holds {hi - lo} elements; the certificate needs {window}"
            )
        chain = self.cp.chains[i].elements
        seg = chain[lo:hi]
        d = chain[hi]
        lower = (seg + (d,))[:k]  # k smallest of segment + {d}
        a, b, c = lower[0], lower[-2], lower[-1]
        upper = seg[k - 2 :] + (d,)
        if len(upper) != k:
            raise InternalError(f"chain {i} upper chain has {len(upper)} elements, not {k}")
        less = self.p.less
        if not ((a == b or less(a, b)) and less(b, c) and (c == d or less(c, d))):
            raise InternalError(f"chain {i} certificate breaks a <= b < c <= d")
        return CertEntry(a=a, b=b, c=c, d=d, lower=lower, upper=upper)

    def pick(self) -> int | KkWitness:
        """The smallest chain whose segment minimum is below the whole up-set, or a witness."""
        ups, succ_mask = self.ups, self.p.succ_mask
        for i, entry in self.entries.items():
            if not ups & ~succ_mask(entry.a):
                return i
        return _witness_from_cycle(self.p, self.entries, _least_cycle(self.arcs()))

    def arcs(self) -> dict[int, int]:
        """The certifying digraph: bit j of ``arcs()[i]`` is the arc i -> j (a_i not below d_j)."""
        less, entries = self.p.less, self.entries
        return {
            i: sum(1 << j for j in entries if j != i and not less(entries[i].a, entries[j].d))
            for i in entries
        }

    def advance(self, s: int) -> BlockMove:
        """Slide chain s past its segment minimum, then recertify or drop chain s."""
        lo, hi = self.segments[s]
        chain = self.cp.chains[s].elements
        removed, added = chain[lo], chain[hi]
        if removed != self.entries[s].a:
            raise InternalError(f"removed {removed} is not chain {s}'s certified minimum")
        self.segments[s] = (lo + 1, hi + 1)
        self.ups &= ~(1 << added)
        if hi + 1 == len(chain):
            del self.entries[s]
        else:
            self.entries[s] = self._entry(s)
        return BlockMove(removed=removed, added=added, chain=s)


def _least_cycle(arcs: dict[int, int]) -> list[int]:
    """Deterministic cycle in a sinkless digraph: walk min out-neighbors from the first vertex.

    A sink here is a chain that failed the up-set test yet has no out-arc,
    so the two characterisations of a good element disagree.
    """
    path: list[int] = []
    cur = next(iter(arcs))
    while cur not in path:
        path.append(cur)
        out = arcs[cur]
        if not out:
            raise InternalError(f"chain {cur} fails the up-set test but has no out-arc")
        cur = (out & -out).bit_length() - 1
    cycle = path[path.index(cur) :]
    m = cycle.index(min(cycle))
    return cycle[m:] + cycle[:m]


@dataclass(frozen=True)
class BlockSequence:
    """The full slide over one chain partition: the first block, then one move per step.

    ``first`` holds one ``[lo, hi)`` run of positions per chain.  Each next
    block shifts chain ``moves[t].chain``'s segment up by one position, so
    the first block and the moves determine every block.
    """

    partition: ChainPartition
    first: tuple[tuple[int, int], ...]
    moves: tuple[BlockMove, ...]

    def __len__(self) -> int:
        return len(self.moves) + 1

    @property
    def width(self) -> int:
        """Every bag's size minus one: each move swaps one element out and one in."""
        return sum(hi - lo for lo, hi in self.first) - 1


@dataclass(frozen=True)
class PathDecomposition:
    """An ordered bag sequence; width is max bag size minus one."""

    bags: tuple[tuple[int, ...], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def __len__(self) -> int:
        return len(self.bags)


def block_sequence(p: Poset, k: int) -> BlockSequence | KkWitness:
    """Slide windows up the Dilworth chains until nothing remains above them.

    Each step removes the certified good element and admits the smallest
    element above the same chain's segment, so per-chain segment sizes
    never change.  Each step tries the live chains in increasing order,
    one up-set mask test each; the certifying digraph is built only when
    none passes, and its cycle is replayed into the two-chain witness that
    is then returned.
    """
    if k < 2:
        raise ParamError("k must be at least 2")
    cp = dilworth_partition(p)
    # the first block: the min(2k-3, chain length) smallest elements of every chain
    first = tuple((0, min(len(c.elements), 2 * k - 3)) for c in cp.chains)
    state = _SinkDigraph(p, cp, first, k)
    moves: list[BlockMove] = []
    while state.ups:
        got = state.pick()
        if isinstance(got, KkWitness):
            return got
        moves.append(state.advance(got))
    return BlockSequence(partition=cp, first=first, moves=tuple(moves))


def spans_from_blocks(seq: BlockSequence) -> tuple[tuple[int, int], ...]:
    """Per element, the closed 1-based range of blocks containing it.

    The interval order of these spans is the extension of the input.  An
    element enters in block 1 or when admitted, and leaves when removed or
    after the last block, so its span is read straight off the moves.
    """
    n = sum(len(c.elements) for c in seq.partition.chains)
    first = [0] * n
    last = [len(seq)] * n
    for (lo, hi), chain in zip(seq.first, seq.partition.chains):
        for e in chain.elements[lo:hi]:
            first[e] = 1
    for t, mv in enumerate(seq.moves, start=1):
        last[mv.removed] = t
        first[mv.added] = t + 1
    if 0 in first:
        raise InternalError(f"element {first.index(0)} never entered any block")
    return tuple(zip(first, last))


def decomposition_from_blocks(seq: BlockSequence) -> PathDecomposition:
    """One bag per block, in increasing id order.

    The first bag is read off the first block's segments; each move then
    swaps one element out and one in.
    """
    bag = sorted(
        e
        for (lo, hi), chain in zip(seq.first, seq.partition.chains)
        for e in chain.elements[lo:hi]
    )
    bags = [tuple(bag)]
    for mv in seq.moves:
        del bag[bisect_left(bag, mv.removed)]
        insort(bag, mv.added)
        bags.append(tuple(bag))
    return PathDecomposition(tuple(bags))


def _valid_spans(g: Graph, pd: PathDecomposition) -> tuple[tuple[int, int], ...] | None:
    """Each vertex's closed 1-based span of bags, or None when pd does not decompose g.

    Once every vertex's bags are known to be consecutive, an edge is covered
    exactly when the spans of its two ends intersect, that is when neither
    begins after the other ends.  Every edge is seen from both ends, so it
    suffices that no vertex's neighbour begins after its last bag.
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
    if any(g.nbr_mask(u) & a for u, a in enumerate(_after(spans))):
        return None
    return spans


def validate_path_decomposition(g: Graph, pd: PathDecomposition) -> bool:
    """Consecutive occurrence of every vertex and coverage of every edge."""
    return _valid_spans(g, pd) is not None
