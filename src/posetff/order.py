"""Posets as dense bit relations, plus the order machinery everything else rides on.

Elements are dense integer ids 0..n-1.  The strict order is stored fully
transitively closed, one successor bitmask per element, so a comparability
test is a single shift-and-test and the heavy algorithms downstream
(Dilworth matching, two-chain pattern search, incomparability graphs)
reduce to integer set algebra.

Posets come into being on two paths.  The library's two constructors
build both masks in one pass whose structure proves the order, and hand them
to ``Poset._closed``, which adopts them unchecked: ``build_poset`` (so
every file the loader reads, and the adversaries' cover pairs) closes the
generator pairs in Kahn's topological order, and
``interval_order_from_intervals`` reads the masks off the endpoints.  The
public ``Poset(n, succ)`` is for masks from outside the library (callers,
tests) and checks them: the predecessor masks come from one transpose of
the successor masks by 8 x 8 bit tiles (a strided byte regrouping and three
delta swaps over one integer), O(n²/8) bytes of C-level work, and the axiom
check ORs each element's successors' rows through a Four-Russians
table (8-row chunks, 256 ORs each), n²/8 table lookups plus 32n big-int ORs
in all.  The transitive reduction needs no table: ``cover_rows`` walks each
up-set in a linear extension and takes one cover per step.

The k+k search runs on the same two kernels.  For k >= 2, two k-chains are
disjoint with every cross pair incomparable iff neither bottom lies below
the other chain's top, so it needs only each element's k-chain tops (a
boolean power of the successor relation, by binary exponentiation) and one
more pass that ORs their non-predecessor masks: O(log k) passes of n²/8
lookups in all, a cost fixed by n and k before the search starts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .errors import (
    CycleError,
    IdOutOfRange,
    InternalError,
    MalformedInterval,
    ParamError,
    SizeMismatch,
)

__all__ = [
    "Poset",
    "KkWitness",
    "Graph",
    "build_poset",
    "width_with_witness",
    "dilworth_partition",
    "incomparability_graph",
    "find_k_plus_k",
    "is_extension",
    "interval_order_from_intervals",
    "interval_cover_rows",
    "is_interval_order",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _reach(keys: Sequence[int], rows: Sequence[int], n: int) -> list[int]:
    """For each key mask, the OR of rows[v] over every id v < n set in it (Four Russians).

    This is the boolean product of the relations keys and rows: with
    ``keys = rows = succ`` it gives each element's successors' successors.
    Rows go in chunks of 8; a chunk's 256 ORs are tabled once and folded into
    all accumulators, each indexed by its key's byte for that chunk, before
    the next chunk's table is built.  Key bits at or above n are ignored; the
    rows are ORed in as given.
    """
    full = (1 << n) - 1
    width = (n + 7) // 8
    packed = b"".join((m & full).to_bytes(width, "little") for m in keys)
    reach = [0] * len(keys)
    for c in range(width):
        table = [0]
        for row in rows[8 * c : 8 * c + 8]:
            table += [t | row for t in table]
        reach = [r | table[b] for r, b in zip(reach, packed[c::width])]
    return reach


def _transpose(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Columns of the n x n bit matrix whose row u is rows[u], each rows[u] < 2**n.

    The matrix is cut into 8 x 8 tiles and transposed a tile at a time, all
    tiles at once.  The rows are packed as w = ceil(n/8) little-endian bytes
    each, padded with zero rows to h = 8w, and regrouped by byte column with
    strided slices: byte c of rows 8r..8r+7 then forms the little-endian
    64-bit word r of column group c, bit 8i + j holding row 8r + i, column
    8c + j.  Three delta swaps on one integer (Hacker's Delight, section
    7-3), each mask repeated over every word, move bit 8i + j to 8j + i, so
    byte j of each word is byte r of column 8c + j; one strided slice per
    column reads its w bytes off.  O(n²/8) bytes of C-level work in all.
    """
    w = (n + 7) // 8
    h = 8 * w
    packed = b"".join(m.to_bytes(w, "little") for m in rows) + bytes(w * (h - n))
    x = int.from_bytes(b"".join(packed[c::w] for c in range(w)), "little")
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)):
        t = (x ^ (x >> shift)) & int.from_bytes(mask.to_bytes(8, "little") * (w * w), "little")
        x ^= t ^ (t << shift)
    tiles = x.to_bytes(w * h, "little")
    return tuple(
        int.from_bytes(tiles[(v >> 3) * h + (v & 7) : ((v >> 3) + 1) * h : 8], "little")
        for v in range(n)
    )


class Poset:
    """A finite strict partial order; its relation is fixed at construction.

    ``succ_mask(u)`` has bit v set iff u < v; ``pred_mask`` is the mirror.
    The constructor, for masks from outside the library, checks the three
    order axioms (irreflexive, antisymmetric, transitive) and transposes the
    masks; the library's own constructors go through ``_closed``, which adopts
    both masks their construction proves.  Either way it is a closed order.
    The incomparability graph is built on first use by
    ``incomparability_graph`` and then kept in ``_inc``.

    ``less``, ``succ_mask`` and ``pred_mask`` take ids in 0..n-1 unchecked;
    data from outside goes through the checked tests ``is_chain``,
    ``is_antichain`` and ``KkWitness.is_valid``, which refuse other ids.
    """

    __slots__ = ("n", "_succ", "_pred", "_inc")

    def __init__(self, n: int, succ: Sequence[int]):
        if n < 0:
            raise IdOutOfRange("negative element count")
        if len(succ) != n:
            raise SizeMismatch(f"expected {n} masks, got {len(succ)}")
        self.n = n
        self._succ = tuple(succ)
        self._inc: Graph | None = None
        self._check_axioms()
        self._pred = _transpose(self._succ, n)

    @classmethod
    def _closed(cls, n: int, succ: Sequence[int], pred: Sequence[int]) -> Poset:
        """Adopt a closed strict order's successor masks and their transpose, unchecked."""
        p = cls.__new__(cls)
        p.n = n
        p._succ = tuple(succ)
        p._pred = tuple(pred)
        p._inc = None
        return p

    def _check_axioms(self) -> None:
        """Mask types first, then per element in id order: range, self-loop, 2-cycle, closure."""
        for u, m in enumerate(self._succ):
            if type(m) is not int:
                raise ParamError(f"mask of {u} is not an int")
        full = (1 << self.n) - 1
        for u, (m, reach) in enumerate(zip(self._succ, _reach(self._succ, self._succ, self.n))):
            if m & ~full:
                raise IdOutOfRange(f"mask of {u} mentions ids >= {self.n}")
            if (m >> u) & 1:
                raise CycleError(f"element {u} below itself")
            if (reach >> u) & 1:
                v = next(v for v in iter_bits(m) if (self._succ[v] >> u) & 1)
                raise CycleError(f"both {u} < {v} and {v} < {u}")
            if reach & ~m:
                raise CycleError(f"relation below {u} is not transitively closed")

    # -- elementary queries -------------------------------------------------

    def less(self, u: int, v: int) -> bool:
        """Whether u < v, for ids u, v in 0..n-1; neither is checked."""
        return (self._succ[u] >> v) & 1 == 1

    def succ_mask(self, u: int) -> int:
        """Bit v set iff u < v, for an id u in 0..n-1 (unchecked)."""
        return self._succ[u]

    def pred_mask(self, u: int) -> int:
        """Bit v set iff v < u, for an id u in 0..n-1 (unchecked)."""
        return self._pred[u]

    def cover_rows(self) -> list[list[int]]:
        """Transitive reduction by element: row u lists, increasing, the v that cover u.

        Each row walks u's up-set in a linear extension: the ids when they
        follow the order, else the elements sorted by predecessor count, with
        the up-sets transposed into that order.  The first element left is
        minimal among those left, so it covers u: whatever lay between was a
        cover, or above one, and went with it.  Then it and everything above
        it go, until nothing is left: one mask operation per cover, plus the
        one transpose when the ids run against the order.
        """
        n, pred = self.n, self._pred
        ext, up = range(n), self._succ
        if any(m >> v for v, m in enumerate(pred)):  # some element lies above a larger id
            ext = sorted(range(n), key=lambda v: pred[v].bit_count())
            up = _transpose([pred[v] for v in ext], n)
        rows = []
        for m in up:
            row = []
            while m:
                i = _low(m)
                row.append(ext[i])
                m &= ~(up[ext[i]] | 1 << i)
            row.sort()
            rows.append(row)
        return rows

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Transitive reduction: pairs u < v with nothing strictly between, in sorted order."""
        return [(u, v) for u, row in enumerate(self.cover_rows()) for v in row]

    def is_chain(self, elems: Sequence[int]) -> bool:
        """Whether elems are ids in 0..n-1 listed in increasing order (so pairwise comparable)."""
        # rows hold no bit past n-1, so each id after a first one in 0..n-1 passes only in range
        try:
            return not elems or (type(elems[0]) is int and 0 <= elems[0] < self.n
                                 and all(map(self.less, elems, elems[1:])))
        except (TypeError, ValueError):  # a later id that is not an int, or a negative shift count
            return False

    def is_antichain(self, elems: Sequence[int]) -> bool:
        """Whether elems are distinct, pairwise incomparable ids in 0..n-1."""
        try:
            if elems and not (min(elems) >= 0 and max(elems) < self.n):
                return False
            # a sum of powers of two has one bit per term exactly when no two terms are equal
            mask = sum(1 << u for u in elems)
        except TypeError:  # an id that is not an int fails the range test or the shift
            return False
        return mask.bit_count() == len(elems) and not any(self._succ[u] & mask for u in elems)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self._succ == other._succ

    def __hash__(self) -> int:
        return hash((self.n, self._succ))

    def __repr__(self) -> str:
        pairs = sum(m.bit_count() for m in self._succ)
        return f"Poset(n={self.n}, pairs={pairs})"


@dataclass(frozen=True)
class KkWitness:
    """Two disjoint k-chains with every cross pair incomparable, each in increasing order."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.a)

    def is_valid(self, p: Poset) -> bool:
        if not (0 < len(self.a) == len(self.b) and p.is_chain(self.a) and p.is_chain(self.b)):
            return False
        # a chain's ids are distinct, so the sum sets one bit each; u's own bit keeps a, b disjoint
        b = sum(1 << v for v in self.b)
        return not any((p.succ_mask(u) | p.pred_mask(u) | 1 << u) & b for u in self.a)


class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency."""

    __slots__ = ("n", "_nbr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise IdOutOfRange("negative vertex count")
        self.n = n
        nbr = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IdOutOfRange(f"edge ({u},{v}) outside [0,{n})")
            if u == v:
                raise ParamError(f"loop at {u}")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        self._nbr = tuple(nbr)

    @classmethod
    def _from_masks(cls, nbr: Sequence[int]) -> Graph:
        """Adopt neighbour masks that the caller knows are symmetric and loop-free."""
        g = cls.__new__(cls)
        g.n = len(nbr)
        g._nbr = tuple(nbr)
        return g

    def nbr_mask(self, v: int) -> int:
        """Bit u set iff uv is an edge, for a vertex v in 0..n-1 (unchecked)."""
        return self._nbr[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._nbr == other._nbr

    def __hash__(self) -> int:
        return hash(self._nbr)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={sum(m.bit_count() for m in self._nbr) // 2})"


# -- construction -----------------------------------------------------------


def build_poset(n: int, relations: Iterable[tuple[int, int]]) -> Poset:
    """Transitively close generator pairs (u < v) into a Poset.

    Raises CycleError when the generators admit a directed cycle (including
    a self pair), IdOutOfRange on ids outside [0, n).

    Kahn's order lists all n elements only if the generators are acyclic,
    each element's predecessor mask is complete when it is popped (so one
    forward pass ORs it into its generator successors), and the reverse pass
    ORs each element's successors' closed masks: the masks are the closure
    of an acyclic relation and its transpose, and are adopted unchecked.
    A repeated pair needs no dropping: each copy adds one to ``indeg`` and
    takes it off again when its lower end is popped, and a second OR of the
    same mask changes nothing.
    """
    if n < 0:
        raise IdOutOfRange("negative element count")
    adj: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in relations:
        if not (0 <= u < n and 0 <= v < n):
            raise IdOutOfRange(f"pair ({u},{v}) outside [0,{n})")
        if u == v:
            raise CycleError(f"element {u} related to itself")
        adj[u].append(v)
        indeg[v] += 1
    order = [u for u in range(n) if indeg[u] == 0]
    pred = [0] * n
    for u in order:  # grows while it is read: Kahn's queue
        below = pred[u] | (1 << u)
        for v in adj[u]:
            pred[v] |= below
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) < n:
        raise CycleError("generator pairs contain a directed cycle")
    succ = [0] * n
    for u in reversed(order):
        m = 0
        for v in adj[u]:
            m |= succ[v] | (1 << v)
        succ[u] = m
    return Poset._closed(n, succ, pred)


def interval_order_from_intervals(intervals: Sequence[tuple[float, float]]) -> Poset:
    """Poset of closed intervals: u < v iff u's interval ends before v's begins.

    Endpoints may be any totally ordered numbers (ints, Fractions, floats;
    NaN is refused).  Such a relation is always a strict order, so the masks
    of ``_after`` and ``_before`` are adopted unchecked.
    """
    spans = _checked_spans(intervals)
    return Poset._closed(len(spans), _after(spans), _before(spans))


def interval_cover_rows(intervals: Sequence[tuple[float, float]]) -> list[list[int]]:
    """Per span u, the spans that cover u in the interval order of closed spans, increasing.

    v covers u iff hi(u) < lo(v) <= m, where m is the least right end among
    the spans that begin after hi(u): a span strictly between u and v would
    end before v begins.  With ids sorted by left end, u's covers are the
    slice between bisect_right(lefts, hi(u)) and bisect_right(lefts, m), and
    a suffix minimum of the right ends gives m; no ``Poset`` is built.
    Equal to ``interval_order_from_intervals(intervals).cover_rows()``.
    """
    spans = _checked_spans(intervals)
    by_left, lefts = _by_left(spans)
    n = len(spans)
    least = list(accumulate((spans[v][1] for v in reversed(by_left)), min))[::-1]
    rows: list[list[int]] = []
    for _, right in spans:
        lo = bisect_right(lefts, right)
        rows.append(sorted(by_left[lo:bisect_right(lefts, least[lo], lo)]) if lo < n else [])
    return rows


def _checked_spans(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    spans = []
    for t in intervals:
        left, right = t
        if not left <= right:
            why = "left > right" if left > right else "ends that are not ordered"
            raise MalformedInterval(f"interval {t!r} has {why}")
        spans.append((left, right))
    return spans


def _by_left(spans: Sequence[tuple[float, float]]) -> tuple[list[int], list[float]]:
    """Ids sorted by left end (stably), and the left ends in that order."""
    by_left = sorted(range(len(spans)), key=lambda v: spans[v][0])
    return by_left, [spans[v][0] for v in by_left]


def _after(spans: Sequence[tuple[float, float]]) -> list[int]:
    """For each span, the mask of the spans that begin after it ends.

    With ids sorted by left end, the spans that begin after a right end are
    the suffix that starts at bisect_right(lefts, right).  Closed spans meet
    exactly when neither begins after the other ends.
    """
    n = len(spans)
    by_left, lefts = _by_left(spans)
    suffix = [0] * (n + 1)
    for pos in range(n - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] | (1 << by_left[pos])
    return [suffix[bisect_right(lefts, right)] for _, right in spans]


def _spans_cover_edges(g: Graph, spans: Sequence[tuple[float, float]]) -> bool:
    """Whether every edge of g joins two meeting spans.

    Every edge is seen from both ends, so it suffices that no vertex's
    neighbour begins after the vertex's span ends.
    """
    return not any(g.nbr_mask(u) & a for u, a in enumerate(_after(spans)))


def _before(spans: Sequence[tuple[float, float]]) -> list[int]:
    """For each span, the mask of the spans that end before it begins: ``_after``'s transpose."""
    # mirroring the line turns "ends before u begins" into "begins after u ends"
    return _after([(-b, -a) for a, b in spans])


# -- width, Dilworth --------------------------------------------------------


def _maximum_matching(p: Poset) -> tuple[list[int], list[int], int]:
    """Maximum bipartite matching on the split-vertex graph of the closed relation.

    Left copy of u connects to right copies of all v with u < v.  A greedy
    pass seeds the matching, then a BFS from each free root in id order
    finishes it.  Returns (match_l, match_r, dead): -1 for unmatched, and
    ``dead`` the right vertices outside ``live_r`` at the end.

    ``live_r`` holds the right vertices outside every failed search's
    visited set, across augmentations, and each search starts from it; only
    a successful search's own visits, which stop part way, go back into it.
    A failed search's visited set holds no free vertex and is closed (each
    vertex's partner has all its successors inside it).  Later searches run
    with it excluded, so no augmenting path enters it: its partners never
    change, so it stays closed, and augmentations only take free vertices,
    so it stays free of them.  Nothing live is reached through it, so every
    search has the layers, ``prev`` entries and goal (the lowest free vertex
    of the first fresh mask that meets ``free_r``) of a fresh search per
    root, and (match_l, match_r) is the one that gives.  Most roots fail on
    wide orders (1019 of 1047 on ``gen_interval_order(1, 2000)``), so the
    rule spares most of the search: on ``gen_interval_order(1, n)``, with
    CPython 3.11 on a shared 2-vCPU x86-64 host, the matching takes 0.009,
    0.17 and 0.66 s at n = 2000, 8000 and 16000.

    ``dead`` is Koenig's Z_R of the final matching: the right vertices that
    an alternating path reaches from an unmatched left vertex.  The final
    unmatched left vertices are exactly the roots whose search failed, since
    an augmentation matches only its root and a matched vertex never becomes
    unmatched.  A failed search leaves dead every live right vertex that an
    alternating path reaches from its root; dead vertices' partners never
    change, so they stay reachable.  Dead sets are closed, so nothing
    outside them is reached.
    """
    n = p.n
    succ = p._succ
    match_l = [-1] * n
    match_r = [-1] * n
    full = (1 << n) - 1
    free_r = full
    for u in range(n):
        free = succ[u] & free_r
        if free:
            v = (free & -free).bit_length() - 1
            match_l[u] = v
            match_r[v] = u
            free_r ^= 1 << v
    live_r = full
    prev = [-1] * n  # entries are read only along the path of the search that set them
    for root in range(n):
        if match_l[root] != -1:
            continue
        live = live_r
        frontier = [root]
        goal = -1
        while frontier and goal == -1:
            nxt = []
            for u in frontier:
                fresh = succ[u] & live
                if not fresh:
                    continue
                hit = fresh & free_r
                if hit:
                    goal = (hit & -hit).bit_length() - 1
                    prev[goal] = u
                    break
                live ^= fresh
                while fresh:
                    low = fresh & -fresh
                    v = low.bit_length() - 1
                    prev[v] = u
                    nxt.append(match_r[v])
                    fresh ^= low
            frontier = nxt
        if goal == -1:
            live_r = live
            continue
        free_r ^= 1 << goal
        v = goal
        while True:
            u = prev[v]
            nxt_v = match_l[u]
            match_l[u] = v
            match_r[v] = u
            if nxt_v == -1:
                break
            v = nxt_v
    return match_l, match_r, full & ~live_r


def width_with_witness(p: Poset) -> tuple[int, tuple[int, ...]]:
    """Maximum antichain size plus a witness, via matching and Koenig duality.

    The matching's dead set is Z_R, the right vertices an alternating path
    reaches from an unmatched left vertex; Z_L is the unmatched left
    vertices plus the partners of Z_R.  The witness is the elements in Z_L
    but not in Z_R; its size and its antichain property are checked.
    """
    match_l, match_r, zr = _maximum_matching(p)
    zl = sum(1 << u for u, v in enumerate(match_l) if v == -1)
    for v in iter_bits(zr):
        w = match_r[v]
        if w == -1:
            raise InternalError("an augmenting path survived the maximum matching")
        zl |= 1 << w
    width = match_r.count(-1)
    witness = tuple(iter_bits(zl & ~zr))
    if len(witness) != width:
        raise InternalError(f"Koenig witness has {len(witness)} elements, width is {width}")
    if not p.is_antichain(witness):
        raise InternalError("Koenig witness is not an antichain")
    return width, witness


def dilworth_partition(p: Poset) -> tuple[tuple[int, ...], ...]:
    """Partition into width(p) chains, read off the matching paths, sorted by least element."""
    match_l, match_r, _ = _maximum_matching(p)
    chains = []
    for start in range(p.n):
        if match_r[start] != -1:
            continue
        path = [start]
        while match_l[path[-1]] != -1:
            path.append(match_l[path[-1]])
        chains.append(tuple(path))
    chains.sort()  # disjoint chains: the same as sorting by least element
    return tuple(chains)


# -- graphs from posets -----------------------------------------------------


def incomparability_graph(p: Poset) -> Graph:
    """Graph joining every incomparable pair of distinct elements: built once, kept on p."""
    if p._inc is None:
        full = (1 << p.n) - 1
        # incomparability is symmetric and irreflexive, so the masks are adjacency as is
        p._inc = Graph._from_masks(
            [full & ~(s | b | 1 << v) for v, (s, b) in enumerate(zip(p._succ, p._pred))]
        )
    return p._inc


# -- forbidden pattern search -----------------------------------------------


def _power(succ: Sequence[int], m: int, n: int) -> Sequence[int]:
    """The m-th boolean power of succ (m >= 1) by binary exponentiation.

    One ``_reach`` pass per squaring and per factor after the first:
    m.bit_length() + m.bit_count() - 2 passes.
    """
    power: Sequence[int] | None = None
    base = succ
    while True:
        if m & 1:
            power = base if power is None else _reach(power, base, n)
        m >>= 1
        if not m:
            return power
        base = _reach(base, base, n)


def _chain_between(p: Poset, x: int, y: int, k: int) -> tuple[int, ...]:
    """A k-chain from x to y, given that some k-chain runs from x to y.

    Peels the k - 2 lowest layers of minimal elements off the open interval
    (x, y), then walks down from y through them, taking the least element
    below the current one in each layer.
    """
    between = p.succ_mask(x) & p.pred_mask(y)
    layers = []
    for _ in range(k - 2):
        layer = 0
        for z in iter_bits(between):
            if not p.pred_mask(z) & between:
                layer |= 1 << z
        layers.append(layer)
        between &= ~layer
    down = [y]
    for layer in reversed(layers):
        down.append(_low(layer & p.pred_mask(down[-1])))
    down.append(x)
    return tuple(reversed(down))


def _check_k(k: int) -> None:
    """Refuse a k that is not an int of at least 2."""
    if type(k) is not int:
        raise ParamError(f"k must be an int, got {k!r}")
    if k < 2:
        raise ParamError("k must be at least 2")


def find_k_plus_k(p: Poset, k: int) -> KkWitness | None:
    """Search for two disjoint k-chains with all cross pairs incomparable.

    The search is complete and rests on an endpoint lemma: for k >= 2, two
    k-chains a_1 < ... < a_k and b_1 < ... < b_k are disjoint with every
    cross pair incomparable iff a_1 is not below b_k and b_1 is not below
    a_k (if some a_i <= b_j then a_1 <= a_i <= b_j <= b_k, and a shared
    element makes one bottom below the other chain's top).  So with U(x) the
    tops of the k-chains that start at x, the (k-1)-th boolean power of the
    successor relation, and R(x) the OR of the non-predecessor masks over
    U(x), the poset holds a k+k iff R(x) and its transpose meet for some x.
    U takes (k-1).bit_length() + (k-1).bit_count() - 2 Four-Russians passes
    by binary exponentiation and R one more, each n²/8 table lookups, so the
    cost is O(log k) passes whatever the answer.

    The witness is deterministic: x is the least element whose row of R
    meets its transposed row, x' the least element of that meet, y the
    least top over x not above x', y' the least top over x' not above x,
    and each chain is peeled from its open interval.
    """
    _check_k(k)
    n = p.n
    if 2 * k > n:
        return None
    full = (1 << n) - 1
    tops = _power([p.succ_mask(u) for u in range(n)], k - 1, n)
    reach = _reach(tops, [full & ~p.pred_mask(y) for y in range(n)], n)
    both = [r & c for r, c in zip(reach, _transpose(reach, n))]
    x = next((x for x in range(n) if both[x]), None)
    if x is None:
        return None
    x2 = _low(both[x])
    y = _low(tops[x] & ~p.succ_mask(x2))
    y2 = _low(tops[x2] & ~p.succ_mask(x))
    witness = KkWitness(_chain_between(p, x, y, k), _chain_between(p, x2, y2, k))
    if not witness.is_valid(p):
        raise InternalError("k+k search returned an invalid witness")
    return witness


def is_interval_order(p: Poset) -> bool:
    """True iff the poset has no pair of disjoint incomparable 2-chains.

    Fishburn's characterisation: exactly then the down-sets are totally
    ordered by inclusion, so sorted by size each must contain the previous.
    """
    downs = sorted((p.pred_mask(u) for u in range(p.n)), key=int.bit_count)
    return all(small & ~big == 0 for small, big in zip(downs, downs[1:]))


def is_extension(p: Poset, q: Poset) -> bool:
    """True iff every relation of q also holds in p (p extends q)."""
    if p.n != q.n:
        raise SizeMismatch(f"element counts differ: {p.n} vs {q.n}")
    return all(q.succ_mask(u) & ~p.succ_mask(u) == 0 for u in range(p.n))
