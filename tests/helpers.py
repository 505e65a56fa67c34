"""Shared strategies and independent oracles for the test suite.

Oracles here deliberately avoid the library's algorithms: brute-force
subset scans and full permutation sweeps, usable only at tiny sizes, so
the fast implementations are checked against something they do not share
code with.
"""

from itertools import combinations, permutations

from hypothesis import strategies as st

from posetff import (
    CoverageError,
    Graph,
    PresentationOrder,
    build_poset,
    first_fit_color,
)


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
            if not all(p.comparable(u, v) for u, v in combinations(a_part, 2)):
                continue
            if not all(p.comparable(u, v) for u, v in combinations(b_part, 2)):
                continue
            if all(p.incomparable(u, v) for u in a_part for v in b_part):
                return True
    return False


def brute_grundy(g):
    """Full permutation sweep, no pruning; usable to n ~ 6."""
    best = 0
    for perm in permutations(range(g.n)):
        used = first_fit_color(g, PresentationOrder(perm)).color_count
        best = max(best, used)
    return best if g.n else 0


def _brute_cover(parts, n, what):
    """Raise CoverageError unless the parts partition 0..n-1."""
    flat = [v for part in parts for v in part]
    if sorted(flat) != list(range(n)):
        raise CoverageError(f"{what} do not partition 0..{n - 1}")


def brute_ff_partition_ok(p, cp):
    """First-Fit chain law, pair by pair: non-empty parts, each listed in
    increasing order, and each element of a later part incomparable to some
    element of every earlier part."""
    parts = [c.elements for c in cp.chains]
    _brute_cover(parts, p.n, "chains")
    for j, part in enumerate(parts):
        if not part:
            return False
        if not all(p.less(part[a], part[b]) for a, b in combinations(range(len(part)), 2)):
            return False
        for v in part:
            if not all(any(p.incomparable(u, v) for u in earlier) for earlier in parts[:j]):
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
        if any(g.adjacent(u, v) for u, v in combinations(cls, 2)):
            return False
        for v in cls:
            if not all(any(g.adjacent(u, v) for u in earlier) for earlier in classes[:j]):
                return False
    return True


def brute_homomorphism_ok(g, h, f):
    """A map of g's vertices onto h's that sends every edge to an edge."""
    m = f.mapping
    if len(m) != g.n or not all(0 <= x < h.n for x in m):
        return False
    if any(g.adjacent(u, v) and not h.adjacent(m[u], m[v])
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
            if all(p.incomparable(u, v) for u, v in combinations(sub, 2)):
                best = size
                break
    return best


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
                if g.adjacent(u, v) and v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def minus_perfect_matching(a):
    """K_{a,a} with the i-(a+i) matching removed."""
    return Graph(2 * a, [(u, a + v) for u in range(a) for v in range(a) if u != v])
