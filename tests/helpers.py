"""Shared strategies and independent oracles for the test suite.

Oracles here deliberately avoid the library's algorithms: brute-force
subset scans and full permutation sweeps, usable only at tiny sizes, so
the fast implementations are checked against something they do not share
code with.
"""

from itertools import combinations, permutations

from hypothesis import strategies as st

from posetff import (
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
