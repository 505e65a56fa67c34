"""The benchmark's workloads: seeded inputs, one op per pool item, and the checks.

Each workload builds a fixed pool of items from the seed.  One op runs the
program on one item (``run``) and then checks the outputs independently
(``check``), which returns the op's canonical output text for the digest.
Inputs are drawn with the benchmark's own splitmix64, not with
``posetff.generators``, so they stay fixed when the generators change.

The shapes of the random inputs (interval systems, graphs) are drawn from
the fixed SHAPE_SEED; ``--seed`` relabels their elements and draws the
presentation orders.  So every seed feeds the program different files, with
different chain orders and tie-breaks, while the amount of work per run
hardly depends on the seed.

Program functions are always reached through their module attribute
(``firstfit.first_fit_chains``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from posetff import adversary, cli, extension, firstfit, homomorphism, jsonio, order

_MASK64 = (1 << 64) - 1
SHAPE_SEED = 11112370


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def canon(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def shuffled(self, items: list) -> list:
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


@dataclass
class Item:
    """One op of a workload's pool, with the record of what it measures."""

    name: str
    elems: int
    run: Callable[[], Any]
    check: Callable[[Any], str]
    record: dict


# -- inputs -------------------------------------------------------------------


def wide_intervals(rng: SplitMix64, n: int) -> list[tuple[int, int]]:
    """Both endpoints uniform on [0, 2n): width about n/2."""
    out = []
    for _ in range(n):
        a, b = rng.below(2 * n), rng.below(2 * n)
        out.append((min(a, b), max(a, b)))
    return out


def narrow_intervals(rng: SplitMix64, n: int, span: int) -> list[tuple[int, int]]:
    """Left end uniform on [0, n), length uniform on [0, span): width about span."""
    out = []
    for _ in range(n):
        a = rng.below(n)
        out.append((a, a + rng.below(span)))
    return out


def random_edges(rng: SplitMix64, pairs: list[tuple[int, int]], m: int) -> list[tuple[int, int]]:
    return sorted(rng.shuffled(pairs)[:m])


def relabel(perm: list[int], edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def poset_text(p) -> str:
    """The poset file format: element count and covering pairs, canonical JSON."""
    return canon({"n": p.n, "relations": [list(pair) for pair in sorted(p.cover_pairs())]})


def poset_record(name: str, p, k: int | None, source: Any) -> dict:
    width, _ = order.width_with_witness(p)
    return {"name": name, "n": p.n, "width": width, "k": k, "input_sha256": sha256(canon(source))}


# -- certify-wide / certify-deep ------------------------------------------------


def certify_item(name: str, p, k: int, source: Any, workdir: Path) -> Item:
    """Run ``posetff extend`` in-process on a written poset file, then verify its outputs."""
    rec = poset_record(name, p, k, source)
    w = rec["width"]
    stem = workdir / name
    paths = {key: Path(f"{stem}.{key}.json") for key in ("poset", "order", "intervals", "pd")}
    paths["poset"].write_text(poset_text(p))
    argv = ["extend", "--poset", str(paths["poset"]), "--k", str(k),
            "--out-order", str(paths["order"]), "--out-intervals", str(paths["intervals"]),
            "--out-pd", str(paths["pd"])]

    def run():
        for key in ("order", "intervals", "pd"):
            paths[key].unlink(missing_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(res) -> str:
        code, printed = res
        require(code == 0, f"extend exited {code}: {printed.strip()[:200]}")
        texts = {key: paths[key].read_text() for key in ("order", "intervals", "pd")}
        q = jsonio.poset_from_dict(json.loads(texts["order"]))
        intervals = json.loads(texts["intervals"])["intervals"]
        pd = jsonio.pd_from_dict(json.loads(texts["pd"]))
        bound = (2 * k - 3) * w
        require(q.n == p.n and len(intervals) == p.n, "output sizes differ from the input")
        require(all(1 <= lo <= hi <= len(pd.bags) for lo, hi in intervals), "interval outside the bags")
        require(order.is_extension(p, q), "input does not extend the interval order")
        wq, _ = order.width_with_witness(q)
        require(wq <= bound, f"width(q)={wq} exceeds (2k-3)w={bound}")
        require(order.is_interval_order(q), "q is not an interval order")
        g = order.incomparability_graph(p)
        require(extension.validate_path_decomposition(g, pd), "invalid path decomposition")
        require(pd.width <= bound - 1, f"pd width {pd.width} exceeds (2k-3)w-1={bound - 1}")
        require(f"width_q={wq} bound={bound} pd_width={pd.width}" in printed,
                f"report line disagrees with the outputs: {printed.strip()[:200]}")
        return texts["order"] + texts["intervals"] + texts["pd"]

    return Item(name, p.n, run, check, rec)


def setup_certify_wide(seed: int, workdir: Path) -> list[Item]:
    shapes, rng = SplitMix64(SHAPE_SEED), SplitMix64(seed)
    items = []
    for n in range(150, 300, 20):
        iv = rng.shuffled(wide_intervals(shapes, n))
        p = order.interval_order_from_intervals(iv)
        items.append(certify_item(f"interval-wide-n{n}", p, 2, iv, workdir))
    return items


def setup_certify_deep(seed: int, workdir: Path) -> list[Item]:
    shapes, rng = SplitMix64(SHAPE_SEED), SplitMix64(seed)
    items = []
    for i, k in enumerate((3, 3, 4, 4)):
        iv = rng.shuffled(narrow_intervals(shapes, 400, 15))
        p = order.interval_order_from_intervals(iv)
        items.append(certify_item(f"interval-narrow-n400-k{k}-{i}", p, k, iv, workdir))
    for k, w in ((3, 60), (4, 40)):
        p = adversary.stacked(k, w).poset
        items.append(certify_item(f"stacked-k{k}-w{w}", p, k, ["stacked", k, w], workdir))
    return items


# -- ff-sweep -------------------------------------------------------------------


def ff_item(name: str, p, g, perm: list[int], expect: int | None, bound: int | None,
            rec: dict) -> Item:
    """One presentation order through First-Fit on the poset and on its incomparability graph."""
    po = firstfit.PresentationOrder(tuple(perm))

    def run():
        return firstfit.first_fit_chains(p, po), firstfit.first_fit_color(g, po)

    def check(res) -> str:
        chains, coloring = res
        color = [0] * p.n
        for c, cls in enumerate(coloring.classes, start=1):
            for v in cls:
                color[v] = c
        require(list(chains.assignment) == color, "chain and color assignments disagree")
        require(firstfit.validate_ff_partition(p, chains.partition), "not a First-Fit partition")
        require(firstfit.validate_ff_coloring(g, coloring), "not a greedy coloring")
        used = chains.chain_count
        require(expect is None or used == expect, f"{used} chains, expected {expect}")
        require(bound is None or used <= bound, f"{used} chains exceed the bound {bound}")
        return canon({"assignment": list(chains.assignment)})

    return Item(name, p.n, run, check, rec)


def setup_ff_sweep(seed: int, workdir: Path) -> list[Item]:
    shapes, rng = SplitMix64(SHAPE_SEED), SplitMix64(seed)
    bases = []  # (name, poset, chains its natural order forces, k it is k+k-free for, source)
    for k, w in ((5, 30), (4, 50)):
        bases.append((f"stacked-k{k}-w{w}", adversary.stacked(k, w).poset, (k - 1) * (w - 1), k,
                      ["stacked", k, w]))
    for q in (30, 40):
        bases.append((f"kierstead-q{q}", adversary.kierstead(q).poset, q, None, ["kierstead", q]))
    for i in range(2):
        iv = rng.shuffled(wide_intervals(shapes, 600))
        bases.append((f"interval-wide-n600-{i}", order.interval_order_from_intervals(iv), None, 2, iv))
    items = []
    for name, p, forced, k, source in bases:
        rec = poset_record(name, p, k, source)
        bound = 8 * (2 * k - 3) * rec["width"] if k else None
        g = order.incomparability_graph(p)
        orders = [list(range(p.n))] + [rng.shuffled(range(p.n)) for _ in range(7)]
        for j, perm in enumerate(orders):
            expect = forced if j == 0 else None
            rec_j = dict(rec, name=f"{name}/order{j}", order_sha256=sha256(canon(perm)))
            items.append(ff_item(f"{name}/order{j}", p, g, perm, expect, bound, rec_j))
    return items


# -- oracles --------------------------------------------------------------------


def graph_record(name: str, g, edges) -> dict:
    return {"name": name, "n": g.n, "m": len(edges), "input_sha256": sha256(canon(edges))}


def grundy_image_item(name: str, g, edges) -> Item:
    """Grundy coloring, optimal path decomposition, completion and FF-preserving image."""

    def run():
        coloring = firstfit.grundy_coloring(g)
        pd = homomorphism.path_decomposition_exact(g)
        ic = homomorphism.interval_completion(g, pd)
        image, hom = homomorphism.build_ff_image(g, ic, coloring)
        return coloring, pd, image, hom

    def check(res) -> str:
        coloring, pd, image, hom = res
        require(firstfit.validate_ff_coloring(g, coloring), "Grundy witness is not greedy")
        require(extension.validate_path_decomposition(g, pd), "invalid exact decomposition")
        require(homomorphism.validate_homomorphism(g, image.h, hom), "quotient map is not a homomorphism")
        require(homomorphism.interval_clique_number(image.intervals) <= pd.width + 1,
                "image clique number exceeds pathwidth + 1")
        require(len(image.classes) == coloring.color_count, "image lost color classes")
        require(coloring.color_count <= 8 * (pd.width + 1), "Grundy number exceeds 8(pw+1)")
        return canon({
            "classes": [sorted(c) for c in coloring.classes],
            "bags": [list(b) for b in pd.bags],
            "image": [list(iv) for iv in image.intervals],
            "map": list(hom.mapping),
        })

    return Item(name, g.n, run, check, graph_record(name, g, edges))


def grundy_bound_item(name: str, g, sub, edges) -> Item:
    """grundy(sub) <= 8(pathwidth(sub) + 1) <= 8(pathwidth(g) + 1); sub is an induced subgraph."""

    def run():
        return homomorphism.pathwidth_exact(g), firstfit.grundy_number(sub)

    def check(res) -> str:
        pw, gamma = res
        require(0 <= pw < g.n, f"pathwidth {pw} out of range")
        require(1 <= gamma <= sub.n, f"Grundy number {gamma} out of range")
        require(gamma <= 8 * (pw + 1), f"Grundy number {gamma} exceeds 8(pw+1) = {8 * (pw + 1)}")
        return canon({"grundy": gamma, "pathwidth": pw})

    return Item(name, g.n, run, check, graph_record(name, g, edges))


def kk_item(name: str, p, k: int, source: Any) -> Item:
    """The complete k+k search on an input that is k+k-free by construction.

    For k = 2 the check also confirms the answer with the 2+2 scan of
    ``is_interval_order``, an independent algorithm.
    """

    def run():
        return order.find_k_plus_k(p, k)

    def check(res) -> str:
        require(res is None, f"k+k search reported a witness on a {k}+{k}-free input")
        require(k != 2 or order.is_interval_order(p), "input is not 2+2-free")
        return canon({"k": k, "witness": None})

    return Item(name, p.n, run, check, poset_record(name, p, k, source))


def setup_oracles(seed: int, workdir: Path) -> list[Item]:
    # sizes stay within the seed's exact limits: Grundy 10 vertices, pathwidth 14
    shapes, rng = SplitMix64(SHAPE_SEED), SplitMix64(seed)
    items = []
    for i in range(12):
        edges = relabel(rng.shuffled(range(10)), random_edges(shapes, all_pairs(10), 22))
        items.append(grundy_image_item(f"grundy-image-n10-{i}", order.Graph(10, edges), edges))
    extra = [(u, v) for u, v in all_pairs(14) if v >= 10]
    for i in range(12):
        # vertices 0-9 stay 0-9, so the Grundy side is the induced subgraph on them
        perm = rng.shuffled(range(10)) + [10 + j for j in rng.shuffled(range(4))]
        base = relabel(perm, random_edges(shapes, all_pairs(10), 22))
        edges = base + relabel(perm, random_edges(shapes, extra, 12))
        items.append(grundy_bound_item(f"grundy-bound-n14-{i}", order.Graph(14, edges),
                                       order.Graph(10, base), edges))
    for k, w in ((3, 60), (5, 20)):
        p = adversary.stacked(k, w).poset
        items.append(kk_item(f"kk-stacked-k{k}-w{w}", p, k, ["stacked", k, w]))
    for n in (200, 300):
        iv = rng.shuffled(wide_intervals(shapes, n))
        items.append(kk_item(f"kk-interval-n{n}", order.interval_order_from_intervals(iv), 2, iv))
    return items


WORKLOADS: dict[str, Callable[[int, Path], list[Item]]] = {
    "certify-wide": setup_certify_wide,
    "certify-deep": setup_certify_deep,
    "ff-sweep": setup_ff_sweep,
    "oracles": setup_oracles,
}
