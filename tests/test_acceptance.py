"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

import csv
import time
from contextlib import contextmanager

from posetff import (
    KkWitness,
    build_ff_image,
    certify,
    find_k_plus_k,
    first_fit_chains,
    gen_interval_order,
    gen_kk_free,
    grundy_coloring,
    grundy_number,
    incomparability_graph,
    interval_clique_number,
    interval_completion,
    is_extension,
    is_interval_order,
    kierstead,
    path_decomposition_exact,
    pathwidth_exact,
    stacked,
    validate_ff_coloring,
    validate_homomorphism,
    validate_path_decomposition,
    width_with_witness,
)
from posetff.cli import main as cli_main
from helpers import (
    complete_bipartite_graph,
    complete_multipartite_graph,
    cycle_graph,
    gen_graph,
    image_coloring,
    ladder_assignment,
    minus_perfect_matching,
    path_graph,
    slide_decomposition,
    slide_order,
)


@contextmanager
def criterion(name, limit_seconds):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s, limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"{name} exceeded {limit_seconds}s ({elapsed:.2f}s)"


def test_criterion_01_kierstead_exactness():
    with criterion("1 kierstead-exactness", 5.0):
        for q in range(2, 41):
            kp = kierstead(q)
            res = first_fit_chains(kp.poset, kp.natural_order)
            assert res.chain_count == q
            assert res.assignment == ladder_assignment(q, 1)


def test_criterion_02_stacked_exactness():
    with criterion("2 stacked-exactness", 30.0):
        for k in range(3, 11):
            for w in range(2, 11):
                sp = stacked(k, w)
                res = first_fit_chains(sp.poset, sp.natural_order)
                assert res.chain_count == (k - 1) * (w - 1)
                assert res.assignment == ladder_assignment(k - 1, w - 1)
                assert width_with_witness(sp.poset)[0] == w


def test_criterion_03_adversaries_are_pattern_free():
    with criterion("3 adversary-kk-freeness", 60.0):
        for k in (3, 4):
            for w in (2, 3, 4):
                assert find_k_plus_k(stacked(k, w).poset, k) is None
        for q in range(2, 6):
            assert find_k_plus_k(kierstead(q).poset, q + 1) is None


_EXTENSION_RUNS = []


def _extension_runs():
    """200 interval orders (k=2, n <= 60) and 50 k+k-free posets (k=3, n <= 20)."""
    if not _EXTENSION_RUNS:
        for i in range(200):
            _EXTENSION_RUNS.append((gen_interval_order(i, 10 + i % 51), 2))
        for i in range(50):
            _EXTENSION_RUNS.append((gen_kk_free(1000 + i, 12 + i % 9, 3), 3))
    return _EXTENSION_RUNS


def test_criterion_04_extension_certificates():
    with criterion("4 extension-certificates", 120.0):
        for p, k in _extension_runs():
            cert = certify(p, k)
            assert not isinstance(cert, KkWitness)
            q = slide_order(p, cert)
            w, _ = width_with_witness(p)
            wq, _ = width_with_witness(q)
            assert is_extension(p, q)
            assert wq <= (2 * k - 3) * w
            assert is_interval_order(q)


def test_criterion_05_path_decomposition_certificates():
    with criterion("5 path-decomposition-certificates", 120.0):
        for p, k in _extension_runs():
            cert = certify(p, k)
            assert not isinstance(cert, KkWitness)
            pd = slide_decomposition(cert)
            w, _ = width_with_witness(p)
            assert validate_path_decomposition(incomparability_graph(p), pd)
            assert pd.width <= (2 * k - 3) * w - 1


def _quotient_cases():
    """100 seeded graphs, n <= 10, paired with an exact or pipeline decomposition."""
    cases = []
    for i in range(70):
        g = gen_graph(i, 4 + i % 7, (0.2, 0.35, 0.5, 0.65)[i % 4])
        cases.append((g, path_decomposition_exact(g)))
    for i in range(30):
        p = gen_interval_order(500 + i, 5 + i % 6)
        g = incomparability_graph(p)
        cert = certify(p, 2)
        cases.append((g, slide_decomposition(cert)))
    return cases


def test_criterion_06_homomorphism_suite():
    with criterion("6 ff-homomorphism-suite", 180.0):
        for g, pd in _quotient_cases():
            ic = interval_completion(g, pd)
            best = grundy_coloring(g)  # Grundy-optimal input coloring
            image, hom = build_ff_image(g, ic, best)
            assert validate_homomorphism(g, image.h, hom)
            assert interval_clique_number(image.intervals) <= pd.width + 1
            assert validate_ff_coloring(image.h, image_coloring(image))
            assert len(image.classes) == best.color_count
            # hence FF(H) >= c = FF(G): the transported classes witness it


FIXTURE_N9 = [(seed, 3 + seed % 7, (0.2, 0.4, 0.6, 0.8)[seed % 4]) for seed in range(36)]


def test_criterion_07_ff_bounded_by_pathwidth():
    with criterion("7 ff-vs-pathwidth", 120.0):
        graphs = [gen_graph(seed, n, density) for seed, n, density in FIXTURE_N9]
        graphs += [
            path_graph(4),
            cycle_graph(4),
            complete_bipartite_graph(3, 3),
            minus_perfect_matching(3),
            gen_graph(99, 9, 0.5),
        ]
        for g in graphs:
            assert grundy_number(g) <= 8 * (pathwidth_exact(g) + 1)


def test_criterion_08_multipartite_pathwidth():
    with criterion("8 multipartite-pathwidth", 10.0):
        expected = {(2, 2): 1, (2, 3): 2, (3, 2): 2, (3, 3): 4}
        for (k, w), value in expected.items():
            g = complete_multipartite_graph([k - 1] * w)
            assert pathwidth_exact(g) == value == (k - 1) * (w - 1)


def test_criterion_09_bench_end_to_end(tmp_path):
    with criterion("9 bench-global-bound", 180.0):
        for k in (2, 3, 4):
            for w in (2, 3, 4):
                out = tmp_path / f"bench_{k}_{w}.csv"
                code = cli_main([
                    "bench", "--k", str(k), "--w", str(w), "--trials", "20",
                    "--orders", "50", "--seed", str(100 * k + w), "--csv", str(out),
                ])
                assert code == 0
                with open(out, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                assert len(rows) == 20
                for row in rows:
                    ff, width = int(row["ff_chains"]), int(row["width"])
                    assert ff <= int(row["bound"]) == 8 * (2 * k - 3) * width
                    if k == 2:
                        assert ff <= 8 * width


def test_criterion_10_micro_facts():
    with criterion("10 micro-facts", 30.0):
        assert grundy_number(path_graph(4)) == 3
        assert grundy_number(cycle_graph(4)) == 2
        assert grundy_number(complete_bipartite_graph(3, 3)) == 2
        assert grundy_number(minus_perfect_matching(3)) == 3
