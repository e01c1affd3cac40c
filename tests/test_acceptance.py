"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist.
Criteria with stated time budgets assert them; the stochastic-regime study
(criterion 11) is reported without a pass/fail accuracy bar.
"""

from __future__ import annotations

import csv
import io
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import (
    FIGURE_LEFT_TRUSSNESS,
    FIGURE_RIGHT_TRUSSNESS,
    edge_list_text,
    figure_left_graph,
    gadget_graphs,
)
from trusslab.approx import estimate_trussness, hypergraph_degeneracy_order, threshold_rounds
from trusslab.cli import main
from trusslab.gadgets import bipartite_apex, blowup, complete_graph
from trusslab.graph import degeneracy_order
from trusslab.io import write_edge_list
from trusslab.sampling import (
    HypergraphSample,
    geometric_skip,
    gnp_random_graph,
    sample_wedges_fixed_p,
)
from trusslab.triangles import compute_supports, list_triangles
from trusslab.truss import truss_decomposition, trussness


def report(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS - {text}")


def best_time(fn, repeats=5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_figure_trussness():
    """Reference-figure graphs decompose to their stated trussness, fast."""
    left = figure_left_graph()
    right = bipartite_apex(4)
    trussness(left)  # warm up
    assert trussness(left) == FIGURE_LEFT_TRUSSNESS == 2
    assert trussness(right) == FIGURE_RIGHT_TRUSSNESS == 1
    assert best_time(lambda: trussness(left)) < 0.001
    assert best_time(lambda: trussness(right)) < 0.001
    report(1, "figure graphs: trussness 2 and 1, under 1 ms each")


def test_criterion_02_clique_law():
    cliques = [complete_graph(k) for k in range(3, 13)]
    results = {}

    def run():
        for k, g in zip(range(3, 13), cliques):
            results[k] = trussness(g)

    elapsed = best_time(run, repeats=3)
    assert all(results[k] == k - 2 for k in range(3, 13))
    assert elapsed < 0.010
    report(2, "trussness(K_k) = k-2 for k in 3..12, under 10 ms total")


def test_criterion_03_blowup_amplification():
    start = time.perf_counter()
    cases = 0
    for i in range(50):
        g = gnp_random_graph(4 + i % 5, (0.3, 0.5, 0.7)[i % 3], 3000 + i)
        t = trussness(g)
        triangles = compute_supports(g).triangle_count
        for q in (2, 3):
            mat = blowup(g, q).materialize()
            assert trussness(mat) == q * t
            assert compute_supports(mat).triangle_count == q**3 * triangles
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 100
    assert elapsed < 30
    report(3, f"blow-up amplification exact on 100 cases in {elapsed:.1f}s")


def _small_edge_corpus(count: int, max_m: int):
    out = []
    i = 0
    while len(out) < count:
        g = gnp_random_graph(5 + i % 4, (0.3, 0.4, 0.5)[i % 3], 9000 + i)
        i += 1
        if g.m <= max_m:
            out.append(g)
    return out


def test_criterion_04_subset_oracle_decomposition():
    start = time.perf_counter()
    for g in _small_edge_corpus(200, max_m=15):
        decomp, _ = truss_decomposition(g)
        assert decomp.edge_trussness == oracles.trussness_by_subsets(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(4, f"peeling matches the exponential subset oracle on 200 graphs in {elapsed:.1f}s")


def test_criterion_05_full_hypergraph_degeneracy():
    start = time.perf_counter()
    for i in range(200):
        g = gnp_random_graph(4 + i % 7, (0.3, 0.5, 0.7)[i % 3], 11000 + i)
        hyperedges = []
        list_triangles(g, lambda t: hyperedges.append(t.edges))
        sample = HypergraphSample(g.m, hyperedges, 1.0, True, 0)
        order = hypergraph_degeneracy_order(sample)
        assert order.degeneracy == trussness(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(5, f"full-hypergraph degeneracy equals trussness on 200 graphs in {elapsed:.1f}s")


def test_criterion_06_density_sandwich(corpus):
    start = time.perf_counter()
    checked_upper = 0
    for name, g in corpus:
        t = trussness(g)
        if g.m > 0:
            assert Fraction(compute_supports(g).triangle_count, g.m) <= t, name
        if 0 < g.n <= 7:
            best = oracles.max_triangle_density(g)
            assert t <= 3 * best or (t == 0 and best == 0), name
            assert best <= t, name  # lower half of the sandwich, exhaustively
            checked_upper += 1
    elapsed = time.perf_counter() - start
    assert checked_upper >= 10
    assert elapsed < 300
    report(6, f"density sandwich held corpus-wide ({checked_upper} exhaustive) in {elapsed:.1f}s")


def test_criterion_07_sampler_distribution():
    start = time.perf_counter()
    g = complete_graph(6)
    info = degeneracy_order(g)
    all_triangles = sorted(sample_wedges_fixed_p(g, info, 1.0, 0).hyperedges)
    assert len(all_triangles) == 20
    index = {h: i for i, h in enumerate(all_triangles)}
    trials = 10_000
    hits = np.zeros((trials, 20), dtype=np.int8)
    for seed in range(trials):
        for h in sample_wedges_fixed_p(g, info, 0.5, seed).hyperedges:
            hits[seed, index[h]] = 1
    freq = hits.mean(axis=0)
    assert np.all(np.abs(freq - 0.5) <= 0.02)
    cov = hits.T.astype(np.float64) @ hits / trials - np.outer(freq, freq)
    off_diagonal = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off_diagonal)) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(7, f"per-triangle frequency 0.5 +- 0.02 and covariance within 0.01 in {elapsed:.1f}s")


def test_criterion_08_geometric_variate_mean():
    start = time.perf_counter()
    rng = random.Random(20240601)
    n = 100_000
    mean = sum(geometric_skip(0.5, rng) for _ in range(n)) / n
    elapsed = time.perf_counter() - start
    assert abs(mean - 2.0) <= 0.05
    assert elapsed < 5
    report(8, f"geometric mean {mean:.4f} within 2.0 +- 0.05 in {elapsed:.1f}s")


def test_criterion_09_threshold_sandwich(corpus):
    start = time.perf_counter()
    shrink = Fraction(3) / Fraction("3.1")
    for name, g in corpus:
        rounds = threshold_rounds(g, 0.1)
        estimate = max((r.density for r in rounds), default=Fraction(0))
        t = trussness(g)
        assert estimate <= t, name
        assert t <= Fraction("3.1") * estimate or t == 0, name
        for before, after in zip(rounds, rounds[1:]):
            assert after.edges <= shrink * before.edges, name
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(9, f"(3+eps) sandwich and shrink rate held corpus-wide in {elapsed:.1f}s")


def test_criterion_10_deterministic_regime_exactness():
    start = time.perf_counter()
    instances = [
        (f"gnp_{i}", gnp_random_graph(4 + i % 7, (0.2, 0.3, 0.4, 0.5)[i % 4], 7000 + i))
        for i in range(100)
    ]
    instances.extend(gadget_graphs())
    for name, g in instances:
        t = trussness(g)
        for eps in (0.3, 0.9):
            result = estimate_trussness(g, eps, seed=1)
            assert result.all_rounds_fell_back, name
            assert result.estimate == t, (name, eps, t, str(result.estimate))
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    report(10, f"fallback regime exact on {len(instances)} graphs x 2 epsilons in {elapsed:.0f}s")


def test_criterion_11_stochastic_regime_report(tmp_path, capsys):
    start = time.perf_counter()
    base = gnp_random_graph(10, 0.8, 4242)
    study = blowup(base, 4).materialize()
    corpus_dir = tmp_path / "stochastic"
    corpus_dir.mkdir()
    with open(corpus_dir / "blowup4_dense.edges", "w", encoding="utf-8") as fh:
        write_edge_list(fh, study)
    code = main(
        [
            "bench",
            "--corpus",
            str(corpus_dir),
            "--estimators",
            "approx",
            "--epsilons",
            "0.5",
            "--zetas",
            "4",
            "--seeds",
            "0:100",
            "--no-timing",
            "--out",
            str(tmp_path / "bench.csv"),
        ]
    )
    capsys.readouterr()
    assert code == 0
    with open(tmp_path / "bench.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    runs = [r for r in rows if r["kind"] == "run"]
    summary = [r for r in rows if r["kind"] == "summary"][0]
    assert len(runs) == 100
    fraction = float(summary["within"])
    assert 0.0 <= fraction <= 1.0
    fell_back = sum(r["fell_back"] == "1" for r in runs)
    elapsed = time.perf_counter() - start
    report(
        11,
        f"zeta=4 eps=0.5 study: fraction within (1+-eps) = {fraction:.2f}, "
        f"mean ratio = {summary['ratio']}, {fell_back}/100 runs fell back "
        f"(no pass/fail bar) in {elapsed:.0f}s",
    )


def test_criterion_12_seed_determinism(tmp_path, capsys):
    start = time.perf_counter()
    k5 = tmp_path / "k5.edges"
    k5.write_text(edge_list_text(complete_graph(5)))
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "k5.edges").write_text(edge_list_text(complete_graph(5)))
    commands = [
        ["sample", "--epsilon", "0.5", "--zeta", "0.05", "--seed", "7", str(k5)],
        ["truss", "approx", "--epsilon", "0.5", "--zeta", "0.05", "--seed", "7", str(k5)],
        ["truss", "approx", "--epsilon", "0.3", "--seed", "7", str(k5)],
        ["gen", "random", "40", "0.3", "--seed", "7"],
        ["gadget", "spurious", "-x", "2", str(k5)],
        [
            "bench", "--corpus", str(corpus_dir), "--epsilons", "0.4",
            "--zetas", "0.05,110", "--seeds", "0:3", "--no-timing",
        ],
    ]
    for argv in commands:
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second and first, argv
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(12, f"byte-identical stdout for {len(commands)} seeded commands in {elapsed:.1f}s")
