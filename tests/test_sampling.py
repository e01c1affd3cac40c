import math
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trusslab import sampling
from trusslab.gadgets import bipartite_apex, blowup, complete_graph, ladder_gadget
from trusslab.graph import build_graph, degeneracy_order, forward_wedge_count
from trusslab.sampling import (
    HypergraphSample,
    SamplerConfig,
    _skip_pass,
    effective_epsilon,
    fallback_certain,
    geometric_skip,
    gnp_random_graph,
    initial_probability,
    sample_hypergraph,
    sample_size_target,
    sample_wedges_fixed_p,
)
from trusslab.triangles import (
    compute_supports,
    forward_rows,
    forward_triangles,
    list_triangles,
    sorted3,
)


# -------------------------------------------------------- geometric skip ----


def test_skip_p1_always_one():
    rng = random.Random(3)
    assert all(geometric_skip(1.0, rng) == 1 for _ in range(100))


def test_skip_rejects_bad_p():
    rng = random.Random(0)
    for p in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            geometric_skip(p, rng)


def test_skip_mean_matches_half():
    rng = random.Random(123)
    n = 20_000
    mean = sum(geometric_skip(0.5, rng) for _ in range(n)) / n
    assert abs(mean - 2.0) < 0.05


def test_skip_tail_probability():
    # P(skip > 40) = 0.9^40 for p = 0.1
    rng = random.Random(7)
    n = 100_000
    tail = sum(geometric_skip(0.1, rng) > 40 for _ in range(n)) / n
    assert abs(tail - 0.9**40) < 0.005


@given(st.integers(min_value=0, max_value=10_000))
def test_skip_support_is_positive(seed):
    rng = random.Random(seed)
    assert geometric_skip(0.25, rng) >= 1


@pytest.mark.parametrize("p", [5e-324, sys.float_info.min])
def test_skip_at_tiny_p_passes_everything(p):
    """Below p ~ 2e-307 the float ln U / ln(1-p) can overflow.  The skips
    are then taken exactly, one draw each, and pass every serial in reach,
    so a fixed-p pass and G(n, p) keep nothing."""
    rng, ref = random.Random(4), random.Random(4)
    assert all(geometric_skip(p, rng) > 10**290 for _ in range(200))
    for _ in range(200):
        ref.random()
    assert rng.getstate() == ref.getstate()
    g = complete_graph(6)
    assert sample_wedges_fixed_p(g, degeneracy_order(g), p, 0).hyperedges == []
    assert gnp_random_graph(50, p, 3).m == 0


# --------------------------------------------------------------- fixed p ----


def test_fixed_p1_takes_every_triangle():
    g = complete_graph(4)
    info = degeneracy_order(g)
    s = sample_wedges_fixed_p(g, info, 1.0, 99)
    assert len(s.hyperedges) == 4
    assert len(set(s.hyperedges)) == 4


def test_fixed_tiny_p_is_empty():
    g = complete_graph(4)
    info = degeneracy_order(g)
    for seed in range(100):
        assert sample_wedges_fixed_p(g, info, 1e-9, seed).hyperedges == []


def test_fixed_p_rejects_out_of_range():
    g = complete_graph(4)
    info = degeneracy_order(g)
    for p in (0.0, 1.2, -0.1, math.nan):
        with pytest.raises(ValueError, match="p must be in"):
            sample_wedges_fixed_p(g, info, p, 0)


def test_fixed_p_binomial_frequency_on_k3():
    g = complete_graph(3)
    info = degeneracy_order(g)
    hits = sum(
        bool(sample_wedges_fixed_p(g, info, 0.3, seed).hyperedges)
        for seed in range(10_000)
    )
    assert abs(hits - 3000) <= 150


def test_open_wedges_are_rejected():
    g = bipartite_apex(4)
    info = degeneracy_order(g)
    triangles = set()
    list_triangles(g, lambda t: triangles.add(t.edges))
    s = sample_wedges_fixed_p(g, info, 1.0, 0)
    assert set(s.hyperedges) == triangles


def test_hyperedges_overlap_in_at_most_one_vertex():
    g = gnp_random_graph(9, 0.6, 17)
    info = degeneracy_order(g)
    s = sample_wedges_fixed_p(g, info, 1.0, 0)
    edges = s.hyperedges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            assert len(set(edges[i]) & set(edges[j])) <= 1


# ----------------------------------------------------------- pass oracle ----


def _gnm(n: int, m: int, seed: int):
    pairs = list(combinations(range(n), 2))
    return build_graph(random.Random(seed).sample(pairs, m), node_count=n)


def _star_with_chords(n: int, p: float, seed: int):
    """A star on node 0 plus sparse chords: most nodes have fewer than two
    later neighbors and center no wedge."""
    rng = random.Random(seed)
    edges = [(0, v) for v in range(1, n)]
    edges += [(u, v) for u, v in combinations(range(1, n), 2) if rng.random() < p]
    return build_graph(edges)


def _rows(g):
    info = degeneracy_order(g)
    return list(forward_rows(g, info.order, info.positions))


def _square_of_path(n: int):
    """Each node joined to the next two: every forward row holds exactly
    two later neighbors, so every row is a single pair."""
    return build_graph([(u, v) for u in range(n) for v in (u + 1, u + 2) if v < n])


def _segment_end_landings(rows, p: float, seed: int) -> int:
    """Probes, under the skips a pass at (p, seed) draws, that land on the
    first pair of the segment right after the previous probe's segment in
    the same row, i.e. exactly where that segment ends."""
    rng = random.Random(seed)
    spans = []  # (row, i) of every wedge serial, pairs in lexicographic order
    for r, (_, later, _) in enumerate(rows):
        spans.extend((r, i) for i in range(len(later) - 1) for _ in range(i + 1, len(later)))
    landings, prev = 0, None
    serial = geometric_skip(p, rng) - 1
    while serial < len(spans):
        r, i = spans[serial]
        first = serial == 0 or spans[serial - 1] != (r, i)
        landings += first and prev == (r, i - 1)
        prev = (r, i)
        serial += geometric_skip(p, rng)
    return landings


def test_skip_pass_matches_reference():
    """Segment walk with closed-form pairs against the pass that scans for
    each serial: equal samples, and equal RNG states after the pass, so the
    next pass of the doubling loop draws the same numbers too.  Long rows
    at high p put many probes in one segment and step exactly onto
    segment ends; rows of one pair enter a new segment on every probe."""
    star = _star_with_chords(40, 0.02, 4)
    assert len(_rows(star)) < star.n // 2
    strip = _square_of_path(60)
    assert len(_rows(strip)) == strip.n - 2
    assert all(len(later) == 2 for _, later, _ in _rows(strip))
    graphs = [_gnm(30, 60, 1), _gnm(30, 200, 2), _gnm(30, 400, 3), star,
              complete_graph(8), blowup(complete_graph(4), 2).materialize(), strip]
    cases = [(g, p) for g in graphs for p in (1e-4, 0.05, 0.3, 0.9, 1.0)]
    long_rows = [complete_graph(30), _gnm(40, 600, 5)]
    cases += [(g, p) for g in long_rows for p in (0.5, 0.7)]
    for ci, (g, p) in enumerate(cases):
        rows = _rows(g)
        for seed in range(3):
            rng, ref = random.Random(seed), random.Random(seed)
            want = oracles.reference_skip_pass(g, rows, p, ref)
            assert _skip_pass(g, rows, p, rng) == want, (ci, p, seed)
            assert rng.getstate() == ref.getstate(), (ci, p, seed)
    for g in long_rows:
        assert max(len(later) for _, later, _ in _rows(g)) >= 15
        assert all(_segment_end_landings(_rows(g), p, 0) >= 20 for p in (0.5, 0.7))


class _Unwalkable(list):
    def __iter__(self):
        raise AssertionError("the pass walked the forward rows")


@pytest.mark.parametrize("p", [5e-324, 1e-300])
def test_pass_past_every_wedge_walks_no_row(p):
    """At a p so small that the first skip passes all W wedges, the pass
    returns without iterating the rows, with the reference's RNG state."""
    g = complete_graph(8)
    rows = _rows(g)
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        assert oracles.reference_skip_pass(g, rows, p, ref) == []
        assert _skip_pass(g, _Unwalkable(rows), p, rng) == []
        assert rng.getstate() == ref.getstate(), seed


def test_doubling_loop_matches_reference_pass(monkeypatch):
    g = _gnm(120, 3000, 7)
    info = degeneracy_order(g)
    cfg = SamplerConfig(epsilon=0.5, zeta=0.05, seed=9)
    got = sample_hypergraph(g, info, cfg)
    passes = []

    def reference(g, rows, p, rng):
        passes.append(p)
        return oracles.reference_skip_pass(g, rows, p, rng)

    monkeypatch.setattr(sampling, "_skip_pass", reference)
    assert sample_hypergraph(g, info, cfg) == got
    assert len(passes) >= 2 and not got.fell_back_to_exact


# -------------------------------------------------------- doubling loop ----


def test_huge_zeta_forces_exact_fallback():
    # The fallback keeps every triangle, in forward-wedge listing order.
    graphs = [
        complete_graph(5),
        bipartite_apex(4),
        ladder_gadget(6),
        gnp_random_graph(40, 0.3, seed=2),
    ]
    for g in graphs:
        info = degeneracy_order(g)
        s = sample_hypergraph(g, info, SamplerConfig(epsilon=0.5, zeta=1e6, seed=0))
        assert s.fell_back_to_exact
        assert s.realized_p == 1.0
        assert s.hyperedges == [sorted3(x, y, z) for *_, x, y, z in forward_triangles(g)]
        assert len(s.hyperedges) == compute_supports(g).triangle_count > 0


def test_triangle_free_gives_empty_hyperedges():
    g = build_graph([(u, v + 3) for u in range(3) for v in range(3)])
    info = degeneracy_order(g)
    s = sample_hypergraph(g, info, SamplerConfig(epsilon=0.5, zeta=0.01, seed=4))
    assert s.hyperedges == []


def test_wedge_free_graph_falls_back_immediately():
    g = build_graph([(0, 1)])
    info = degeneracy_order(g)
    s = sample_hypergraph(g, info, SamplerConfig(epsilon=0.5, zeta=1.0, seed=0))
    assert s.fell_back_to_exact and s.hyperedges == []


def test_doubling_exit_size_reaches_target():
    from trusslab.gadgets import blowup

    g = blowup(complete_graph(5), 2).materialize()
    info = degeneracy_order(g)
    cfg = SamplerConfig(epsilon=0.5, zeta=0.05, seed=11)
    s = sample_hypergraph(g, info, cfg)
    assert not s.fell_back_to_exact
    eps = effective_epsilon(cfg.epsilon, g.n)
    assert len(s.hyperedges) >= sample_size_target(g.m, eps, cfg.zeta)
    # the realized p is the initial formula value times a power of two
    ratio = s.realized_p / initial_probability(
        g.m, forward_wedge_count(g, info), eps, cfg.zeta
    )
    assert abs(ratio - 2 ** round(math.log2(ratio))) < 1e-9


def test_fallback_certain_predicts_the_sampler():
    """Below the target size the sampler always falls back, whatever the
    seed; at or above it the first p is below 1 and the passes decide."""
    graphs = [complete_graph(4), bipartite_apex(3), gnp_random_graph(12, 0.5, 8),
              gnp_random_graph(30, 0.4, 2), gnp_random_graph(40, 0.6, 3)]
    certain = uncertain = 0
    for g in graphs:
        info = degeneracy_order(g)
        T = compute_supports(g).triangle_count
        W = forward_wedge_count(g, info)
        for eps in (0.1, 0.5, 0.9):
            for zeta in (110.0, 1.0, 0.05, 0.01, 0.001):
                cfg = SamplerConfig(epsilon=eps, zeta=zeta, seed=4)
                if fallback_certain(g.n, g.m, T, eps, zeta):
                    certain += 1
                    assert sample_hypergraph(g, info, cfg).fell_back_to_exact
                else:
                    uncertain += 1
                    eff = effective_epsilon(eps, g.n)
                    assert initial_probability(g.m, W, eff, zeta) < 1.0
    assert certain and uncertain


def test_sampled_hyperedges_are_real_triangles():
    g = gnp_random_graph(12, 0.5, 8)
    info = degeneracy_order(g)
    triangles = set()
    list_triangles(g, lambda t: triangles.add(t.edges))
    s = sample_hypergraph(g, info, SamplerConfig(epsilon=0.9, zeta=0.02, seed=5))
    assert set(s.hyperedges) <= triangles
    assert len(set(s.hyperedges)) == len(s.hyperedges)


def test_sampling_is_reproducible():
    g = gnp_random_graph(10, 0.6, 1)
    info = degeneracy_order(g)
    cfg = SamplerConfig(epsilon=0.4, zeta=0.05, seed=77)
    a = sample_hypergraph(g, info, cfg)
    b = sample_hypergraph(g, info, cfg)
    assert a == b
    c = sample_hypergraph(g, info, SamplerConfig(epsilon=0.4, zeta=0.05, seed=78))
    assert c.hyperedges != a.hyperedges or c.rng_seed != a.rng_seed


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(epsilon=0.5, zeta=0.0)


@pytest.mark.parametrize("zeta", [math.nan, math.inf])
def test_sampler_config_rejects_non_finite_zeta(zeta):
    with pytest.raises(ValueError, match="finite"):
        SamplerConfig(epsilon=0.5, zeta=zeta)


def test_zeta_whose_first_p_underflows_is_rejected():
    """On K60 at epsilon 0.9, zeta = 5e-324 puts the first p below the least
    subnormal float: no pass could keep anything, and doubling a p of 0
    never reaches 1."""
    g = complete_graph(60)
    cfg = SamplerConfig(epsilon=0.9, zeta=5e-324)
    with pytest.raises(ValueError, match="zeta=5e-324"):
        sample_hypergraph(g, degeneracy_order(g), cfg)


# ------------------------------------------------------------ generation ----


def test_gnp_extremes():
    assert gnp_random_graph(6, 0.0, 3).m == 0
    assert gnp_random_graph(6, 0.0, 3).n == 6
    full = gnp_random_graph(6, 1.0, 3)
    assert full.m == 15


def test_gnp_matches_reference_skip_loop():
    cases = [(2, 0.25), (10, 0.5), (25, 0.1), (40, 0.7), (30, 0.02), (12, 1.0)]
    for n, p in cases:
        for seed in range(4):
            want = oracles.reference_gnp_edges(n, p, seed)
            assert list(gnp_random_graph(n, p, seed).edges()) == want, (n, p, seed)


def test_gnp_determinism():
    a = gnp_random_graph(30, 0.3, 5)
    b = gnp_random_graph(30, 0.3, 5)
    assert list(a.edges()) == list(b.edges())
    assert list(gnp_random_graph(30, 0.3, 6).edges()) != list(a.edges())


def test_gnp_edge_count_concentrates():
    n, p = 50, 0.2
    expected = math.comb(n, 2) * p
    sigma = math.sqrt(math.comb(n, 2) * p * (1 - p))
    for seed in range(100):
        m = gnp_random_graph(n, p, seed).m
        assert abs(m - expected) <= 4 * sigma


def test_gnp_per_pair_frequency():
    hits = sum(gnp_random_graph(2, 0.25, seed).m for seed in range(4000))
    assert abs(hits - 1000) <= 110
