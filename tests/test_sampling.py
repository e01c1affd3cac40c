import math
import os
import random
import sys
from collections import Counter
from itertools import combinations, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import marker_pass, traced_bytes
from trusslab import gadgets, graph, sampling
from trusslab.approx import _round_order
from trusslab.gadgets import (
    add_spurious_cliques,
    augmented_sizes,
    bipartite_apex,
    blowup,
    complete_graph,
    disjoint_union,
    ladder_gadget,
)
from trusslab.graph import build_graph, degeneracy_order, forward_wedge_count
from trusslab.io import load_graph
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
    list_triangles,
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
    s = sample_wedges_fixed_p(g, info, 1.0, 0)
    assert set(s.hyperedges) == set(list_triangles(g))


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
def test_pass_past_every_wedge_walks_no_row(p, monkeypatch):
    """At a p so small that the first skip passes all W wedges, the pass
    returns without iterating the rows, with the reference's RNG state; a
    marker round's pass, whose wedges include its cliques', walks neither
    G's rows nor the cliques' and leaves every marker degree at 0."""
    g = complete_graph(8)
    rows = _rows(g)
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        assert oracles.reference_skip_pass(g, rows, p, ref) == []
        assert _skip_pass(g, _Unwalkable(rows), p, rng) == []
        assert rng.getstate() == ref.getstate(), seed

    def unwalked(*args):
        raise AssertionError("the pass walked a stretch of rows")

    monkeypatch.setattr(sampling, "_walk", unwalked)
    for g in _working_graphs()[:2]:
        rounds = sampling._MarkerRounds(g)
        for x in (1, math.ceil(2 * math.sqrt(g.m))):
            aug = add_spurious_cliques(g, x).graph
            rng, ref = random.Random(x), random.Random(x)
            assert oracles.reference_skip_pass(aug, _rows(aug), p, ref) == []
            kept, marks = marker_pass(rounds, x, p, rng)
            assert kept == [] and marks and not any(marks)
            assert rng.getstate() == ref.getstate(), x


def test_doubling_loop_matches_reference_pass(monkeypatch):
    """The doubling loop, with the passes that its probe count decides,
    keeps what walking every pass with the reference pass keeps.  At a
    target of ~3 probes some counted passes reach it, so rng is restored
    and the pass walks."""
    walks, counted = [], []
    probe_count = sampling._probe_count

    def reference(g, rows, p, rng, block=sampling._NO_BLOCK, marks=None):
        assert block.count == 0 and not marks
        walks.append(p)
        return oracles.reference_skip_pass(g, rows, p, rng)

    def counting(wedges, p, rng, stop):
        count = probe_count(wedges, p, rng, stop)
        counted.append((p, count < stop))
        return count

    monkeypatch.setattr(sampling, "_skip_pass", reference)
    monkeypatch.setattr(sampling, "_probe_count", counting)
    g = _gnm(120, 3000, 7)
    cfg = SamplerConfig(epsilon=0.5, zeta=0.05, seed=9)
    got = sample_hypergraph(g, degeneracy_order(g), cfg)
    assert got == oracles.reference_sample_hypergraph(g, cfg)
    assert not got.fell_back_to_exact
    failed = [p for p, decided in counted if decided]
    assert failed and walks and len(failed) + len(walks) >= 2
    assert max(failed) < min(walks)
    small = _gnm(30, 200, 2)
    for seed in range(20):
        cfg = SamplerConfig(epsilon=0.5, zeta=0.0005, seed=seed)
        assert sample_hypergraph(small, degeneracy_order(small), cfg) == (
            oracles.reference_sample_hypergraph(small, cfg)), seed
    assert {decided for _, decided in counted} == {True, False}


def test_probe_count_leaves_the_reference_pass_state():
    """A pass decided by its probe count leaves the RNG where the walk of
    that pass leaves it.  Every wedge of a clique closes, so there the
    count is the reference sample's size; elsewhere it bounds it."""
    graphs = [complete_graph(12), _gnm(30, 200, 2), _star_with_chords(40, 0.05, 4),
              blowup(complete_graph(4), 2).materialize()]
    for gi, g in enumerate(graphs):
        info = degeneracy_order(g)
        rows, W = _rows(g), forward_wedge_count(g, info)
        for p in (1e-300, 0.003, 0.05, 0.4, 0.9):
            for seed in range(3):
                rng, ref = random.Random(seed), random.Random(seed)
                want = oracles.reference_skip_pass(g, rows, p, ref)
                count = sampling._probe_count(W, p, rng, W + 1)
                assert rng.getstate() == ref.getstate(), (gi, p, seed)
                if gi == 0:
                    assert count == len(want), (p, seed)
                assert count >= len(want), (gi, p, seed)
                if count:
                    stopped = sampling._probe_count(W, p, random.Random(seed), count)
                    assert stopped == count


def _pass_graphs():
    """The graphs of ``test_skip_pass_matches_reference``."""
    return [_gnm(30, 60, 1), _gnm(30, 200, 2), _gnm(30, 400, 3), _star_with_chords(40, 0.02, 4),
            complete_graph(8), blowup(complete_graph(4), 2).materialize(), _square_of_path(60),
            complete_graph(30), _gnm(40, 600, 5)]


def test_p1_pass_is_the_triangle_listing_and_draws_nothing():
    """At p = 1 a pass probes every wedge: it keeps what the reference pass
    keeps and leaves the RNG state as it found it."""
    for gi, g in enumerate(_pass_graphs()):
        rows, info = _rows(g), degeneracy_order(g)
        for seed in range(2):
            rng = random.Random(seed)
            state = rng.getstate()
            want = oracles.reference_skip_pass(g, rows, 1.0, random.Random(seed))
            assert _skip_pass(g, rows, 1.0, rng) == want, gi
            assert rng.getstate() == state, gi
            assert sample_wedges_fixed_p(g, info, 1.0, seed).hyperedges == want, gi


class _ZeroAt(random.Random):
    """A ``random.Random`` whose ``random()`` returns 0.0 at the calls whose
    1-based index mod 7 is 0 or 1: the first call, then runs of two zeros
    that a skip must redraw past.  The underlying state advances on every
    call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        u = super().random()
        self.calls += 1
        return 0.0 if self.calls % 7 < 2 else u


def test_zero_draws_are_redrawn_in_every_pass_loop():
    """A draw of 0.0 is redrawn wherever a skip is drawn: the first skip of a
    pass and every inline skip of ``_skip_pass`` and ``_probe_count`` give
    the reference pass's sample, count and RNG state."""
    for gi, g in enumerate(_pass_graphs()):
        rows = _rows(g)
        W = forward_wedge_count(g, degeneracy_order(g))
        draws = []
        for p in (0.05, 0.3, 0.9):
            ref = _ZeroAt(p)
            want = oracles.reference_skip_pass(g, rows, p, ref)
            draws.append(ref.calls)
            rng = _ZeroAt(p)
            assert _skip_pass(g, rows, p, rng) == want, (gi, p)
            assert rng.getstate() == ref.getstate(), (gi, p)
            rng = _ZeroAt(p)
            assert sampling._probe_count(W, p, rng, W + 1) >= len(want), (gi, p)
            assert rng.getstate() == ref.getstate(), (gi, p)
        # some pass drew past calls 7 and 8, a run of zeros after the first skip
        assert max(draws) >= 9, gi


def test_zero_draws_are_redrawn_in_gnp(monkeypatch):
    """G(n, p) redraws a draw of 0.0 at its first skip and at every later
    one, as the reference loop of one ``geometric_skip`` per step does."""
    monkeypatch.setattr(random, "Random", _ZeroAt)
    for n, p in ((30, 0.3), (12, 0.9), (40, 0.05)):
        for seed in range(3):
            want = oracles.reference_gnp_edges(n, p, seed)
            assert list(gnp_random_graph(n, p, seed).edges()) == want, (n, p, seed)


# ------------------------------------------------------- marker rounds ----


def _working_graphs():
    """Working graphs of the estimator (6-fold blow-ups united with K3) and
    plain graphs; between them round x's marker block lands first (K8,
    whose least key is 7), mid-order and last."""
    blown = [disjoint_union(blowup(g, 6).materialize(), complete_graph(3))
             for g in (complete_graph(4), bipartite_apex(2), gnp_random_graph(6, 0.6, 1))]
    return blown + [complete_graph(8), _gnm(30, 200, 2), _star_with_chords(25, 0.2, 3)]


def _x_range(g):
    """Every x that ``add_spurious_cliques`` accepts for g, from 1."""
    return range(1, math.ceil(2 * math.sqrt(g.m)) + 1)


def test_marker_block_merges_into_the_working_order():
    """The augmented degeneracy order is G's order with the cliques inserted,
    nodes in id order, at ``block_at``; positions, forward degrees and
    forward rows follow, the clique rows being ``_clique_rows`` shifted to
    the clique's node and edge ids."""
    where = set()
    for gi, g in enumerate(_working_graphs()):
        rounds = sampling._MarkerRounds(g)
        order, fwd = rounds.info.order, rounds.info.forward_degrees
        for x in _x_range(g):
            augmented = add_spurious_cliques(g, x)
            aug = augmented.graph
            info = degeneracy_order(aug)
            size = x + 2
            count, pairs = augmented.spurious_clique_count, math.comb(size, 2)
            at = rounds.block_at(x)
            where.add("first" if at == 0 else "last" if at == g.n else "mid")
            merged = order[:at] + list(range(g.n, aug.n)) + order[at:]
            assert info.order == merged, (gi, x)
            rank = {u: i for i, u in enumerate(merged)}
            assert info.positions == [rank[u] for u in range(aug.n)], (gi, x)
            assert info.forward_degrees == fwd + [x + 1 - u for _ in range(count)
                                                  for u in range(size)], (gi, x)
            crows, links = sampling._clique_rows(size)
            assert all(ids == [links[u] + b for b in later] for u, later, ids in crows)
            block = [(g.n + c * size + u, [g.n + c * size + b for b in later],
                      [g.m + c * pairs + e for e in ids])
                     for c in range(count) for u, later, ids in crows]
            head = [row for row in rounds.rows if rounds.info.positions[row[0]] < at]
            want = head + block + rounds.rows[len(head):]
            assert list(forward_rows(aug, info.order, info.positions)) == want, (gi, x)
    assert where == {"first", "mid", "last"}


def test_marker_pass_matches_the_materialised_pass():
    """One marker pass keeps the working hyperedges and gives the marker-edge
    degrees that ``_skip_pass`` on the materialised augmented graph gives,
    split by ``is_spurious``, with the same RNG draws."""
    for gi, g in enumerate(_working_graphs()):
        rounds = sampling._MarkerRounds(g)
        xs = sorted({1, 2, 5, math.ceil(2 * math.sqrt(g.m))})
        for x in xs:
            augmented = add_spurious_cliques(g, x)
            aug, spurious = augmented.graph, augmented.is_spurious
            rows = _rows(aug)
            for p in (1e-300, 0.01, 0.2, 0.7):
                for seed in range(2):
                    rng, ref = random.Random(seed), random.Random(seed)
                    want = _skip_pass(aug, rows, p, ref)
                    kept, marks = marker_pass(rounds, x, p, rng)
                    assert all(spurious[a] == spurious[c] for a, _, c in want)
                    degree = Counter(e - g.m for h in want if spurious[h[0]] for e in h)
                    assert kept == [h for h in want if not spurious[h[0]]], (gi, x, p)
                    assert marks == [degree[i] for i in range(aug.m - g.m)], (gi, x, p)
                    assert rng.getstate() == ref.getstate(), (gi, x, p, seed)


def test_marker_rounds_walk_only_below_p1(monkeypatch):
    """A marker round whose doubling reaches p = 1 falls back without a pass
    at p = 1: every p that a round hands to ``_skip_pass`` is below 1,
    also in rounds that walk and then fall back."""
    seen = []
    skip_pass = sampling._skip_pass

    def spy(g, rows, p, rng, block, marks):
        assert block.count > 0
        seen.append(p)
        return skip_pass(g, rows, p, rng, block, marks)

    monkeypatch.setattr(sampling, "_skip_pass", spy)
    walked_fallbacks = 0
    for g in _working_graphs()[1:5]:
        rounds = sampling._MarkerRounds(g)
        for x in (1, 2, 3):
            for seed in range(5):
                before = len(seen)
                if _round_order(rounds, x, 0.5, 0.03, seed)[1] and len(seen) > before:
                    walked_fallbacks += 1
    assert all(0.0 < p < 1.0 for p in seen)
    assert walked_fallbacks >= 10


def test_zero_draws_are_redrawn_in_the_marker_pass():
    """With draws of 0.0 in both of its loops, the working-graph rows and
    the clique rows, a marker pass keeps what the reference pass on the
    materialised augmented graph keeps, with its RNG state."""
    for gi, g in enumerate(_working_graphs()):
        rounds = sampling._MarkerRounds(g)
        for x in sorted({1, 3, math.ceil(2 * math.sqrt(g.m))}):
            augmented = add_spurious_cliques(g, x)
            aug, spurious = augmented.graph, augmented.is_spurious
            for p in (0.05, 0.4):
                ref = _ZeroAt(x)
                want = oracles.reference_skip_pass(aug, _rows(aug), p, ref)
                rng = _ZeroAt(x)
                kept, marks = marker_pass(rounds, x, p, rng)
                degree = Counter(e - g.m for h in want if spurious[h[0]] for e in h)
                assert kept == [h for h in want if not spurious[h[0]]], (gi, x, p)
                assert marks == [degree[i] for i in range(aug.m - g.m)], (gi, x, p)
                assert rng.getstate() == ref.getstate(), (gi, x, p)


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
        assert s.hyperedges == list_triangles(g)
        assert len(s.hyperedges) == compute_supports(g).triangle_count > 0


def test_sampled_cell_holds_at_most_16_bytes_per_hyperedge():
    """The sample of the sampled golden cell (``sampled/gnp40``, zeta =
    0.05, seed 1: 1191 hyperedges at p ~ 0.9) keeps one flat 4-byte id
    column; a list of tuples held ~72 bytes per hyperedge (tracemalloc)."""
    g, _ = load_graph(os.path.join(os.path.dirname(__file__), "golden", "sampled", "gnp40.edges"))
    info = degeneracy_order(g)
    cfg = SamplerConfig(epsilon=0.5, zeta=0.05, seed=1)
    s, kept, _ = traced_bytes(lambda: sample_hypergraph(g, info, cfg))
    assert not s.fell_back_to_exact and len(s.hyperedges) == 1191
    assert kept <= 16 * len(s.hyperedges)


def test_fallback_sample_builds_no_tuple_list():
    """A fallback sample lists all T triangles straight into the column:
    it keeps at most 16 bytes per triangle, and its peak, forward rows
    included, stays below 24, where a list of tuples alone takes ~72."""
    g = gnp_random_graph(60, 0.8, 2)
    info = degeneracy_order(g)
    s, kept, peak = traced_bytes(lambda: sample_hypergraph(g, info, SamplerConfig(epsilon=0.5)))
    assert s.fell_back_to_exact and len(s.hyperedges) == compute_supports(g).triangle_count
    assert kept <= 16 * len(s.hyperedges)
    assert peak <= 24 * len(s.hyperedges)


def test_marker_pass_keeps_at_most_16_bytes_per_hyperedge():
    """The working hyperedges one marker pass keeps are one flat column."""
    working = disjoint_union(blowup(complete_graph(5), 6).materialize(), complete_graph(3))
    rounds = sampling._MarkerRounds(working)
    kept, retained, _ = traced_bytes(lambda: marker_pass(rounds, 2, 0.9, random.Random(0))[0])
    assert len(kept) > 1000
    assert retained <= 16 * len(kept)


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


def test_default_zeta_never_samples_within_the_caps():
    """At the default zeta = 110 no marker round of K_745 can sample, at
    any x up to the estimator's cap and even at epsilon near 1.  K_745 is
    the largest clique whose working graph (36m+3 edges) fits
    ``MATERIALIZE_CAP``, and a clique has the most triangles for its edge
    count.  A default ``sample`` needs T >= 165*m*ln(m)/eps^2: K_745 falls
    back, and the least clique that can sample at epsilon 0.999 has 8 651
    nodes."""
    n = 745
    m, T = math.comb(n, 2), math.comb(n, 3)
    n_w, m_w, tri_w = 6 * n + 3, 36 * m + 3, 216 * T + 1
    assert m_w <= gadgets.MATERIALIZE_CAP < 36 * math.comb(n + 1, 2) + 3
    x_cap = min(2 * 6 * (n - 1) + 2, math.ceil(2 * math.sqrt(m_w)))
    for eps in (0.5, 0.9, 0.999):
        assert all(fallback_certain(*augmented_sizes(n_w, m_w, tri_w, x), eps / 6, 110.0)
                   for x in range(1, x_cap + 1)), eps
        assert fallback_certain(n, m, T, eps, 110.0), eps
    assert sample_size_target(m, 1.0, 110.0) == pytest.approx(165 * m * math.log(m))
    least = next(k for k in count(n) if not fallback_certain(
        k, math.comb(k, 2), math.comb(k, 3), 0.999, 110.0))
    assert least == 8651


def test_sampled_hyperedges_are_real_triangles():
    g = gnp_random_graph(12, 0.5, 8)
    info = degeneracy_order(g)
    s = sample_hypergraph(g, info, SamplerConfig(epsilon=0.9, zeta=0.02, seed=5))
    assert set(s.hyperedges) <= set(list_triangles(g))
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


def test_gnp_node_count_is_refused_before_any_draw(monkeypatch):
    """n above ``graph.NODE_ID_LIMIT`` raises before the first skip is drawn."""
    draws = []
    monkeypatch.setattr(sampling, "geometric_skip", lambda *a: draws.append(a) or 1)
    monkeypatch.setattr(graph, "NODE_ID_LIMIT", 100)
    with pytest.raises(ValueError, match="node_count 1000 above the node-id limit 100"):
        gnp_random_graph(1000, 0.5, 0)
    assert draws == []


def test_gnp_above_the_edge_cap_is_refused_unbuilt(monkeypatch):
    """The expected p*C(n, 2) edges are held to ``MATERIALIZE_CAP``, read at
    call time, before the first skip is drawn and before ``build_graph`` is
    called; at the cap it builds."""
    draws, built = [], []
    monkeypatch.setattr(sampling, "geometric_skip", lambda *a: draws.append(a) or 1)
    monkeypatch.setattr(sampling, "build_graph", lambda *a, **kw: built.append(a))
    monkeypatch.setattr(gadgets, "MATERIALIZE_CAP", 22)  # 0.5 * C(10, 2) = 22.5
    with pytest.raises(ValueError) as err:
        gnp_random_graph(10, 0.5, 0)
    assert str(err.value) == ("gnp_random_graph n=10 p=0.5 in expectation would have 23 edges,"
                              " above the edge cap 22")
    assert draws == [] and built == []
    monkeypatch.setattr(gadgets, "MATERIALIZE_CAP", 23)
    gnp_random_graph(10, 0.5, 0)
    assert len(built) == 1


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
