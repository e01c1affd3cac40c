import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings

import oracles
from conftest import gadget_graphs, traced_bytes
from test_graph import small_graphs
from test_truss import _hub_graph
from trusslab.gadgets import (
    add_spurious_cliques,
    bipartite_apex,
    blowup,
    complete_graph,
    ladder_gadget,
)
from trusslab.graph import build_graph, degeneracy_order
from trusslab.sampling import _skip_pass, gnp_random_graph
from trusslab.triangles import Triples, compute_supports, forward_rows, list_triangles


def test_supports_k3():
    table = compute_supports(complete_graph(3))
    assert table.support == [1, 1, 1]
    assert table.triangle_count == 1


def test_supports_triangle_free_bipartite():
    k33 = build_graph([(u, v + 3) for u in range(3) for v in range(3)])
    table = compute_supports(k33)
    assert all(s == 0 for s in table.support)
    assert table.triangle_count == 0


def test_supports_bipartite_apex(figure_right):
    table = compute_supports(figure_right)
    assert table.triangle_count == 16
    assert table.support == oracles.brute_supports(figure_right)
    # every bipartite edge closes only through the apex
    apex = 8
    for eid, (u, v) in enumerate(figure_right.edges()):
        expected = 4 if apex in (u, v) else 1
        assert table.support[eid] == expected


@settings(max_examples=80)
@given(small_graphs())
def test_support_sum_is_three_times_triangles(g):
    table = compute_supports(g)
    assert sum(table.support) == 3 * table.triangle_count
    assert table.support == oracles.brute_supports(g)


@given(small_graphs())
def test_support_bounded_by_min_degree(g):
    table = compute_supports(g)
    for eid, (u, v) in enumerate(g.edges()):
        if table.support[eid] > 0:
            assert table.support[eid] <= min(g.degree(u), g.degree(v)) - 1


def mask_rule_graphs(seed: int) -> list:
    """The same seeded edges on n = 320 nodes, where n*n == 64*m exactly and
    supports are counted on n-bit masks, and on n + 1 nodes, where they are
    counted on neighbor-map views.  Every tenth node is isolated."""
    n = 320
    m = n * n // 64
    rng = random.Random(seed)
    ends = [u for u in range(n) if u % 10]
    edges: dict = {}
    while len(edges) < m:
        edges[tuple(sorted(rng.sample(ends, 2)))] = None
    graphs = [build_graph(edges, node_count=size) for size in (n, n + 1)]
    assert [g.n * g.n <= 64 * g.m for g in graphs] == [True, False]
    return graphs


def test_supports_match_forward_walk_reference():
    """Common-neighbor counts against the forward-wedge walk in (degree, id)
    order, on graphs of up to a few thousand edges, on both sides of the
    mask rule."""
    graphs = mask_rule_graphs(7) + [
        gnp_random_graph(80, 0.5, 1),
        gnp_random_graph(150, 0.2, 2),
        gnp_random_graph(100, 0.6, 3),
        gnp_random_graph(400, 0.02, 4),
        _hub_graph(1500, 0.001, 5),
        _hub_graph(600, 0.01, 6),
        blowup(complete_graph(6), 3).materialize(),
        bipartite_apex(12),
    ]
    assert max(g.m for g in graphs) > 2500
    for i, g in enumerate(graphs):
        assert compute_supports(g) == oracles.reference_compute_supports(g), i


def test_supports_copy_no_neighbor_map():
    """Counting on the graph's own maps peaks at ~18 bytes per edge on
    G(4000, 0.0025), mostly the support list; a per-node set copy of the
    adjacency peaked at ~148 (tracemalloc)."""
    g = gnp_random_graph(4000, 0.0025, 3)
    _, _, peak = traced_bytes(lambda: compute_supports(g))
    assert peak < 40 * g.m


def test_listing_holds_at_most_16_bytes_per_triangle():
    """The listing is one flat column of 4-byte ids; a list of tuples held
    ~72 bytes per triangle (tracemalloc)."""
    g = gnp_random_graph(60, 0.8, 2)
    listed, kept, _ = traced_bytes(lambda: list_triangles(g))
    assert len(listed) == compute_supports(g).triangle_count > 10_000
    assert kept <= 16 * len(listed)


def test_triples_slices_are_triples():
    rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    triples = Triples.of(rows)
    assert Triples.of([(0, 1, 2)])[0:1] == [(0, 1, 2)]
    for cut in (slice(0, 1), slice(1, None), slice(-3, -1), slice(3, 1), slice(None, None, 2),
                slice(None, None, -1), slice(5, 9)):
        part = triples[cut]
        assert isinstance(part, Triples) and part == rows[cut], cut
    assert triples[1:3].ids.tolist() == [3, 4, 5, 6, 7, 8]
    assert triples[-1] == (9, 10, 11)


@pytest.mark.parametrize("index, error, message", [
    (5, IndexError, "Triples index out of range"),
    (-2, IndexError, "Triples index out of range"),
    ("0", TypeError, "Triples indices must be integers or slices, not str"),
])
def test_triples_index_errors_name_triples(index, error, message):
    with pytest.raises(error) as raised:
        Triples.of([(0, 1, 2)])[index]
    assert str(raised.value) == message


def test_list_k4():
    assert len(list_triangles(complete_graph(4))) == 4


def test_list_blowup_of_k3():
    mat = blowup(complete_graph(3), 2).materialize()
    assert len(list_triangles(mat)) == 8


def test_list_seeded_random_matches_brute_force():
    g = gnp_random_graph(10, 0.5, 42)
    assert len(list_triangles(g)) == len(oracles.brute_triangles(g))


@settings(max_examples=60)
@given(small_graphs(max_nodes=12))
def test_listing_matches_brute_enumeration(g):
    """The listing is the triangle hypergraph: each brute-force triangle
    once, as its ascending edge-id triple, each edge in as many triples as
    its support, and the p = 1 skip pass over the same rows, which draws
    nothing."""
    listed = list_triangles(g)
    eid = g.edge_id
    brute = oracles.brute_triangles(g)
    assert len(listed) == len(set(listed)) == len(brute)
    assert set(listed) == {tuple(sorted((eid(a, b), eid(a, c), eid(b, c)))) for a, b, c in brute}
    assert all(x < y < z for x, y, z in listed)
    degree = Counter(chain.from_iterable(listed))
    assert [degree[e] for e in range(g.m)] == compute_supports(g).support
    info = degeneracy_order(g)
    rows = list(forward_rows(g, info.order, info.positions))
    rng = random.Random(0)
    state = rng.getstate()
    assert _skip_pass(g, rows, 1.0, rng) == listed
    assert rng.getstate() == state


def listing_graphs() -> list:
    """Seeded G(n, p) and every gadget, with triangle-free and empty graphs."""
    graphs = [gnp_random_graph(n, q, seed) for n, q, seed in
              ((12, 0.5, 1), (20, 0.3, 2), (25, 0.7, 3), (30, 0.9, 4), (40, 0.1, 5))]
    graphs += [g for _, g in gadget_graphs()]
    graphs += [ladder_gadget(6), bipartite_apex(5), blowup(complete_graph(4), 3).materialize(),
               add_spurious_cliques(gnp_random_graph(10, 0.5, 6), 3).graph,
               build_graph([(0, 1), (1, 2), (2, 3)]), build_graph([], node_count=4), build_graph([])]
    return graphs


def test_listing_is_the_reference_walk_of_its_rows():
    """Over the rows of the degeneracy order and of the (degree, id) order,
    the listing is the p = 1 reference walk, triple for triple in probe
    order, and as a set the brute-force triangles as edge-id triples; no
    rows list nothing."""
    for i, g in enumerate(listing_graphs()):
        eid = g.edge_id
        brute = {tuple(sorted((eid(a, b), eid(a, c), eid(b, c))))
                 for a, b, c in oracles.brute_triangles(g)}
        info = degeneracy_order(g)
        by_degree = sorted(range(g.n), key=g.degree)
        positions = [0] * g.n
        for rank, u in enumerate(by_degree):
            positions[u] = rank
        for rows in (list(forward_rows(g, info.order, info.positions)),
                     list(forward_rows(g, by_degree, positions))):
            listed = list_triangles(g, rows)
            assert listed == oracles.reference_skip_pass(g, rows, 1.0, random.Random(0)), i
            assert len(listed) == len(brute) and set(listed) == brute, i
        assert list_triangles(g) == list_triangles(g, rows=iter(
            forward_rows(g, info.order, info.positions))), i
        assert list_triangles(g, []) == [] and list_triangles(g, iter(())) == [], i
