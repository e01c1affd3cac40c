import random
from collections import Counter
from itertools import chain

from hypothesis import given, settings

import oracles
from test_graph import small_graphs
from test_truss import _hub_graph
from trusslab.gadgets import bipartite_apex, blowup, complete_graph
from trusslab.graph import build_graph, degeneracy_order
from trusslab.sampling import _skip_pass, gnp_random_graph
from trusslab.triangles import compute_supports, forward_rows, list_triangles


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


def test_supports_match_forward_walk_reference():
    """Common-neighbor counts against the forward-wedge walk in (degree, id)
    order, on graphs of up to a few thousand edges."""
    graphs = [
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
