from hypothesis import given, settings

import oracles
from test_graph import small_graphs
from test_truss import _hub_graph
from trusslab.gadgets import bipartite_apex, blowup, complete_graph
from trusslab.graph import build_graph
from trusslab.sampling import gnp_random_graph
from trusslab.triangles import compute_supports, list_triangles


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
    assert list_triangles(complete_graph(4)) == 4


def test_list_blowup_of_k3():
    mat = blowup(complete_graph(3), 2).materialize()
    assert list_triangles(mat) == 8


def test_list_seeded_random_matches_brute_force():
    g = gnp_random_graph(10, 0.5, 42)
    assert list_triangles(g) == len(oracles.brute_triangles(g))


@settings(max_examples=60)
@given(small_graphs(max_nodes=12))
def test_listing_matches_brute_enumeration(g):
    seen = []
    count = list_triangles(g, seen.append)
    assert count == len(seen)
    assert {t.nodes for t in seen} == oracles.brute_triangles(g)
    table = compute_supports(g)
    for t in seen:
        assert t.nodes == tuple(sorted(t.nodes))
        assert t.edges == tuple(sorted(t.edges))
        assert all(table.support[e] >= 1 for e in t.edges)
