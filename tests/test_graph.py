import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trusslab.gadgets import complete_graph
from trusslab.graph import (
    BucketQueue,
    build_graph,
    degeneracy_order,
    forward_wedge_count,
)


def small_graphs(max_nodes=10):
    @st.composite
    def strat(draw):
        n = draw(st.integers(min_value=0, max_value=max_nodes))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if not pairs:
            return build_graph([], node_count=n)
        edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
        return build_graph(edges, node_count=n)

    return strat()


# ---------------------------------------------------------------- build ----


def test_build_triangle():
    g = build_graph([(0, 1), (1, 2), (2, 0)])
    assert (g.n, g.m) == (3, 3)


def test_build_drops_duplicates_and_self_loops():
    g = build_graph([(0, 1), (0, 1), (1, 1)])
    assert (g.n, g.m) == (2, 1)
    assert list(g.edges()) == [(0, 1)]


def test_build_figure_left(figure_left):
    assert figure_left.n == 7
    assert figure_left.m == 11


def test_build_rejects_negative_ids():
    with pytest.raises(ValueError):
        build_graph([(0, -1)])


def test_build_explicit_node_count_allows_isolated_nodes():
    g = build_graph([(0, 1)], node_count=5)
    assert g.n == 5
    assert g.degree(4) == 0
    with pytest.raises(ValueError):
        build_graph([(0, 9)], node_count=3)


def test_edge_ids_follow_input_order():
    g = build_graph([(2, 1), (0, 1), (2, 1), (0, 2)])
    assert g.pair(0) == (1, 2)
    assert g.pair(1) == (0, 1)
    assert g.edge_id(2, 0) == 2
    for u, v in ((-1, 2), (3, 0), (0, 0)):
        with pytest.raises(KeyError):
            g.edge_id(u, v)


@given(small_graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(u) for u in range(g.n)) == 2 * g.m


@given(small_graphs())
def test_view_operations_consistent(g):
    rng = random.Random(7)
    for u in range(g.n):
        nbrs = g.neighbors(u)
        assert g.degree(u) == len(nbrs)
        assert list(nbrs) == sorted(nbrs)
        assert all(g.pair(e) == (min(u, v), max(u, v)) for v, e in nbrs.items())
        for v in range(g.n):
            assert g.has_edge(u, v) == (v in set(nbrs))
    for _ in range(10):
        if g.m == 0:
            break
        u, v = g.pair(rng.randrange(g.m))
        assert g.has_edge(u, v) and g.has_edge(v, u)


# ----------------------------------------------------------- degeneracy ----


def test_degeneracy_of_cliques():
    for k in range(2, 8):
        info = degeneracy_order(complete_graph(k))
        assert info.degeneracy == k - 1


def test_degeneracy_of_path_is_one():
    g = build_graph([(i, i + 1) for i in range(4)])
    assert degeneracy_order(g).degeneracy == 1


def test_degeneracy_figure_left_matches_exhaustive_oracle(figure_left):
    info = degeneracy_order(figure_left)
    assert info.degeneracy == 3
    assert info.degeneracy == oracles.brute_degeneracy(figure_left)


def test_degeneracy_ties_break_by_smallest_node():
    g = complete_graph(4)
    assert degeneracy_order(g).order == [0, 1, 2, 3]


@settings(max_examples=60)
@given(small_graphs(max_nodes=9))
def test_degeneracy_order_is_min_degree_peeling(g):
    info = degeneracy_order(g)
    assert oracles.replay_min_degree_order(g, info.order)
    assert info.degeneracy == max(info.forward_degrees, default=0)
    if g.n <= 8:
        assert info.degeneracy == oracles.brute_degeneracy(g)


@given(small_graphs())
def test_forward_degrees_count_later_neighbors(g):
    info = degeneracy_order(g)
    for u in range(g.n):
        later = sum(1 for v in g.neighbors(u) if info.positions[v] > info.positions[u])
        assert info.forward_degrees[u] == later


# ---------------------------------------------------------------- wedges ----


def test_forward_wedges_k3():
    g = complete_graph(3)
    assert forward_wedge_count(g, degeneracy_order(g)) == 1


def test_forward_wedges_star_is_zero():
    g = build_graph([(0, i) for i in range(1, 5)])
    info = degeneracy_order(g)
    assert forward_wedge_count(g, info) == 0
    assert oracles.brute_forward_wedges(g, info.order) == 0


def test_forward_wedges_k4():
    g = complete_graph(4)
    info = degeneracy_order(g)
    assert forward_wedge_count(g, info) == 4
    assert oracles.brute_forward_wedges(g, info.order) == 4


@settings(max_examples=60)
@given(small_graphs(max_nodes=12))
def test_forward_wedges_match_enumeration(g):
    info = degeneracy_order(g)
    assert forward_wedge_count(g, info) == oracles.brute_forward_wedges(g, info.order)


# ----------------------------------------------------------- bucket queue ----


def test_bucket_queue_orders_by_key_then_id():
    q = BucketQueue([2, 0, 2, 1])
    assert q.pop_min() == (1, 0)
    assert q.pop_min() == (3, 1)
    q.decrease([2])
    assert q.pop_min() == (2, 1)
    assert q.pop_min() == (0, 2)
    with pytest.raises(IndexError):
        q.pop_min()


def test_bucket_queue_cursor_follows_decrements():
    q = BucketQueue([5, 5, 5])
    assert q.pop_min() == (0, 5)
    q.decrease([2, 2])
    assert q.pop_min() == (2, 3)
    assert q.pop_min() == (1, 5)


def test_bucket_queue_decrease_counts_duplicates():
    q = BucketQueue([3, 3, 3])
    q.decrease([1, 2, 1])
    assert q.pop_min() == (1, 1)
    assert q.pop_min() == (2, 2)
    assert q.pop_min() == (0, 3)


def test_bucket_queue_decrease_skips_popped_items():
    q = BucketQueue([1, 2, 2])
    assert q.pop_min() == (0, 1)
    q.decrease([0, 2, 0])
    assert len(q) == 2
    assert q.pop_min() == (2, 1)
    assert q.pop_min() == (1, 2)


def test_bucket_queue_decrease_pulls_cursor_back():
    q = BucketQueue([4, 4, 6])
    assert q.pop_min() == (0, 4)
    q.decrease([2, 2, 2, 2, 2])
    assert q.pop_min() == (2, 1)
    assert q.pop_min() == (1, 4)
    with pytest.raises(ValueError):
        BucketQueue([1]).decrease([0, 0])
