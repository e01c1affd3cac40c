import random
from array import array
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import trusslab.graph
from conftest import figure_left_graph, traced_bytes
from trusslab.approx import approx_truss_order, estimate_trussness, threshold_rounds
from trusslab.gadgets import (
    add_spurious_cliques,
    bipartite_apex,
    blowup,
    complete_graph,
    disjoint_union,
    ladder_gadget,
)
from trusslab.graph import (
    BucketQueue,
    Graph,
    build_graph,
    degeneracy_order,
    forward_wedge_count,
)
from trusslab.io import load_graph
from trusslab.sampling import SamplerConfig, gnp_random_graph, sample_hypergraph
from trusslab.triangles import compute_supports, list_triangles
from trusslab.truss import decomposition_from_order, suffix_support_profile, truss_decomposition


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
    # rejected before any neighbor map is allocated for the endpoint
    with pytest.raises(ValueError, match=r"node id 1000000000 .*node_count 3\b"):
        build_graph([(0, 1), (0, 10**9)], node_count=3)


def test_build_rejects_ids_at_the_node_limit(monkeypatch):
    """Under a node-id limit of 100, ids and node counts above it are
    rejected before any neighbor map is allocated for them."""
    monkeypatch.setattr(trusslab.graph, "NODE_ID_LIMIT", 100)
    assert build_graph([(0, 99)]).n == 100
    assert build_graph([], node_count=100).n == 100
    with pytest.raises(ValueError, match=r"node id 100 not below the node-id limit 100$"):
        build_graph([(0, 1), (100, 0)])
    with pytest.raises(ValueError, match=r"node_count 101 above the node-id limit 100$"):
        build_graph([], node_count=101)


def _assert_builds_like_reference(edges, node_count=None):
    """build_graph on a one-shot iterator against the two-pass reference:
    same n, m, pairs and neighbor maps (as dicts), or both reject."""
    try:
        ref = oracles.reference_build_graph(edges, node_count)
    except ValueError:
        with pytest.raises(ValueError):
            build_graph(iter(edges), node_count)
        return
    _assert_same_graph(build_graph(iter(edges), node_count), ref)


def _assert_same_graph(g, ref):
    """Same n, m, pairs and neighbor maps (as dicts)."""
    assert (g.n, g.m) == (ref.n, ref.m)
    assert list(g.edges()) == list(ref.edges())
    assert [g.neighbors(u) for u in g.nodes()] == [ref.neighbors(u) for u in ref.nodes()]


@pytest.mark.parametrize(
    "edges, node_count",
    [
        ([], None),
        ([], 0),
        ([], 4),
        ([], -1),
        ([(0, 1), (0, 1), (1, 0), (1, 1)], None),
        ([(3, 3)], None),
        ([(5, 2), (2, 5), (0, 5), (2, 0)], 9),
        ([(0, 1), (1, 2)], 2),
        ([(0, 1), (2, -1)], None),
        ([(-1, -1)], 5),
    ],
)
def test_build_matches_two_pass_reference_on_edge_cases(edges, node_count):
    _assert_builds_like_reference(edges, node_count)


def test_build_matches_two_pass_reference_seeded():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randrange(1, 30)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(3 * n))]
        edges += [(v, u) for u, v in rng.sample(edges, len(edges) // 3)]
        rng.shuffle(edges)
        _assert_builds_like_reference(edges, rng.choice([None, n, n + rng.randrange(5)]))


@given(
    st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 12)), max_size=40),
    st.one_of(st.none(), st.integers(-1, 16)),
)
def test_build_matches_two_pass_reference(edges, node_count):
    _assert_builds_like_reference(edges, node_count)


# ------------------------------------------------------------ interning ----


def _assert_interned_like_reference(g, ref):
    """g equals the reference build, and each node id past CPython's small
    int cache is one object across every map key.  (Edge endpoints live in
    int columns, which hold no int objects.)"""
    _assert_same_graph(g, ref)
    canonical = {}
    for x in (x for u in g.nodes() for x in g.neighbors(u)):
        assert canonical.setdefault(x, x) is x, x
    assert max(canonical) > 256


def _edges_past_256(rng, n, count):
    """Random endpoints below n, with repeats, reversed pairs and self-loops."""
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    return edges + [(v, u) for u, v in rng.sample(edges, count // 4)] + [(300, 300)]


@pytest.mark.parametrize("node_count", [None, 700])
def test_build_interns_node_ids(node_count):
    edges = _edges_past_256(random.Random(3), 600, 1500)
    g = build_graph(iter(edges), node_count)
    _assert_interned_like_reference(g, oracles.reference_build_graph(edges, node_count))


def test_loaded_graph_interns_node_ids(tmp_path):
    edges = _edges_past_256(random.Random(4), 500, 1200)
    path = tmp_path / "big-ids.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    g, _ = load_graph(str(path))
    _assert_interned_like_reference(g, oracles.reference_build_graph(edges))


def test_derived_graphs_intern_node_ids():
    base = gnp_random_graph(120, 0.05, 8)
    view = blowup(base, 3)
    _assert_interned_like_reference(
        view.materialize(), oracles.reference_build_graph(view.edges(), view.n)
    )

    a, b = gnp_random_graph(270, 0.02, 1), gnp_random_graph(40, 0.2, 2)
    shifted = [(u + a.n, v + a.n) for u, v in b.edges()]
    _assert_interned_like_reference(
        disjoint_union(a, b),
        oracles.reference_build_graph(list(a.edges()) + shifted, a.n + b.n),
    )

    aug = add_spurious_cliques(a, 3)
    cliques = [
        pair
        for c in range(aug.spurious_clique_count)
        for pair in combinations(range(a.n + 5 * c, a.n + 5 * c + 5), 2)
    ]
    _assert_interned_like_reference(
        aug.graph, oracles.reference_build_graph(list(a.edges()) + cliques, aug.graph.n)
    )

    _assert_interned_like_reference(
        gnp_random_graph(400, 0.02, 5),
        oracles.reference_build_graph(oracles.reference_gnp_edges(400, 0.02, 5), 400),
    )


@pytest.mark.parametrize(
    "edges, node_count, message",
    [
        ([(300, 301), (301, -300)], None, "negative node id in edge (301, -300)"),
        ([(300, 301), (-1, 1000)], 2000, "negative node id in edge (-1, 1000)"),
        ([(300, 301), (301, 1000)], 1000, "node id 1000 not below node_count 1000"),
        ([(300, 301)], -300, "negative node_count -300"),
    ],
)
def test_build_rejections_past_256(edges, node_count, message):
    with pytest.raises(ValueError):
        oracles.reference_build_graph(edges, node_count)
    with pytest.raises(ValueError) as err:
        build_graph(edges, node_count)
    assert str(err.value) == message


def test_edge_ids_follow_input_order():
    g = build_graph([(2, 1), (0, 1), (2, 1), (0, 2)])
    assert g.pair(0) == (1, 2)
    assert g.pair(1) == (0, 1)
    assert g.edge_id(2, 0) == 2
    for u, v in ((-1, 2), (3, 0), (0, 0)):
        with pytest.raises(KeyError):
            g.edge_id(u, v)


def test_built_graph_holds_edges_in_int_columns():
    """Edge endpoints as two 4-byte int columns: a built G(4000, 0.0025)
    holds ~136 bytes per edge; as a list of (u, v) tuples it held ~187
    (tracemalloc)."""
    edges = list(gnp_random_graph(4000, 0.0025, 3).edges())
    g, kept, _ = traced_bytes(lambda: build_graph(edges, node_count=4000))
    assert kept < 160 * g.m


@given(small_graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(u) for u in range(g.n)) == 2 * g.m


@given(small_graphs())
def test_view_operations_consistent(g):
    rng = random.Random(7)
    for u in range(g.n):
        nbrs = g.neighbors(u)
        assert g.degree(u) == len(nbrs)
        assert list(nbrs.values()) == sorted(nbrs.values())
        assert all(g.pair(e) == (min(u, v), max(u, v)) for v, e in nbrs.items())
        for v in range(g.n):
            assert g.has_edge(u, v) == (v in set(nbrs))
    for _ in range(10):
        if g.m == 0:
            break
        u, v = g.pair(rng.randrange(g.m))
        assert g.has_edge(u, v) and g.has_edge(v, u)


def _order_sensitive_outputs(g):
    """Everything computed from a graph's neighbor maps, seeded."""
    decomp, order = truss_decomposition(g)
    info = degeneracy_order(g)
    triangles = list_triangles(g)
    cfg = SamplerConfig(epsilon=0.5, zeta=0.01, seed=3)
    approx = approx_truss_order(g, cfg)
    return (
        decomp,
        order,
        compute_supports(g),
        info,
        triangles,
        sample_hypergraph(g, info, cfg),
        approx,
        threshold_rounds(g, 0.5),
        suffix_support_profile(g, order.order),
        suffix_support_profile(g, approx.order),
        estimate_trussness(g, 0.5, zeta=0.001, seed=1),
        decomposition_from_order(g, lambda h: truss_decomposition(h)[1]),
    )


def _shuffled_gnp(n, p, seed):
    edges = list(gnp_random_graph(n, p, seed).edges())
    random.Random(seed).shuffle(edges)
    return build_graph([(v, u) for u, v in edges], node_count=n)


@pytest.mark.parametrize(
    "make",
    [
        figure_left_graph,
        lambda: bipartite_apex(3),
        lambda: ladder_gadget(3),
        lambda: blowup(complete_graph(4), 2).materialize(),
        lambda: disjoint_union(complete_graph(4), gnp_random_graph(9, 0.5, 4)),
        lambda: _shuffled_gnp(10, 0.5, 8),
    ],
    ids=["figure_left", "bipartite_apex_3", "ladder_3", "blowup_k4_q2", "union_k4_gnp", "shuffled_gnp"],
)
def test_outputs_do_not_depend_on_neighbor_map_order(make):
    """Neighbor maps iterate in edge-id order; every output is the same
    under any other iteration order, the old ascending-neighbor one too."""
    g = make()
    expected = _order_sensitive_outputs(g)
    rng = random.Random(5)
    for arrange in (reversed, lambda items: rng.sample(items, len(items)), sorted):
        maps = [dict(arrange(list(g.neighbors(u).items()))) for u in g.nodes()]
        ends = [array("i", end) for end in zip(*g.edges())]
        assert _order_sensitive_outputs(Graph(g.n, maps, *ends)) == expected


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bucket_queue_matches_brute_min(data):
    keys = data.draw(st.lists(st.integers(0, 15), min_size=1, max_size=30))
    items = st.integers(0, len(keys) - 1)
    q = BucketQueue(keys)
    live = dict(enumerate(keys))
    while live:
        # A batch repeats items and names popped ones, which the queue
        # skips; a live item occurs at most as often as its key allows.
        batch = []
        for item in data.draw(st.lists(items, max_size=2 * len(keys))):
            if item not in live:
                batch.append(item)
            elif live[item]:
                live[item] -= 1
                batch.append(item)
        q.decrease(batch)
        for _ in range(min(len(live), data.draw(st.integers(1, 3)))):
            key, item = min((k, i) for i, k in live.items())
            assert q.pop_min() == (item, key)
            del live[item]
            assert len(q) == len(live)
    with pytest.raises(IndexError):
        q.pop_min()
