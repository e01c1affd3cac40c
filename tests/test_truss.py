import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import oracles
from conftest import FIGURE_LEFT_TRUSSNESS, gadget_graphs, traced_bytes
from test_graph import small_graphs
from trusslab import gadgets
from trusslab.gadgets import (
    add_spurious_cliques,
    bipartite_apex,
    blowup,
    complete_graph,
    disjoint_union,
    ladder_gadget,
)
from trusslab.graph import Graph, build_graph, degeneracy_order
from trusslab.sampling import gnp_random_graph
from trusslab.triangles import compute_supports
from trusslab.truss import (
    TrussDecomposition,
    _peel_from_supports,
    _trussness_from_supports,
    decomposition_from_order,
    edge_trussness,
    is_exact_truss_order,
    max_truss_subgraph,
    suffix_support_profile,
    truss_decomposition,
    trussness,
)


def exact_order_oracle(g):
    return truss_decomposition(g)[1]


# --------------------------------------------------------- decomposition ----


def test_k3_every_edge_trussness_one():
    decomp, _ = truss_decomposition(complete_graph(3))
    assert decomp.edge_trussness == [1, 1, 1]
    assert decomp.trussness == 1


def test_figure_left_trussness(figure_left):
    assert trussness(figure_left) == FIGURE_LEFT_TRUSSNESS


def test_figure_right_trussness(figure_right):
    assert trussness(figure_right) == 1


def test_clique_trussness_law():
    assert trussness(complete_graph(5)) == 3


def test_triangle_free_trussness_zero():
    assert trussness(build_graph([(0, 1), (1, 2), (2, 3)])) == 0


def test_blowup_k4_q3_trussness():
    mat = blowup(complete_graph(4), 3).materialize()
    assert trussness(mat) == 6


def test_empty_graph():
    decomp, order = truss_decomposition(build_graph([]))
    assert decomp.trussness == 0
    assert decomp.edge_trussness == []
    assert order.order == []


@settings(max_examples=60)
@given(small_graphs(max_nodes=9))
def test_peeling_order_properties(g):
    decomp, order = truss_decomposition(g)
    # trussness values never decrease along the order
    values = [decomp.edge_trussness[e] for e in order.order]
    assert values == sorted(values)
    # the removal-time support recorded per position matches a replay
    fwd, min_sup = suffix_support_profile(g, order.order)
    assert fwd == order.forward_support
    assert fwd == min_sup  # exact truss order: always the residual minimum
    assert is_exact_truss_order(g, order.order)
    assert sum(order.forward_support) == len(oracles.brute_triangles(g))


def test_suffix_profile_matches_reference():
    """Linear replay against the whole-suffix minimum, on exact truss orders
    and on random permutations of seeded random graphs."""
    rng = random.Random(31)
    for i in range(30):
        g = gnp_random_graph(6 + i % 9, (0.3, 0.5, 0.8)[i % 3], 900 + i)
        shuffled = list(range(g.m))
        rng.shuffle(shuffled)
        for order in (truss_decomposition(g)[1].order, shuffled):
            want = oracles.reference_suffix_support_profile(g, order)
            assert suffix_support_profile(g, order) == want, (i, order)


def _hub_graph(n: int, p: float, seed: int):
    """A star on node 0 plus random chords, with edge ids in shuffled order
    so that id order and node order disagree."""
    rng = random.Random(seed)
    edges = [(0, v) for v in range(1, n)]
    edges += [(u, v) for u in range(1, n) for v in range(u + 1, n) if rng.random() < p]
    rng.shuffle(edges)
    return build_graph(edges)


def _peel_oracle_graphs():
    graphs = []
    for i in range(24):
        g = gnp_random_graph(7 + i % 8, (0.3, 0.5, 0.8)[i % 3], 1200 + i)
        if i % 2:
            pairs = list(g.edges())
            random.Random(i).shuffle(pairs)
            g = build_graph(pairs)
        graphs.append(g)
    graphs += [_hub_graph(8 + i, (0.2, 0.35)[i % 2], 1300 + i) for i in range(12)]
    graphs += [
        blowup(complete_graph(4), 2).materialize(),
        ladder_gadget(5),
        complete_graph(6),
    ]
    return graphs


def test_peel_matches_reference():
    """Shrinking-map peel with batched decrements against the peel with a
    removed-edge array and single decrements: same trussness, order and
    removal-time supports, (support, id) tie-breaks included."""
    for i, g in enumerate(_peel_oracle_graphs()):
        supports = compute_supports(g)
        want = oracles.reference_peel_from_supports(g, supports)
        assert _peel_from_supports(g, supports) == want, i
        assert truss_decomposition(g) == want, i


def test_supports_and_peel_need_no_degeneracy_order(monkeypatch):
    import trusslab.graph
    import trusslab.triangles
    import trusslab.truss

    def forbidden(g):
        raise AssertionError("degeneracy_order called")

    for module in (trusslab.graph, trusslab.triangles, trusslab.truss):
        monkeypatch.setattr(module, "degeneracy_order", forbidden)
    g = gnp_random_graph(12, 0.5, 7)
    supports = compute_supports(g)
    assert supports.support == oracles.brute_supports(g)
    assert truss_decomposition(g) == oracles.reference_peel_from_supports(g, supports)


def test_peel_walks_only_pops_with_live_triangles(monkeypatch):
    """A pop at key 0 closes no live triangle, so the peel walks no map for it."""
    import trusslab.truss

    # A 40-leaf star with four chords: four triangles at the hub; most edges
    # pop at key 0, some of them only after their triangles are gone.
    pairs = [(0, leaf) for leaf in range(1, 41)] + [(1, 2), (3, 4), (5, 6), (2, 3)]
    random.Random(5).shuffle(pairs)
    g = build_graph(pairs)
    walks = []
    real = trusslab.truss._closing_edge_ids

    def counting(near, far):
        walks.append(1)
        return real(near, far)

    monkeypatch.setattr(trusslab.truss, "_closing_edge_ids", counting)
    supports = compute_supports(g)
    decomp, order = _peel_from_supports(g, supports)
    assert (decomp, order) == oracles.reference_peel_from_supports(g, supports)
    live_pops = sum(1 for s in order.forward_support if s > 0)
    assert 0 < live_pops < g.m
    assert len(walks) == live_pops


def _tree_with_triangles(n: int, chords: int, seed: int):
    """A random tree plus ``chords`` edges from a node to its grandparent,
    each closing one triangle; edge ids in shuffled order."""
    rng = random.Random(seed)
    parent = [0] + [rng.randrange(v) for v in range(1, n)]
    edges = [(parent[v], v) for v in range(1, n)]
    edges += [(parent[parent[v]], v) for v in rng.sample(range(2, n), chords)]
    rng.shuffle(edges)
    return build_graph(edges)


def _star_with_chords(leaves: int, chords: int, seed: int):
    rng = random.Random(seed)
    edges = [(0, leaf) for leaf in range(1, leaves + 1)]
    edges += [tuple(rng.sample(range(1, leaves + 1), 2)) for _ in range(chords)]
    rng.shuffle(edges)
    return build_graph(edges)


def _chung_lu_like(n: int, m: int, alpha: float, seed: int):
    """Both endpoints of each edge drawn with weight (node + 1) ** -alpha:
    a few hubs in many triangles, a long tail in none."""
    rng = random.Random(seed)
    nodes = range(n)
    weights = [(u + 1) ** -alpha for u in nodes]
    ends = rng.choices(nodes, weights, k=2 * m)
    return build_graph(zip(ends[::2], ends[1::2]))


def _zero_support_graphs():
    graphs = [_tree_with_triangles(40 + 10 * i, 3 + i, 1400 + i) for i in range(6)]
    graphs += [_star_with_chords(30 + 5 * i, 2 + 2 * i, 1500 + i) for i in range(6)]
    graphs += [bipartite_apex(side) for side in range(1, 7)]
    apex = list(bipartite_apex(4).edges())
    graphs.append(build_graph(apex + [(8, 9 + i) for i in range(10)] + [(9, 10), (10, 11)]))
    graphs += [_chung_lu_like(300, 900, 0.8, 1600 + i) for i in range(3)]
    return graphs


def test_peel_keeps_zero_support_edges_out_of_its_maps(monkeypatch):
    """Against the reference peel, on graphs where support 0 is common and
    supports also fall to 0 mid-peel.  Every walk sees exactly the maps of
    the unpopped edges of positive initial support, so an edge whose
    support fell to 0 and that stayed in the maps after its pop fails."""
    import trusslab.truss

    real = trusslab.truss._closing_edge_ids
    seen = []

    def snapshot(near, far):
        seen.append({frozenset(near.items()), frozenset(far.items())})
        return real(near, far)

    monkeypatch.setattr(trusslab.truss, "_closing_edge_ids", snapshot)
    zeros = fell_to_zero = 0
    for i, g in enumerate(_zero_support_graphs()):
        supports = compute_supports(g)
        seen.clear()
        decomp, order = _peel_from_supports(g, supports)
        assert (decomp, order) == oracles.reference_peel_from_supports(g, supports), i
        support = supports.support
        zeros += support.count(0)
        walks = iter(seen)
        popped = set()
        for eid, s in zip(order.order, order.forward_support):
            popped.add(eid)
            fell_to_zero += support[eid] > 0 and s == 0
            if not s:
                continue
            live = [
                frozenset((z, e) for z, e in g.neighbors(x).items()
                          if support[e] and e not in popped)
                for x in g.pair(eid)
            ]
            assert next(walks) == set(live), (i, eid)
        assert next(walks, None) is None, i
    assert zeros > 1000 and fell_to_zero > 100


def test_peel_copies_no_support_zero_edge():
    """On a 5000-leaf star with one triangle, a peel that copied every edge
    into its maps peaks at ~330 bytes per edge; one that leaves the support-0
    edges out stays under 200 (tracemalloc; it measures ~80)."""
    g = build_graph([(0, leaf) for leaf in range(1, 5001)] + [(1, 2)])
    supports = compute_supports(g)
    _, _, peak = traced_bytes(lambda: _peel_from_supports(g, supports))
    assert peak < 200 * g.m


# ------------------------------------------------- trussness-only peel ----


def test_edge_trussness_matches_ordered_peel_on_seeded_cells():
    """The level-synchronous peel against the (support, id) peel's t(e) on
    320 seeded G(n, p) cells, sparse to dense, ids shuffled in every other."""
    cells = 0
    for i in range(320):
        g = gnp_random_graph(5 + i % 31, (0.1, 0.25, 0.45, 0.7, 0.9)[i % 5], 1700 + i)
        if i % 2:
            pairs = list(g.edges())
            random.Random(i).shuffle(pairs)
            g = build_graph(pairs)
        assert edge_trussness(g) == truss_decomposition(g)[0], i
        cells += g.m > 0
    assert cells > 300


@settings(max_examples=60)
@given(small_graphs(max_nodes=9))
def test_edge_trussness_matches_ordered_peel(g):
    assert edge_trussness(g) == truss_decomposition(g)[0]


def _gadget_graphs():
    graphs = [ladder_gadget(x) for x in range(2, 9)]
    graphs += [bipartite_apex(side) for side in range(1, 8)]
    graphs.append(blowup(complete_graph(4), 3).materialize())
    graphs += [add_spurious_cliques(g, x).graph
               for g, x in ((gnp_random_graph(12, 0.5, 3), 2), (ladder_gadget(5), 3))]
    graphs += [complete_graph(3), build_graph([]), build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])]
    return graphs


def test_edge_trussness_matches_ordered_peel_on_gadgets():
    for i, g in enumerate(_gadget_graphs()):
        assert edge_trussness(g) == truss_decomposition(g)[0], i
    assert edge_trussness(complete_graph(3)) == TrussDecomposition([1, 1, 1], 1)
    assert edge_trussness(build_graph([])) == TrussDecomposition([], 0)
    assert edge_trussness(build_graph([(0, 1), (1, 2), (2, 0), (2, 3)])).trussness == 1


class _PairSpy(Graph):
    """The same graph, recording each edge id whose endpoints are read."""

    def __init__(self, g: Graph):
        super().__init__(g.n, g._adj, g._us, g._vs)
        self.read: list[int] = []

    def pair(self, eid):
        self.read.append(eid)
        return super().pair(eid)


def test_trussness_peel_pops_and_probes_no_support_zero_edge(monkeypatch):
    """Every edge of positive support is popped once, by reading its
    endpoints, and no edge of support 0 is popped or seen in a walked map;
    on graphs where support 0 is common, against the ordered peel."""
    import trusslab.truss

    real = trusslab.truss._closing_edge_ids
    walked: list[int] = []

    def spy(near, far):
        walked.extend(near.values())
        walked.extend(far.values())
        return real(near, far)

    monkeypatch.setattr(trusslab.truss, "_closing_edge_ids", spy)
    zeros = 0
    for i, g in enumerate(_zero_support_graphs()):
        supports = compute_supports(g)
        spied = _PairSpy(g)
        walked.clear()
        decomp = _trussness_from_supports(spied, supports)
        assert decomp == _peel_from_supports(g, supports)[0], i
        positive = [eid for eid, s in enumerate(supports.support) if s]
        assert sorted(spied.read) == positive, i
        assert all(supports.support[eid] for eid in walked), i
        zeros += g.m - len(positive)
    assert zeros > 1000


def test_trussness_peel_leaves_its_supports_unchanged():
    g = ladder_gadget(6)
    supports = compute_supports(g)
    before = list(supports.support)
    _trussness_from_supports(g, supports)
    assert supports.support == before


@settings(max_examples=60)
@given(small_graphs(max_nodes=9))
def test_trussness_bounded_by_density_and_degeneracy(g):
    decomp, _ = truss_decomposition(g)
    if g.m > 0:
        table = compute_supports(g)
        assert Fraction(table.triangle_count, g.m) <= decomp.trussness
    assert decomp.trussness <= degeneracy_order(g).degeneracy


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_nodes=6))
def test_trussness_matches_subset_oracle(g):
    if g.m > 16:
        return
    decomp, _ = truss_decomposition(g)
    assert decomp.edge_trussness == oracles.trussness_by_subsets(g)


# ------------------------------------------------------------- subgraphs ----


def test_max_truss_subgraph_figure_left(figure_left):
    clique_edges = {
        figure_left.edge_id(u, v)
        for u in range(4)
        for v in range(u + 1, 4)
    }
    assert max_truss_subgraph(figure_left, 2) == clique_edges


def test_max_truss_subgraph_k0_is_everything(figure_left):
    assert max_truss_subgraph(figure_left, 0) == set(range(figure_left.m))


def test_max_truss_subgraph_above_trussness_empty(figure_left):
    assert max_truss_subgraph(figure_left, FIGURE_LEFT_TRUSSNESS + 1) == set()


def test_max_truss_subgraph_k5_minus_edge_matches_fixed_point():
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)]
    g = build_graph(edges)
    assert max_truss_subgraph(g, 2) == oracles.fixed_point_truss_edges(g, 2)


@settings(max_examples=40)
@given(small_graphs(max_nodes=8))
def test_max_truss_subgraph_matches_fixed_point(g):
    t = trussness(g)
    for k in range(t + 2):
        assert max_truss_subgraph(g, k) == oracles.fixed_point_truss_edges(g, k)
    assert len(max_truss_subgraph(g, t)) > 0 or g.m == 0
    assert max_truss_subgraph(g, t + 1) == set()


# ------------------------------------------------- order-to-decomposition ----


def test_reduction_k3():
    g = complete_graph(3)
    got = decomposition_from_order(g, exact_order_oracle)
    assert got.edge_trussness == [1, 1, 1]


def test_reduction_figure_left(figure_left):
    got = decomposition_from_order(figure_left, exact_order_oracle)
    want, _ = truss_decomposition(figure_left)
    assert got == want


def test_reduction_seeded_random():
    """On a seeded G(n, p), and on graphs whose degeneracy is far above
    their trussness, so that the ladder reaches far past every blown edge
    and many of them come after an odd ladder value."""
    k77 = build_graph([(u, v) for u in range(7) for v in range(7, 14)])
    graphs = [gnp_random_graph(8, 0.6, 2024), bipartite_apex(6), k77,
              disjoint_union(k77, complete_graph(4)), ladder_gadget(3), ladder_gadget(7),
              blowup(complete_graph(4), 2).materialize(), blowup(bipartite_apex(3), 2).materialize(),
              *(g for _, g in gadget_graphs())]
    for g in graphs:
        assert decomposition_from_order(g, exact_order_oracle) == truss_decomposition(g)[0]


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_nodes=7))
def test_reduction_matches_direct_peeling(g):
    got = decomposition_from_order(g, exact_order_oracle)
    want, _ = truss_decomposition(g)
    assert got == want


def test_reduction_builds_its_union_once(monkeypatch):
    """The 2-fold blow-up streams into the union's one ``build_graph`` call,
    the only build besides the ladder's; with ``MATERIALIZE_CAP`` one below
    the 4m blown edges the reduction stops before it builds anything or
    calls the oracle."""
    g = gnp_random_graph(30, 0.2, 1)
    ladder_m = (2 * degeneracy_order(g).degeneracy + 2) ** 2
    assert ladder_m <= 4 * g.m
    built = []

    def spy(*args, **kwargs):
        built.append(build_graph(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(gadgets, "build_graph", spy)
    monkeypatch.setattr(gadgets, "MATERIALIZE_CAP", 4 * g.m)
    assert decomposition_from_order(g, exact_order_oracle) == truss_decomposition(g)[0]
    assert [h.m for h in built] == [ladder_m, 4 * g.m + ladder_m]
    built.clear()
    monkeypatch.setattr(gadgets, "MATERIALIZE_CAP", 4 * g.m - 1)
    called = []
    with pytest.raises(ValueError) as err:
        decomposition_from_order(g, called.append)
    assert str(err.value) == (f"the order reduction's 2-fold blow-up would have {4 * g.m}"
                              f" edges, above the edge cap {4 * g.m - 1}")
    assert built == [] and called == []


def test_the_ladder_is_never_peeled(capsys, monkeypatch):
    """The ladder's trussness is known in closed form
    (``gadgets.ladder_trussness``): neither the reduction nor ``gadget
    ladder`` hands the ladder to ``edge_trussness`` or ``compute_supports``,
    while the oracle still peels the union."""
    import trusslab.cli as cli
    import trusslab.truss as truss

    ladders, peeled = [], []

    def build(x):
        ladders.append(ladder_gadget(x))
        return ladders[-1]

    def spy(real):
        def call(g, *args, **kwargs):
            peeled.append(g)
            return real(g, *args, **kwargs)
        return call

    for module in (truss, cli):
        monkeypatch.setattr(module, "ladder_gadget", build)
        for name in ("edge_trussness", "compute_supports"):
            monkeypatch.setattr(module, name, spy(getattr(module, name)))
    g = gnp_random_graph(12, 0.5, 3)
    assert decomposition_from_order(g, exact_order_oracle) == truss_decomposition(g)[0]
    assert cli.main(["gadget", "ladder", "-x", "6"]) == 0
    assert len(ladders) == 2 and peeled
    assert not [h for h in peeled if any(h is ladder for ladder in ladders)]


def test_reduction_rejects_invalid_oracle():
    g = complete_graph(4)

    def bad_oracle(h):
        order = truss_decomposition(h)[1].order
        return list(reversed(order))

    with pytest.raises(ValueError):
        decomposition_from_order(g, bad_oracle)
