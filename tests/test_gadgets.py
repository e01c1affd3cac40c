import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from test_graph import small_graphs
from trusslab.gadgets import (
    add_spurious_cliques,
    bipartite_apex,
    blowup,
    complete_graph,
    disjoint_union,
    ladder_gadget,
    spurious_clique_budget,
)
from trusslab.graph import build_graph
from trusslab.sampling import gnp_random_graph
from trusslab.triangles import compute_supports, list_triangles
from trusslab.truss import truss_decomposition, trussness


# ---------------------------------------------------------------- blowup ----


def test_blowup_k3_q2():
    view = blowup(complete_graph(3), 2)
    assert (view.n, view.m) == (6, 12)
    mat = view.materialize()
    assert len(list_triangles(mat)) == 8
    assert trussness(mat) == 2


def test_blowup_identity_for_q1():
    g = gnp_random_graph(7, 0.4, 5)
    mat = blowup(g, 1).materialize()
    assert list(mat.edges()) == list(g.edges())
    assert mat.n == g.n


def test_blowup_rejects_zero():
    with pytest.raises(ValueError):
        blowup(complete_graph(3), 0)


def test_blowup_figure_left_doubles_trussness(figure_left):
    mat = blowup(figure_left, 2).materialize()
    assert trussness(mat) == 4


def test_blowup_materialize_cap():
    with pytest.raises(ValueError):
        blowup(complete_graph(4), 3).materialize(max_edges=10)


@settings(max_examples=30)
@given(small_graphs(max_nodes=6))
def test_blowup_view_matches_materialized(g):
    q = 3
    view = blowup(g, q)
    mat = view.materialize()
    assert view.n == mat.n and view.m == mat.m
    assert sorted(view.edges()) == sorted(mat.edges())


@pytest.mark.parametrize("q", [1, 2, 3])
def test_blowup_edge_id_layout(q):
    """Edge base_id*q^2 + i*q + j joins copy i of the base edge's lower end
    to copy j of its upper end; ``decomposition_from_order`` decodes it."""
    for seed in range(3):
        base = gnp_random_graph(8, 0.5, 40 + seed)
        mat = blowup(base, q).materialize()
        assert mat.m == base.m * q * q
        for eid, pair in enumerate(mat.edges()):
            u, v = base.pair(eid // (q * q))
            i, j = divmod(eid % (q * q), q)
            assert pair == (u * q + i, v * q + j)


def test_blowup_amplification_sample():
    for seed in range(8):
        g = gnp_random_graph(6 + seed % 3, 0.5, 90 + seed)
        t = trussness(g)
        tri = compute_supports(g).triangle_count
        for q in (2, 3):
            mat = blowup(g, q).materialize()
            assert trussness(mat) == q * t
            assert compute_supports(mat).triangle_count == q**3 * tri


# -------------------------------------------------------------- spurious ----


def test_spurious_k3_x1():
    aug = add_spurious_cliques(complete_graph(3), 1)
    assert aug.spurious_clique_count == 1
    assert aug.graph.m == 6
    assert aug.is_spurious == [False] * 3 + [True] * 3


def test_spurious_budget_m10_x2():
    assert spurious_clique_budget(10, 2) == 2
    g = gnp_random_graph(6, 0.9, 0)
    assert g.m >= 10
    aug = add_spurious_cliques(build_graph(list(g.edges())[:10]), 2)
    assert aug.spurious_clique_count == 2
    assert aug.graph.m == 10 + 2 * 6


def test_spurious_x0_adds_single_edges():
    base = complete_graph(3)
    aug = add_spurious_cliques(base, 0)
    assert aug.spurious_clique_count == 3
    assert aug.graph.m == 6
    decomp, _ = truss_decomposition(aug.graph)
    for eid, flag in enumerate(aug.is_spurious):
        if flag:
            assert decomp.edge_trussness[eid] == 0


def test_spurious_rejects_oversized_x():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        add_spurious_cliques(g, math.ceil(2 * math.sqrt(g.m)) + 1)


def test_spurious_edges_have_trussness_x():
    base = bipartite_apex(3)
    for x in (1, 2, 3):
        aug = add_spurious_cliques(base, x)
        decomp, _ = truss_decomposition(aug.graph)
        spurious_values = {
            decomp.edge_trussness[eid]
            for eid, flag in enumerate(aug.is_spurious)
            if flag
        }
        assert spurious_values == {x}


def test_spurious_density_bound():
    for name_g in (complete_graph(5), bipartite_apex(4), gnp_random_graph(8, 0.5, 3)):
        t = trussness(name_g)
        for x in range(0, math.ceil(2 * math.sqrt(name_g.m)) + 1):
            aug = add_spurious_cliques(name_g, x)
            tri = compute_supports(aug.graph).triangle_count
            density = Fraction(tri, aug.graph.m)
            bound = min(
                Fraction(t, 2) + Fraction(x, 3),
                max(Fraction(t), Fraction(x, 3)),
            )
            assert density <= bound


# ----------------------------------------------------------------- union ----


def test_union_of_triangles():
    u = disjoint_union(complete_graph(3), complete_graph(3))
    assert (u.n, u.m) == (6, 6)
    assert trussness(u) == 1


def test_union_with_empty_is_identity():
    g = gnp_random_graph(6, 0.5, 1)
    u = disjoint_union(build_graph([]), g)
    assert list(u.edges()) == list(g.edges())


def test_union_trussness_is_max_of_parts():
    u = disjoint_union(complete_graph(4), complete_graph(5))
    assert trussness(u) == 3


# ---------------------------------------------------------------- ladder ----


def test_ladder_x1_all_zero():
    decomp, _ = truss_decomposition(ladder_gadget(1))
    assert set(decomp.edge_trussness) == {0}


def test_ladder_x2_values():
    g = ladder_gadget(2)
    assert g.n == 4
    decomp, _ = truss_decomposition(g)
    assert set(decomp.edge_trussness) == {0, 1}


@pytest.mark.parametrize("x", [3, 5, 8])
def test_ladder_realizes_full_value_range(x):
    g = ladder_gadget(x)
    assert g.n == 2 * x
    decomp, _ = truss_decomposition(g)
    assert set(decomp.edge_trussness) == set(range(x))


def test_ladder_pendant_edge_trussness():
    x = 5
    g = ladder_gadget(x)
    decomp, _ = truss_decomposition(g)
    for i in range(1, x + 1):
        pendant = x + i - 1
        for c in range(i):
            assert decomp.edge_trussness[g.edge_id(c, pendant)] == i - 1


# ---------------------------------------------------------------- apex ----


def test_apex_side1_is_triangle():
    g = bipartite_apex(1)
    assert (g.n, g.m) == (3, 3)
    assert trussness(g) == 1


def test_apex_side3_supports():
    g = bipartite_apex(3)
    table = compute_supports(g)
    apex = 6
    for eid, (u, v) in enumerate(g.edges()):
        if apex not in (u, v):
            assert table.support[eid] == 1


def test_apex_side4(figure_right):
    assert trussness(figure_right) == 1
    assert compute_supports(figure_right).triangle_count == 16
