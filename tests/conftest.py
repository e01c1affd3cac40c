"""Shared fixtures: reference graphs and the acceptance corpus."""

from __future__ import annotations

import io
import math
import tracemalloc
from typing import Callable, Sequence

import pytest

from trusslab.gadgets import (
    add_spurious_cliques,
    bipartite_apex,
    blowup,
    complete_graph,
    disjoint_union,
    ladder_gadget,
)
from trusslab.graph import Graph, build_graph
from trusslab.io import write_edge_list
from trusslab.sampling import _skip_pass, gnp_random_graph

# Reference graph with a 4-clique nested in a larger triangle-connected
# region nested in a 2-core: trussness 2, degeneracy 3.  Nodes 0-3 form the
# clique, node 4 closes one extra triangle with 1 and 2, nodes 5-6 hang on a
# chordless cycle so the whole graph is a 2-core but nothing beats the clique.
FIGURE_LEFT_EDGES = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (1, 4), (2, 4),
    (4, 5), (5, 6), (6, 0),
]

FIGURE_LEFT_TRUSSNESS = 2
FIGURE_RIGHT_SIDE = 4
FIGURE_RIGHT_TRUSSNESS = 1
FIGURE_RIGHT_TRIANGLES = 16


def figure_left_graph() -> Graph:
    return build_graph(FIGURE_LEFT_EDGES)


@pytest.fixture
def figure_left() -> Graph:
    return figure_left_graph()


@pytest.fixture
def figure_right() -> Graph:
    return bipartite_apex(FIGURE_RIGHT_SIDE)


def edge_list_text(g: Graph, spurious: Sequence[bool] | None = None) -> str:
    """The edge-list file text of ``g``, as ``write_edge_list`` writes it."""
    buf = io.StringIO()
    write_edge_list(buf, g, spurious)
    return buf.getvalue()


def traced_bytes(call: Callable) -> tuple[object, int, int]:
    """``call()``'s result with the bytes it left allocated and its peak
    bytes, both over what was allocated before it (tracemalloc).  Tracing
    is stopped afterwards unless it was already on."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, current - before, peak - before


def marker_pass(rounds, x: int, p: float, rng) -> tuple[object, list[int]]:
    """One skip pass of marker round x (``_skip_pass`` with the round's
    block): the working graph's kept hyperedges and the sampled degree of
    each marker edge, indexed by edge id - m."""
    block = rounds.block(x)
    marks = [0] * (block.count * math.comb(block.size, 2))
    return _skip_pass(rounds.graph, rounds.rows, p, rng, block, marks), marks


def random_corpus(count: int, max_n: int, p_grid, base_seed: int):
    """Deterministic list of (name, graph) Erdos-Renyi instances."""
    out = []
    for i in range(count):
        n = 4 + (i % (max_n - 3))
        p = p_grid[i % len(p_grid)]
        seed = base_seed + i
        out.append((f"gnp_n{n}_p{p}_s{seed}", gnp_random_graph(n, p, seed)))
    return out


def gadget_graphs() -> list[tuple[str, Graph]]:
    """Outputs of every gadget generator, kept at trussness <= 3 so the
    deterministic estimator regime can certify them exactly."""
    return [
        ("figure_left", figure_left_graph()),
        ("bipartite_apex_3", bipartite_apex(3)),
        ("bipartite_apex_4", bipartite_apex(FIGURE_RIGHT_SIDE)),
        ("ladder_2", ladder_gadget(2)),
        ("ladder_4", ladder_gadget(4)),
        ("blowup_k3_q2", blowup(complete_graph(3), 2).materialize()),
        ("blowup_k3_q3", blowup(complete_graph(3), 3).materialize()),
        ("union_k4_k5", disjoint_union(complete_graph(4), complete_graph(5))),
        ("spurious_k4_x2", add_spurious_cliques(complete_graph(4), 2).graph),
        ("spurious_k3_x3", add_spurious_cliques(complete_graph(3), 3).graph),
    ]


def acceptance_corpus() -> list[tuple[str, Graph]]:
    """Named graphs every deterministic acceptance property runs over."""
    graphs: list[tuple[str, Graph]] = [
        ("k3", complete_graph(3)),
        ("k4", complete_graph(4)),
        ("k5", complete_graph(5)),
        ("k6", complete_graph(6)),
        ("k7", complete_graph(7)),
        ("path_5", build_graph([(i, i + 1) for i in range(4)])),
        ("k33", build_graph([(u, v + 3) for u in range(3) for v in range(3)])),
        ("ladder_5", ladder_gadget(5)),
        ("blowup_figure_left_q2", blowup(figure_left_graph(), 2).materialize()),
        ("union_k3_k3", disjoint_union(complete_graph(3), complete_graph(3))),
    ]
    graphs.extend(gadget_graphs())
    graphs.extend(random_corpus(20, 10, (0.2, 0.35, 0.5, 0.65), base_seed=500))
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return acceptance_corpus()
