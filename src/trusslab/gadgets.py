"""Graph constructions used by the estimators and the order-to-decomposition
reduction: balanced blow-ups, spurious-clique augmentation, ladder gadgets,
disjoint unions, and the bipartite-plus-apex family."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graph import Graph, build_graph


def complete_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError("complete_graph needs at least one node")
    return build_graph(combinations(range(k), 2), node_count=k)


class BlowupView:
    """Balanced q-fold blow-up of a base graph; ``materialize`` builds it.

    Copy ``i`` of base node ``u`` is node ``u*q + i`` (0 <= i < q), and two
    copies are adjacent iff their base nodes are.  Edge ``base_id*q^2 +
    i*q + j`` of the built graph joins copy i of the base edge's lower end
    to copy j of its upper end, so ``eid // q^2`` names the base edge.

    Blowing up multiplies trussness by q and the triangle count by q^3.
    """

    __slots__ = ("base", "q", "n", "m")

    def __init__(self, base: Graph, q: int):
        if q < 1:
            raise ValueError("blow-up multiplicity must be >= 1")
        self.base = base
        self.q = q
        self.n = base.n * q
        self.m = base.m * q * q

    def edges(self) -> Iterator[tuple[int, int]]:
        q = self.q
        for u, v in self.base.edges():
            for i in range(q):
                a = u * q + i
                for j in range(q):
                    yield (a, v * q + j)

    def materialize(self, max_edges: int = 10_000_000) -> Graph:
        """The explicit graph; refuses one of more than ``max_edges`` edges."""
        if self.m > max_edges:
            raise ValueError(f"refusing to materialize {self.m} edges (cap {max_edges})")
        return build_graph(self.edges(), node_count=self.n)


def blowup(g: Graph, q: int) -> BlowupView:
    return BlowupView(g, q)


@dataclass(frozen=True)
class AugmentedGraph:
    """A graph together with appended disjoint marker cliques.

    ``graph`` holds the base edges first (ids unchanged) followed by the
    edges of ``spurious_clique_count`` disjoint (x+2)-cliques on fresh nodes;
    ``is_spurious`` flags the latter.  Every spurious edge has trussness
    exactly x inside its own clique, which is what makes them usable as
    position markers in a truss order.
    """

    graph: Graph
    spurious_clique_count: int
    is_spurious: list[bool]


def spurious_clique_budget(m: int, x: int) -> int:
    """Number of disjoint (x+2)-cliques matched to an m-edge graph."""
    return -(-m // math.comb(x + 2, 2))


def add_spurious_cliques(g: Graph, x: int) -> AugmentedGraph:
    """Append ceil(m / C(x+2,2)) disjoint (x+2)-cliques to g.

    Keeps the total size linear in m, which requires x = O(sqrt(m)); sizes
    beyond ceil(2*sqrt(m)) are rejected.
    """
    if x < 0:
        raise ValueError("clique parameter x must be >= 0")
    limit = math.ceil(2 * math.sqrt(g.m))
    if x > limit:
        raise ValueError(f"x={x} exceeds the sparsity cap {limit} for m={g.m}")
    count = spurious_clique_budget(g.m, x) if g.m > 0 else 0
    edges = list(g.edges())
    base_m = len(edges)
    size = x + 2
    for c in range(count):
        first = g.n + c * size
        members = range(first, first + size)
        edges.extend(combinations(members, 2))
    combined = build_graph(edges, node_count=g.n + count * size)
    flags = [eid >= base_m for eid in range(combined.m)]
    return AugmentedGraph(combined, count, flags)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Union with b's node ids shifted past a's; a's edge ids come first."""
    shift = a.n
    edges = list(a.edges())
    edges.extend((u + shift, v + shift) for u, v in b.edges())
    return build_graph(edges, node_count=a.n + b.n)


def ladder_gadget(x: int) -> Graph:
    """K_x plus x pendant nodes of increasing attachment degree.

    Pendant i (1-based) is adjacent to clique nodes 0..i-1, so its edges have
    trussness exactly i-1; together with the clique edges the gadget realizes
    every trussness value in {0, ..., x-1}.  Used as a calibrated ruler of
    known trussness values when decoding a truss order.
    """
    if x < 1:
        raise ValueError("ladder parameter must be >= 1")
    edges = list(combinations(range(x), 2))
    for i in range(1, x + 1):
        pendant = x + i - 1
        edges.extend((c, pendant) for c in range(i))
    return build_graph(edges, node_count=2 * x)


def bipartite_apex(side: int) -> Graph:
    """Complete bipartite K_{side,side} plus an apex adjacent to everything.

    Triangle-rich (side^2 triangles through the apex) yet trussness 1: every
    non-apex edge lies in exactly one triangle.
    """
    if side < 1:
        raise ValueError("side must be >= 1")
    left = range(side)
    right = range(side, 2 * side)
    apex = 2 * side
    edges = [(u, v) for u in left for v in right]
    edges.extend((u, apex) for u in range(2 * side))
    return build_graph(edges, node_count=2 * side + 1)
