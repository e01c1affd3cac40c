"""Graph constructions used by the estimators and the order-to-decomposition
reduction: balanced blow-ups, spurious-clique augmentation, ladder gadgets,
disjoint unions, and the bipartite-plus-apex family."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterator

from .graph import Graph, build_graph

# Edge cap of the estimator's working graph, of the order reduction's
# blow-up, of ``BlowupView.materialize``, ``complete_graph``,
# ``gnp_random_graph``, ``ladder_gadget`` and ``bipartite_apex``: each reads
# it at call time and refuses a graph above it before building any of it.
MATERIALIZE_CAP = 10_000_000


def complete_graph(k: int) -> Graph:
    """K_k; its k(k-1)/2 edges are held to ``MATERIALIZE_CAP`` before any
    is built."""
    if k < 1:
        raise ValueError("complete_graph needs at least one node")
    _check_edge_cap(f"complete_graph k={k}", k * (k - 1) // 2)
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

    def materialize(self) -> Graph:
        """The explicit graph; its m edges are held to ``MATERIALIZE_CAP``
        before any is built."""
        _check_edge_cap(f"blow-up q={self.q}", self.m)
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


def augmented_sizes(n: int, m: int, k: int, x: int) -> tuple[int, int, int]:
    """n, m and k of a graph after adding round x's marker cliques, where k
    counts triangles or forward wedges: every wedge of a clique closes, so
    each (x+2)-clique adds C(x+2, 3) of both."""
    count = spurious_clique_budget(m, x)
    size = x + 2
    return n + count * size, m + count * math.comb(size, 2), k + count * math.comb(size, 3)


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
    size = x + 2
    end = g.n + count * size
    cliques = (combinations(range(first, first + size), 2) for first in range(g.n, end, size))
    # streamed: g's edges keep their ids, and no list of every edge is made
    combined = build_graph(chain(g.edges(), chain.from_iterable(cliques)), node_count=end)
    flags = [eid >= g.m for eid in range(combined.m)]
    return AugmentedGraph(combined, count, flags)


def disjoint_union(a: Graph | BlowupView, b: Graph) -> Graph:
    """Union with b's node ids shifted past a's; a's edge ids come first.

    ``a`` may be a ``BlowupView``: its edges stream into the one build of
    the union, so the blow-up is never built on its own.
    """
    shift = a.n
    edges = chain(a.edges(), ((u + shift, v + shift) for u, v in b.edges()))
    return build_graph(edges, node_count=a.n + b.n)


def _check_edge_cap(name: str, m: int) -> None:
    """Refuse a graph of m edges above ``MATERIALIZE_CAP``, read at call time."""
    if m > MATERIALIZE_CAP:
        raise ValueError(f"{name} would have {m} edges, above the edge cap {MATERIALIZE_CAP}")


def ladder_gadget(x: int) -> Graph:
    """K_x plus x pendant nodes of increasing attachment degree.

    Pendant i (1-based) is adjacent to clique nodes 0..i-1, so its edges have
    trussness exactly i-1.  Pendant x closes K_x into K_{x+1}, so the clique
    edges have trussness x-1, and the gadget realizes every trussness value
    in {0, ..., x-1} (``ladder_trussness``).  Used as a calibrated ruler of
    known trussness values when decoding a truss order.  Its x^2 edges are
    held to ``MATERIALIZE_CAP`` before any is built.
    """
    if x < 1:
        raise ValueError("ladder parameter must be >= 1")
    _check_edge_cap(f"ladder gadget x={x}", x * x)
    pendants = ((c, x + i - 1) for i in range(1, x + 1) for c in range(i))
    return build_graph(chain(combinations(range(x), 2), pendants), node_count=2 * x)


def ladder_trussness(x: int) -> list[int]:
    """Trussness of each edge of ``ladder_gadget(x)``, by edge id, in closed
    form: x-1 on the C(x, 2) clique edges, then i-1 on the i edges of each
    pendant i."""
    return [x - 1] * (x * (x - 1) // 2) + [i - 1 for i in range(1, x + 1) for _ in range(i)]


def bipartite_apex(side: int) -> Graph:
    """Complete bipartite K_{side,side} plus an apex adjacent to everything.

    Triangle-rich (side^2 triangles through the apex) yet trussness 1: every
    non-apex edge lies in exactly one triangle.  Its side^2 + 2*side edges
    are held to ``MATERIALIZE_CAP`` before any is built.
    """
    if side < 1:
        raise ValueError("side must be >= 1")
    _check_edge_cap(f"bipartite-apex gadget side={side}", side * side + 2 * side)
    apex = 2 * side
    spokes = ((u, apex) for u in range(apex))
    return build_graph(chain(product(range(side), range(side, apex)), spokes), node_count=apex + 1)
