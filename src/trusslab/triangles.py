"""Triangle counting, listing, and per-edge support.

Triangles are listed by one walk over the forward wedges of the degeneracy
order (Chiba & Nishizeki 1985): a triangle's earliest node sees the other
two among its later neighbors, so it closes exactly one of them.  That
order fixes the listing order and the sampler's wedge serials.  Supports
need no order: an edge's support is the number of common neighbors of its
endpoints, one C-level set intersection per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graph import Graph, degeneracy_order

# (node, its later neighbors ascending by position, ids of the edges to them)
ForwardRow = tuple[int, list[int], list[int]]


@dataclass(frozen=True)
class SupportTable:
    """Per-edge triangle counts.  The supports of all edges sum to 3*T."""

    support: list[int]
    triangle_count: int


@dataclass(frozen=True, order=True)
class Triangle:
    """A triangle in canonical form: node ids and edge ids both ascending."""

    nodes: tuple[int, int, int]
    edges: tuple[int, int, int]


def sorted3(x: int, y: int, z: int) -> tuple[int, int, int]:
    if x > y:
        x, y = y, x
    if y > z:
        y, z = z, y
        if x > y:
            x, y = y, x
    return (x, y, z)


def make_triangle(a: int, b: int, c: int, ab: int, ac: int, bc: int) -> Triangle:
    """Canonical triangle from its nodes and the ids of its three edges."""
    return Triangle(sorted3(a, b, c), sorted3(ab, ac, bc))


def forward_rows(g: Graph, order: Sequence[int], pos: Sequence[int]) -> Iterator[ForwardRow]:
    """Each node in ``order`` with its later neighbors and their edge ids;
    ``pos[u]`` is the index of u in ``order``.  Nodes with fewer than two
    later neighbors center no wedge and are skipped."""
    for u in order:
        ids = g.neighbors(u)
        pu = pos[u]
        later = [v for v in ids if pos[v] > pu]
        if len(later) > 1:
            later.sort(key=pos.__getitem__)
            yield u, later, [ids[v] for v in later]


def forward_triangles(
    g: Graph, rows: Iterable[ForwardRow] | None = None
) -> Iterator[tuple[int, int, int, int, int, int]]:
    """Every triangle once, as (u, a, b, id(u,a), id(u,b), id(a,b)).

    Walks the wedges a-u-b of each row, pairs in index order, and keeps the
    closed ones; ``rows`` defaults to ``forward_rows`` in degeneracy order.
    """
    if rows is None:
        info = degeneracy_order(g)
        rows = forward_rows(g, info.order, info.positions)
    adj = g.neighbors
    for u, later, ids in rows:
        for i in range(len(later) - 1):
            a = later[i]
            ua = ids[i]
            closing = adj(a).get
            for b, ub in zip(later[i + 1 :], ids[i + 1 :]):
                ab = closing(b)
                if ab is not None:
                    yield u, a, b, ua, ub, ab


def _neighbor_sets(g: Graph) -> list[set[int]]:
    """One set of neighbors per node; isolated nodes, which end no edge,
    share one empty set."""
    none: set[int] = set()
    return [set(ids) if ids else none for ids in map(g.neighbors, range(g.n))]


def _common_neighbor_counts(nbrs: list[set[int]], pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Number of common neighbors of each pair (u, v): its support."""
    return [len(nbrs[u] & nbrs[v]) for u, v in pairs]


def compute_supports(g: Graph) -> SupportTable:
    """Exact support of every edge: the common neighbors of its endpoints,
    each counted by one set intersection in C that walks the smaller set.
    Every triangle is counted at each of its three edges."""
    support = _common_neighbor_counts(_neighbor_sets(g), g.edges())
    return SupportTable(support, sum(support) // 3)


def list_triangles(g: Graph, sink: Optional[Callable[[Triangle], None]] = None) -> int:
    """Emit each triangle exactly once in canonical form; return the count.

    Triangles arrive in the forward-wedge order of the degeneracy order,
    each at its earliest-ordered node.
    """
    count = 0
    for walked in forward_triangles(g):
        count += 1
        if sink is not None:
            sink(make_triangle(*walked))
    return count


def triangle_of_wedge(g: Graph, center: int, a: int, b: int) -> Triangle | None:
    """The triangle closing the wedge a-center-b, or None if {a,b} is absent."""
    if a == b:
        raise ValueError("wedge endpoints must be distinct")
    if not g.has_edge(center, a) or not g.has_edge(center, b):
        raise ValueError(f"({a}, {b}) are not both neighbors of {center}")
    if not g.has_edge(a, b):
        return None
    return make_triangle(center, a, b, g.edge_id(center, a), g.edge_id(center, b), g.edge_id(a, b))
