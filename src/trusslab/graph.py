"""Immutable simple-graph core: construction, navigation, degeneracy peeling."""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

# Node ids must be below this: every id up to the largest is a node with its
# own neighbor map, so a single edge line with a huge id would otherwise
# allocate maps until memory runs out.
NODE_ID_LIMIT = 10_000_000


class Graph:
    """Undirected simple graph with dense edge identifiers.

    Nodes are ``0..n-1``; edge ids are ``0..m-1`` in first-appearance order of
    the (deduplicated) input edge list.  Each node keeps one map from
    neighbor to edge id, iterated in ascending edge-id order, so a single
    lookup both tests an edge and names it.  Each node id is one shared
    ``int`` object wherever it occurs as a map key.  Edge ``eid`` is
    ``(us[eid], vs[eid])`` with ``us[eid] < vs[eid]``, two ``array('i')``
    columns of 4 bytes per endpoint.  A built graph holds ~136 bytes per
    edge on 64-bit CPython 3.11 (tracemalloc, G(4000, 0.0025)), nearly all
    of it in the neighbor maps; of the exact pipeline's phases only the peel
    copies them, for its edges on a triangle.  Graphs are built by
    ``build_graph``; instances are immutable after construction and safe
    to share across threads.
    """

    __slots__ = ("n", "m", "_adj", "_us", "_vs")

    def __init__(self, n: int, adj: list[dict[int, int]], us: array, vs: array):
        self.n = n
        self.m = len(us)
        self._adj = adj
        self._us = us
        self._vs = vs

    def nodes(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        return zip(self._us, self._vs)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def neighbors(self, u: int) -> dict[int, int]:
        """Neighbor -> edge id, ascending by edge id; do not mutate."""
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def pair(self, eid: int) -> tuple[int, int]:
        return self._us[eid], self._vs[eid]

    def edge_id(self, u: int, v: int) -> int:
        """Dense id of edge {u, v}; raises KeyError if absent."""
        if 0 <= u < self.n:
            return self._adj[u][v]
        raise KeyError((u, v))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(edges: Iterable[tuple[int, int]], node_count: int | None = None) -> Graph:
    """Build a simple graph from an edge list in one pass.

    Duplicate edges and self-loops are silently dropped: an edge is new iff
    it is missing from its smaller endpoint's map, so the maps dedupe and
    edge ids follow the first appearance of each surviving edge.  Each map
    thus fills in ascending edge-id order.  ``node_count`` may enlarge the
    node universe beyond ``max(endpoint) + 1`` (isolated nodes are permitted
    but never created implicitly); an endpoint at or past it is rejected.
    Node ids and ``node_count`` are bounded by ``NODE_ID_LIMIT``, checked
    before any map is allocated for them.

    The endpoints of each new edge are swapped for the graph's own ``int``
    of that node before they key a map, so a node id above CPython's small
    int cache costs one object per node, not one per occurrence.
    """
    if node_count is not None:
        if node_count < 0:
            raise ValueError(f"negative node_count {node_count}")
        if node_count > NODE_ID_LIMIT:
            raise ValueError(f"node_count {node_count} above the node-id limit {NODE_ID_LIMIT}")
    adj: list[dict[int, int]] = [{} for _ in range(node_count or 0)]
    n = len(adj)
    node = list(range(n))
    us, vs = array("i"), array("i")
    for u, v in edges:
        if u < 0 or v < 0:
            raise ValueError(f"negative node id in edge ({u}, {v})")
        if u > v:
            u, v = v, u
        if v >= n:
            if node_count is not None:
                raise ValueError(f"node id {v} not below node_count {node_count}")
            if v >= NODE_ID_LIMIT:
                raise ValueError(f"node id {v} not below the node-id limit {NODE_ID_LIMIT}")
            adj.extend([{} for _ in range(v + 1 - n)])
            node.extend(range(n, v + 1))
            n = v + 1
        nbrs = adj[u]
        if u != v and v not in nbrs:
            u, v = node[u], node[v]
            nbrs[v] = adj[v][u] = len(us)
            us.append(u)
            vs.append(v)
    return Graph(n, adj, us, vs)


def ordered_peel(
    keys: Iterable[int], removed: Callable[[int, int], Iterable[int]]
) -> tuple[list[int], list[int]]:
    """Pop every item by smallest (key, id); return the items in pop order
    and the key each had when popped.

    Item ids are the positions of ``keys``, which must be non-negative.
    After each pop, ``removed(item, key)`` names what the pop takes away:
    each live item it returns has its key lowered by one per occurrence,
    and items already popped are skipped.  A key driven below 0 raises
    ValueError.  This is the one loop of every peel that fixes a pop order:
    ``degeneracy_order``, the ordered truss peel and the hypergraph peel.

    Keys only move down, one unit at a time, so each key has a lazy heap of
    item ids: a key change costs one push, and an entry whose item has
    since moved or been popped is discarded when it surfaces.  A popped
    item's key becomes -1, which no heap holds, so one comparison tells a
    live entry from a stale one.  The scan cursor resumes at the key of the
    last pop and is pulled back whenever a decrement dips below it.
    """
    key = list(keys)
    buckets: dict[int, list[int]] = {}
    # Items go in by ascending id, so every bucket starts as a heap.
    for item, k in enumerate(key):
        if k < 0:
            raise ValueError("peel keys must be non-negative")
        buckets.setdefault(k, []).append(item)
    heappop, heappush = heapq.heappop, heapq.heappush
    order: list[int] = []
    popped_keys: list[int] = []
    append_item, append_key = order.append, popped_keys.append
    cur = 0
    for _ in range(len(key)):
        heap = buckets.get(cur)
        while True:
            if not heap:
                buckets.pop(cur, None)
                cur += 1
                heap = buckets.get(cur)
                continue
            item = heappop(heap)
            if key[item] == cur:
                break
            # stale entry: the item was popped or its key has moved down
        key[item] = -1
        append_item(item)
        append_key(cur)
        for other in removed(item, cur):
            k = key[other] - 1
            if k < 0:
                if k == -2:  # popped
                    continue
                raise ValueError(f"key of item {other} would become negative")
            key[other] = k
            heap = buckets.get(k)
            if heap is None:
                buckets[k] = [other]
            else:
                heappush(heap, other)
            if k < cur:
                cur = k
    return order, popped_keys


@dataclass(frozen=True)
class DegeneracyInfo:
    """Min-degree peeling order of the nodes.

    ``forward_degrees[u]`` is the residual degree of ``u`` at its removal,
    which equals the number of its neighbors placed later in ``order``.  The
    degeneracy is the maximum forward degree.
    """

    order: list[int]
    degeneracy: int
    forward_degrees: list[int]
    positions: list[int]


def degeneracy_order(g: Graph) -> DegeneracyInfo:
    """Peel nodes by minimum residual degree, ties by smallest node id."""
    adj = g._adj
    order, degrees = ordered_peel(map(len, adj), lambda u, _: adj[u])
    forward = [0] * g.n
    positions = [0] * g.n
    for rank, (u, d) in enumerate(zip(order, degrees)):
        forward[u] = d
        positions[u] = rank
    return DegeneracyInfo(order, max(degrees, default=0), forward, positions)


def forward_wedge_count(g: Graph, info: DegeneracyInfo) -> int:
    """Number of wedges whose center precedes both endpoints in the order.

    Each forward degree d contributes d*(d-1)/2 wedges; every triangle of the
    graph corresponds to exactly one (closed) forward wedge.
    """
    return sum(d * (d - 1) // 2 for d in info.forward_degrees)
