"""Immutable simple-graph core: construction, navigation, degeneracy peeling."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator


class Graph:
    """Undirected simple graph with dense edge identifiers.

    Nodes are ``0..n-1``; edge ids are ``0..m-1`` in first-appearance order of
    the (deduplicated) input edge list.  Each node keeps one map from
    neighbor to edge id, iterated in ascending edge-id order, so a single
    lookup both tests an edge and names it.  Each node id is one shared
    ``int`` object wherever it occurs, in the edge pairs and as a map key.
    Graphs are built by ``build_graph``; instances are immutable after
    construction and safe to share across threads.
    """

    __slots__ = ("n", "m", "_adj", "_pairs")

    def __init__(self, n: int, adj: list[dict[int, int]], pairs: list[tuple[int, int]]):
        self.n = n
        self.m = len(pairs)
        self._adj = adj
        self._pairs = pairs

    def nodes(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def neighbors(self, u: int) -> dict[int, int]:
        """Neighbor -> edge id, ascending by edge id; do not mutate."""
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def pair(self, eid: int) -> tuple[int, int]:
        return self._pairs[eid]

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

    The endpoints of each new edge are swapped for the graph's own ``int``
    of that node before they are stored, so a node id above CPython's small
    int cache costs one object per node, not one per occurrence.
    """
    if node_count is not None and node_count < 0:
        raise ValueError(f"negative node_count {node_count}")
    adj: list[dict[int, int]] = [{} for _ in range(node_count or 0)]
    n = len(adj)
    node = list(range(n))
    pairs: list[tuple[int, int]] = []
    for u, v in edges:
        if u < 0 or v < 0:
            raise ValueError(f"negative node id in edge ({u}, {v})")
        if u > v:
            u, v = v, u
        if v >= n:
            if node_count is not None:
                raise ValueError(f"node id {v} not below node_count {node_count}")
            adj.extend([{} for _ in range(v + 1 - n)])
            node.extend(range(n, v + 1))
            n = v + 1
        nbrs = adj[u]
        if u != v and v not in nbrs:
            u, v = node[u], node[v]
            nbrs[v] = adj[v][u] = len(pairs)
            pairs.append((u, v))
    return Graph(n, adj, pairs)


class BucketQueue:
    """Monotone bucket min-queue used by every peeling in this package.

    Keys are small non-negative integers that only move down, one unit per
    occurrence of an item in a batch passed to ``decrease``; a peel hands
    over everything one pop affects in a single call.  The scan pointer
    resumes where it left off and is pulled back whenever a decrement dips
    below it.  Ties break on the smallest item id via a lazy per-bucket
    heap: stale entries are discarded when popped, so each key change costs
    one push.  A popped item's key becomes -1, which no bucket holds, so
    one key comparison tells a live entry from a stale one.
    """

    __slots__ = ("_key", "_buckets", "_cur", "_count")

    def __init__(self, keys: Iterable[int]):
        self._key = list(keys)
        self._buckets: dict[int, list[int]] = {}
        # Items go in by ascending id, so every bucket starts as a heap.
        for item, k in enumerate(self._key):
            if k < 0:
                raise ValueError("bucket keys must be non-negative")
            self._buckets.setdefault(k, []).append(item)
        self._cur = 0
        self._count = len(self._key)

    def __len__(self) -> int:
        return self._count

    def pop_min(self) -> tuple[int, int]:
        """Remove and return ``(item, key)`` with the smallest (key, item)."""
        if self._count == 0:
            raise IndexError("pop from empty BucketQueue")
        buckets = self._buckets
        keys = self._key
        cur = self._cur
        heap = buckets.get(cur)
        while True:
            if not heap:
                buckets.pop(cur, None)
                cur += 1
                heap = buckets.get(cur)
                continue
            item = heapq.heappop(heap)
            if keys[item] == cur:
                break
            # stale entry: the item was popped or its key has moved down
        keys[item] = -1
        self._cur = cur
        self._count -= 1
        return item, cur

    def decrease(self, items: Iterable[int]) -> None:
        """Decrement the key of each live item once per occurrence in
        ``items``; items already popped are skipped."""
        keys = self._key
        buckets = self._buckets
        cur = self._cur
        for item in items:
            k = keys[item] - 1
            if k < 0:
                if k == -2:  # popped
                    continue
                self._cur = cur
                raise ValueError(f"key of item {item} would become negative")
            keys[item] = k
            heap = buckets.get(k)
            if heap is None:
                buckets[k] = [item]
            else:
                heapq.heappush(heap, item)
            if k < cur:
                cur = k
        self._cur = cur


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
    n = g.n
    queue = BucketQueue(g.degree(u) for u in range(n))
    order: list[int] = []
    forward = [0] * n
    positions = [0] * n
    degeneracy = 0
    for rank in range(n):
        u, d = queue.pop_min()
        order.append(u)
        positions[u] = rank
        forward[u] = d
        if d > degeneracy:
            degeneracy = d
        queue.decrease(g.neighbors(u))  # popped neighbors are skipped
    return DegeneracyInfo(order, degeneracy, forward, positions)


def forward_wedge_count(g: Graph, info: DegeneracyInfo) -> int:
    """Number of wedges whose center precedes both endpoints in the order.

    Each forward degree d contributes d*(d-1)/2 wedges; every triangle of the
    graph corresponds to exactly one (closed) forward wedge.
    """
    return sum(d * (d - 1) // 2 for d in info.forward_degrees)
