"""Immutable simple-graph core: construction, navigation, degeneracy peeling."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator


class Graph:
    """Undirected simple graph with dense edge identifiers.

    Nodes are ``0..n-1``; edge ids are ``0..m-1`` in first-appearance order of
    the (deduplicated) input edge list.  Each node keeps one map from
    neighbor to edge id, iterated in ascending neighbor order, so a single
    lookup both tests an edge and names it.  Instances are immutable after
    construction and safe to share across threads.
    """

    __slots__ = ("n", "m", "_adj", "_pairs")

    def __init__(self, n: int, pairs: list[tuple[int, int]]):
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        for eid, (u, v) in enumerate(pairs):
            adj[u][v] = eid
            adj[v][u] = eid
        self.n = n
        self.m = len(pairs)
        self._adj = [{v: ids[v] for v in sorted(ids)} for ids in adj]
        self._pairs = pairs

    def nodes(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def neighbors(self, u: int) -> dict[int, int]:
        """Neighbor -> edge id, ascending by neighbor; do not mutate."""
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
    """Build a simple graph from an edge list.

    Duplicate edges and self-loops are silently dropped; edge ids follow the
    first appearance of each surviving edge.  ``node_count`` may enlarge the
    node universe beyond ``max(endpoint) + 1`` (isolated nodes are permitted
    but never created implicitly).
    """
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_node = -1
    for u, v in edges:
        if u < 0 or v < 0:
            raise ValueError(f"negative node id in edge ({u}, {v})")
        if u > max_node:
            max_node = u
        if v > max_node:
            max_node = v
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        pairs.append(key)
    n = max_node + 1
    if node_count is not None:
        if node_count < n:
            raise ValueError(f"node_count {node_count} smaller than max node id {max_node}")
        n = node_count
    return Graph(n, pairs)


class BucketQueue:
    """Monotone bucket min-queue used by every peeling in this package.

    Keys are small non-negative integers that only move down, one unit per
    occurrence of an item in a batch passed to ``decrease``; a peel hands
    over everything one pop affects in a single call.  The scan pointer
    resumes where it left off and is pulled back whenever a decrement dips
    below it.  Ties break on the smallest item id via a lazy per-bucket
    heap: stale entries are discarded when popped, so each key change costs
    one push.
    """

    __slots__ = ("_key", "_alive", "_buckets", "_cur", "_count")

    def __init__(self, keys: Iterable[int]):
        self._key = list(keys)
        self._alive = [True] * len(self._key)
        self._buckets: dict[int, list[int]] = {}
        for item, k in enumerate(self._key):
            if k < 0:
                raise ValueError("bucket keys must be non-negative")
            self._buckets.setdefault(k, []).append(item)
        for heap in self._buckets.values():
            heapq.heapify(heap)
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
        alive = self._alive
        cur = self._cur
        heap = buckets.get(cur)
        while True:
            if not heap:
                buckets.pop(cur, None)
                cur += 1
                heap = buckets.get(cur)
                continue
            item = heapq.heappop(heap)
            if alive[item] and keys[item] == cur:
                break
            # stale entry: the item was popped or its key has moved down
        alive[item] = False
        self._cur = cur
        self._count -= 1
        return item, cur

    def decrease(self, items: Iterable[int]) -> None:
        """Decrement the key of each live item once per occurrence in
        ``items``; items already popped are skipped."""
        keys = self._key
        alive = self._alive
        buckets = self._buckets
        cur = self._cur
        for item in items:
            if not alive[item]:
                continue
            k = keys[item] - 1
            if k < 0:
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
