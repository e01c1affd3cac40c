"""Seeded input generators owned by the benchmark.

Every generator takes a ``random.Random`` built from the workload seed, so
the same seed always yields the same edge lists.  Edges are returned as
``(u, v)`` pairs with ``u < v``, deduplicated, in the order they are written
to disk; that order is the edge-id order the program assigns on loading.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field


@dataclass
class EdgeGraph:
    """A generated graph: node count, edge list and the cliques planted in it."""

    n: int
    edges: list[tuple[int, int]]
    planted: list[list[int]] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.edges)


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def chung_lu(n: int, m: int, alpha: float, cliques: list[int], rng: random.Random) -> EdgeGraph:
    """Skewed-degree graph with exactly ``m`` random edges plus planted cliques.

    Node weights follow ``(rank + 1) ** -alpha`` on a random relabelling of the
    nodes; both endpoints of each edge are drawn proportionally to weight, so
    the expected degree is proportional to weight (the Chung-Lu model without
    the independence of edge events).  Self-loops and repeats are redrawn.
    Cliques of the given sizes are then planted on uniformly chosen nodes,
    which pins the trussness of their edges to at least ``size - 2``.
    """
    cum = list(itertools.accumulate((rank + 1) ** -alpha for rank in range(n)))
    labels = list(range(n))
    rng.shuffle(labels)
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    while len(edges) < m:
        ends = rng.choices(labels, cum_weights=cum, k=2 * (m - len(edges)))
        for u, v in zip(ends[::2], ends[1::2]):
            key = _norm(u, v)
            if u == v or key in seen:
                continue
            seen.add(key)
            edges.append(key)
    planted: list[list[int]] = []
    for size in cliques:
        members = sorted(rng.sample(range(n), size))
        planted.append(members)
        for u, v in itertools.combinations(members, 2):
            if (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v))
    return EdgeGraph(n, edges, planted)


def gnm(n: int, m: int, rng: random.Random) -> EdgeGraph:
    """Uniform random graph with exactly ``m`` edges on ``n`` nodes.

    G(n, m) rather than G(n, p): fixing the edge count keeps the work per
    seed steady while the structure stays that of a G(n, p) graph at
    ``p = m / C(n, 2)``.
    """
    total = n * (n - 1) // 2
    if m > total:
        raise ValueError(f"G({n}, m) holds at most {total} edges, asked for {m}")
    # Pairs (i, j), i < j, are numbered row by row; row i starts at starts[i].
    starts = [i * (2 * n - i - 1) // 2 for i in range(n)]
    edges: list[tuple[int, int]] = []
    for serial in rng.sample(range(total), m):
        row = bisect.bisect_right(starts, serial) - 1
        edges.append((row, row + 1 + serial - starts[row]))
    return EdgeGraph(n, edges)


def relabel(graph, rng: random.Random) -> EdgeGraph:
    """Randomly permute the node labels and edge order of a fixed graph
    (anything with ``n`` and ``edges()``, such as a trusslab gadget)."""
    perm = list(range(graph.n))
    rng.shuffle(perm)
    out = [_norm(perm[u], perm[v]) for u, v in graph.edges()]
    rng.shuffle(out)
    return EdgeGraph(graph.n, out)


def write_edges(path: str, graph: EdgeGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{u} {v}\n" for u, v in graph.edges))
