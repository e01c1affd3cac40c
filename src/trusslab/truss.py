"""Exact truss decomposition by min-support peeling, truss-order validation,
and recovery of the decomposition from any truss-order oracle.

Two peels give the same t(e).  ``edge_trussness``, for callers that read
only t(e) or the trussness, peels level by level with no queue and no
tie-break; ``truss_decomposition`` pops by (support, id) from a bucket
queue and returns that order as well, for callers that read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

from .gadgets import blowup, disjoint_union, ladder_gadget
from .graph import BucketQueue, Graph, degeneracy_order
from .triangles import SupportTable, compute_supports


@dataclass(frozen=True)
class TrussDecomposition:
    """Per-edge trussness t(e) and the graph trussness t = max_e t(e).

    Uses the 0-based convention: a k-clique has trussness k-2, and a graph is
    triangle-free iff its trussness is 0.
    """

    edge_trussness: list[int]
    trussness: int


@dataclass(frozen=True)
class EdgeOrder:
    """An edge permutation with the residual support seen at each removal.

    ``forward_support[i]`` counts the triangles that ``order[i]`` forms with
    edges at positions >= i.  For an exact truss order this equals the
    minimum residual support of the whole suffix.  Each triangle is counted
    once, at its first edge in the order, so ``sum(forward_support)`` is the
    graph's triangle count T.
    """

    order: list[int]
    forward_support: list[int]


def _closing_edge_ids(near: dict[int, int], far: dict[int, int]) -> list[int]:
    """Ids of the two other edges of each triangle on an edge whose endpoint
    maps (neighbor -> edge id) are ``near`` and ``far``, as one flat list;
    walks the smaller map."""
    if len(near) > len(far):
        near, far = far, near
    closing = far.get
    ids: list[int] = []
    for z, e1 in near.items():
        e2 = closing(z)
        if e2 is not None:
            ids.append(e1)
            ids.append(e2)
    return ids


def _triangle_maps(g: Graph, support: list[int]) -> list[dict[int, int]]:
    """A peel's own copy of each node's neighbor -> edge-id map, holding only
    the edges of positive ``support``; the nodes on no triangle share one
    empty map, which no pop reaches."""
    in_triangle = support.__getitem__
    none: dict[int, int] = {}
    return [
        dict(compress(nbrs.items(), map(in_triangle, nbrs.values()))) or none
        for nbrs in map(g.neighbors, range(g.n))
    ]


def _peel_from_supports(g: Graph, supports: SupportTable) -> tuple[TrussDecomposition, EdgeOrder]:
    """Min-support peel from precomputed supports.

    Works on per-peel neighbor -> edge-id maps that shrink as the peel
    goes: a popped edge leaves both endpoint maps before the smaller one is
    walked, so removed edges are never probed and every triangle found is
    live.  The other two edges of all triangles a pop closes go to the
    queue in one batched decrement.  An edge of support 0 lies in no
    triangle, so it never enters the maps and its pop touches none; a pop
    at key 0 only leaves the maps.
    """
    m = g.m
    support = supports.support
    queue = BucketQueue(support)
    adj = _triangle_maps(g, support)
    pair = g.pair
    t = [0] * m
    order: list[int] = []
    fwd: list[int] = []
    level = 0
    for _ in range(m):
        eid, s = queue.pop_min()
        if s > level:
            level = s
        t[eid] = level
        order.append(eid)
        fwd.append(s)
        if support[eid]:
            u, v = pair(eid)
            near = adj[u]
            far = adj[v]
            del near[v]
            del far[u]
            if s:
                queue.decrease(_closing_edge_ids(near, far))
    return TrussDecomposition(t, level), EdgeOrder(order, fwd)


def _trussness_from_supports(g: Graph, supports: SupportTable) -> TrussDecomposition:
    """Per-edge trussness from precomputed supports by a level-synchronous
    peel (Kabir & Madduri's PKT), with no queue and no pop order.

    t(e) does not depend on which edge of equal support leaves first, so
    level k pops its edges in any order: every live edge of support k goes
    on a stack, and each pop leaves both endpoint maps (``_triangle_maps``)
    and walks the smaller one.  A closing
    edge of support above k is decremented; if it reaches k it joins the
    stack, and otherwise it is appended to the list of its new level, where
    entries whose support has moved on by the time that level starts are
    dropped.  Edges of support 0 keep t = 0 and are never popped or probed,
    and no support falls below 1, so the supports left when the peel ends
    are the trussness values.  The supports passed in are not changed.
    """
    sup = supports.support[:]
    adj = _triangle_maps(g, sup)
    pair = g.pair
    levels: list[list[int]] = [[] for _ in range(max(sup, default=0) + 1)]
    for eid, s in enumerate(sup):
        if s:
            levels[s].append(eid)
    for k in range(1, len(levels)):
        stack = [eid for eid in levels[k] if sup[eid] == k]
        levels[k] = []  # read once
        while stack:
            u, v = pair(stack.pop())
            near = adj[u]
            far = adj[v]
            del near[v]
            del far[u]
            for e in _closing_edge_ids(near, far):
                s = sup[e]
                if s > k:
                    s -= 1
                    sup[e] = s
                    if s == k:
                        stack.append(e)
                    else:
                        levels[s].append(e)
    return TrussDecomposition(sup, max(sup, default=0))


def edge_trussness(g: Graph) -> TrussDecomposition:
    """Exact trussness of every edge, without a peel order.

    The values ``truss_decomposition`` gives, by the level-synchronous peel
    of ``_trussness_from_supports``: for callers that read only t(e) or the
    graph trussness, it skips the queue and the (support, id) tie-breaks
    that the order needs.
    """
    return _trussness_from_supports(g, compute_supports(g))


def truss_decomposition(g: Graph) -> tuple[TrussDecomposition, EdgeOrder]:
    """Exact trussness of every edge, plus the peeling order that proves it.

    Repeatedly removes the minimum-support edge (ties by smallest edge id),
    decrementing the support of the two other edges of each triangle it
    closes; t(e) is the running maximum of removal-time supports.
    """
    return _peel_from_supports(g, compute_supports(g))


def trussness(g: Graph) -> int:
    return edge_trussness(g).trussness


def max_truss_subgraph(g: Graph, k: int) -> set[int]:
    """Edge ids of the maximal subgraph whose every edge has support >= k.

    This is exactly the set of edges with trussness >= k; empty when k
    exceeds the graph trussness.  k = 0 returns all edges.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return {eid for eid, t in enumerate(edge_trussness(g).edge_trussness) if t >= k}


def suffix_support_profile(g: Graph, order: Sequence[int]) -> tuple[list[int], list[int]]:
    """Replay an edge order from the back.

    Returns, per position i, the support of order[i] in the graph induced by
    order[i:], and the minimum support over all of order[i:].  These are the
    two quantities that truss-order definitions (exact and approximate)
    constrain, so both validators below are built on this.
    """
    m = g.m
    if sorted(order) != list(range(m)):
        raise ValueError("order is not a permutation of the edge ids")
    # Maps of the edges inserted so far, so every triangle found is present.
    adj: list[dict[int, int]] = [{} for _ in range(g.n)]
    pair = g.pair
    sup = [0] * m
    # Present edges per support value; supports only grow by one, so the
    # minimum rises at most one step per increment and the scan is O(m + T).
    count = [0] * (m + 1)
    low = 0
    fwd = [0] * m
    min_sup = [0] * m
    for i in range(m - 1, -1, -1):
        eid = order[i]
        u, v = pair(eid)
        near = adj[u]
        far = adj[v]
        closing = _closing_edge_ids(near, far)
        for e in closing:
            count[sup[e]] -= 1
            sup[e] += 1
            count[sup[e]] += 1
        near[v] = eid
        far[u] = eid
        s = len(closing) // 2
        sup[eid] = s
        count[s] += 1
        if s < low:
            low = s
        while not count[low]:
            low += 1
        fwd[i] = s
        min_sup[i] = low
    return fwd, min_sup


def is_exact_truss_order(g: Graph, order: Sequence[int]) -> bool:
    """True iff each edge has minimum residual support at its removal."""
    fwd, min_sup = suffix_support_profile(g, order)
    return all(f == s for f, s in zip(fwd, min_sup))


OrderOracle = Callable[[Graph], "EdgeOrder | Sequence[int]"]


def decomposition_from_order(g: Graph, oracle: OrderOracle) -> TrussDecomposition:
    """Recover the full truss decomposition using only a truss-order oracle.

    Builds the 2-fold blow-up of g (every edge trussness becomes even, twice
    its base value) united with a ladder gadget realizing every trussness
    value in {0..2d+1}, where d is the degeneracy of g (an upper bound on its
    trussness).  In a truss order of the union, each blown edge sits between
    ladder edges of known consecutive trussness values, so the bracket pins
    its even trussness uniquely; halving yields the base value.

    The oracle's output is replay-validated; a non-truss-order raises
    ValueError.
    """
    if g.m == 0:
        return TrussDecomposition([], 0)

    d = degeneracy_order(g).degeneracy
    ladder = ladder_gadget(2 * d + 2)
    ladder_t = edge_trussness(ladder).edge_trussness
    achieved = set(ladder_t)
    missing = set(range(2 * d + 2)) - achieved
    if missing:
        raise RuntimeError(f"ladder gadget failed to realize trussness values {sorted(missing)}")

    q = 2  # edge base_id*q^2 + i*q + j of the blow-up copies base edge base_id
    blown = blowup(g, q).materialize()
    union = disjoint_union(blown, ladder)
    raw = oracle(union)
    order = list(raw.order) if isinstance(raw, EdgeOrder) else list(raw)
    if not is_exact_truss_order(union, order):
        raise ValueError("oracle output is not a truss order of the gadget graph")

    # Trussness of the next ladder edge at or after each position.
    total = len(order)
    next_ladder = [0] * (total + 1)
    next_ladder[total] = -1
    for i in range(total - 1, -1, -1):
        eid = order[i]
        if eid >= blown.m:
            next_ladder[i] = ladder_t[eid - blown.m]
        else:
            next_ladder[i] = next_ladder[i + 1]

    t_base = [-1] * g.m
    prev = 0
    for i, eid in enumerate(order):
        if eid >= blown.m:
            prev = ladder_t[eid - blown.m]
            continue
        hi = next_ladder[i + 1]
        if hi < 0:
            raise RuntimeError("blown edge beyond the last ladder marker")
        evens = [val for val in range(prev, hi + 1) if val % 2 == 0]
        if len(evens) != 1:
            raise RuntimeError(f"ladder bracket [{prev}, {hi}] does not pin a single even value")
        base_eid = eid // (q * q)
        half = evens[0] // 2
        if t_base[base_eid] == -1:
            t_base[base_eid] = half
        elif t_base[base_eid] != half:
            raise RuntimeError(f"mirror copies of edge {base_eid} decoded inconsistently")
    return TrussDecomposition(t_base, max(t_base))
