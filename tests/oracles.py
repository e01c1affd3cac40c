"""Independent brute-force oracles.

Everything here recomputes quantities by definition (exhaustive enumeration,
subset sweeps, naive fixed points) without touching the peeling/sampling code
paths under test, so expected values stay honest.  The exceptions are the
reference slow paths kept to check fast ones against: the two-pass graph
build that dedupes through a set of pairs and rebuilds every neighbor map
in ascending-neighbor order, supports counted by
the forward-wedge walk, the threshold estimator that rebuilds its graph
every round, the peel with a removed-edge array and one heap push per
decrement, the hypergraph peel that recounts every degree per pop, the
quadratic suffix replay, the marker estimator that
materialises every round, the marker test that scans the whole order, the
skip pass that scans for each probed wedge, the doubling loop that walks
every pass, and G(n, p) drawn skip by skip.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np

from trusslab.approx import EstimateResult, ThresholdRound, hypergraph_degeneracy_order
from trusslab.gadgets import add_spurious_cliques, blowup, complete_graph, disjoint_union
from trusslab.graph import Graph, build_graph, degeneracy_order, forward_wedge_count
from trusslab.sampling import (
    HypergraphSample,
    SamplerConfig,
    effective_epsilon,
    geometric_skip,
    initial_probability,
    sample_hypergraph,
    sample_size_target,
)
from trusslab.triangles import (
    ForwardRow,
    SupportTable,
    compute_supports,
    forward_rows,
    list_triangles,
)
from trusslab.truss import EdgeOrder, TrussDecomposition, _peel_from_supports


def reference_build_graph(
    edges: Iterable[tuple[int, int]], node_count: int | None = None
) -> Graph:
    """Two-pass build: dedupe through a set of pairs, then fill every
    neighbor map and rebuild each one in ascending-neighbor order."""
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
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for eid, (u, v) in enumerate(pairs):
        adj[u][v] = eid
        adj[v][u] = eid
    us = array("i", (u for u, _ in pairs))
    vs = array("i", (v for _, v in pairs))
    return Graph(n, [{v: ids[v] for v in sorted(ids)} for ids in adj], us, vs)


def brute_triangles(g: Graph) -> set[tuple[int, int, int]]:
    """All triangles as sorted node triples, by cubic enumeration."""
    out = set()
    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            out.add((a, b, c))
    return out


def brute_supports(g: Graph) -> list[int]:
    """Per-edge common-neighbor counts by direct set intersection."""
    sets = [set(g.neighbors(u)) for u in range(g.n)]
    return [len(sets[u] & sets[v]) for u, v in g.edges()]


def brute_degeneracy(g: Graph) -> int:
    """max over induced subgraphs of the minimum degree (exponential)."""
    best = 0
    nodes = list(range(g.n))
    for r in range(1, g.n + 1):
        for subset in combinations(nodes, r):
            chosen = set(subset)
            mindeg = min(sum(1 for v in g.neighbors(u) if v in chosen) for u in subset)
            best = max(best, mindeg)
    return best


def brute_forward_wedges(g: Graph, order: list[int]) -> int:
    """Count wedges whose center precedes both endpoints, by enumeration."""
    pos = {u: i for i, u in enumerate(order)}
    count = 0
    for u in range(g.n):
        for a, b in combinations(g.neighbors(u), 2):
            if pos[u] < pos[a] and pos[u] < pos[b]:
                count += 1
    return count


def _triangle_edge_masks(g: Graph) -> list[int]:
    masks = []
    for a, b, c in brute_triangles(g):
        masks.append(
            (1 << g.edge_id(a, b)) | (1 << g.edge_id(a, c)) | (1 << g.edge_id(b, c))
        )
    return masks


def trussness_by_subsets(g: Graph) -> list[int]:
    """t(e) = max over edge subsets containing e of the subset's min support.

    Vectorized over all 2^m subsets; meant for m <= 16 or so.
    """
    m = g.m
    if m == 0:
        return []
    if m > 20:
        raise ValueError("subset oracle limited to small edge counts")
    size = 1 << m
    subsets = np.arange(size, dtype=np.int64)
    sups = np.zeros((m, size), dtype=np.int16)
    for mask in _triangle_edge_masks(g):
        contained = (subsets & mask) == mask
        for e in range(m):
            if mask >> e & 1:
                sups[e][contained] += 1
    sentinel = np.int16(30000)
    in_subset = np.zeros((m, size), dtype=bool)
    for e in range(m):
        in_subset[e] = (subsets >> e & 1).astype(bool)
    min_sup = np.where(in_subset, sups, sentinel).min(axis=0)
    return [int(min_sup[in_subset[e]].max()) for e in range(m)]


def max_triangle_density(g: Graph) -> Fraction:
    """max over nonempty edge subsets S of (triangles within S) / |S|."""
    m = g.m
    if m == 0:
        return Fraction(0)
    if m > 22:
        raise ValueError("density oracle limited to small edge counts")
    size = 1 << m
    subsets = np.arange(size, dtype=np.int64)
    triangles = np.zeros(size, dtype=np.int32)
    for mask in _triangle_edge_masks(g):
        triangles[(subsets & mask) == mask] += 1
    popcount = np.zeros(size, dtype=np.int8)
    for e in range(m):
        popcount += (subsets >> e & 1).astype(np.int8)
    # Distinct small-integer ratios differ by >= 1/(m^2), far above float
    # error, so the float argmax picks the true maximizer.
    density = np.where(popcount > 0, triangles / np.maximum(popcount, 1), 0.0)
    best = int(np.argmax(density))
    if popcount[best] == 0:
        return Fraction(0)
    return Fraction(int(triangles[best]), int(popcount[best]))


def fixed_point_truss_edges(g: Graph, k: int) -> set[int]:
    """Repeatedly delete edges of support < k until stable (naive)."""
    alive = set(range(g.m))
    sets = [set(g.neighbors(u)) for u in range(g.n)]

    def support(eid: int) -> int:
        u, v = g.pair(eid)
        count = 0
        for z in sets[u] & sets[v]:
            if g.edge_id(u, z) in alive and g.edge_id(v, z) in alive:
                count += 1
        return count

    changed = True
    while changed:
        changed = False
        for eid in sorted(alive):
            if support(eid) < k:
                alive.discard(eid)
                changed = True
    return alive


def replay_min_degree_order(g: Graph, order: list[int]) -> bool:
    """Check that each node had minimum residual degree at its removal."""
    remaining = set(range(g.n))
    degree = {u: g.degree(u) for u in range(g.n)}
    for u in order:
        if degree[u] != min(degree[v] for v in remaining):
            return False
        remaining.discard(u)
        for v in g.neighbors(u):
            if v in remaining:
                degree[v] -= 1
    return not remaining


def reference_compute_supports(g: Graph) -> SupportTable:
    """Supports from the forward-wedge walk (``list_triangles``) over the
    rows of the (degree, id) order: three increments per triangle, at the
    one wedge that closes it."""
    order = sorted(range(g.n), key=g.degree)
    positions = [0] * g.n
    for rank, u in enumerate(order):
        positions[u] = rank
    support = [0] * g.m
    count = 0
    for x, y, z in list_triangles(g, forward_rows(g, order, positions)):
        support[x] += 1
        support[y] += 1
        support[z] += 1
        count += 1
    return SupportTable(support, count)


def reference_threshold_rounds(g: Graph, epsilon: float) -> list[ThresholdRound]:
    """Iterated support thresholding with c = 3+eps that rebuilds the
    survivor graph and recounts all its supports every round, by the
    forward-wedge walk."""
    c = 3 + Fraction(str(epsilon))
    rounds: list[ThresholdRound] = []
    node_count = g.n
    current = g
    while current.m > 0:
        table = reference_compute_supports(current)
        density = Fraction(table.triangle_count, current.m)
        rounds.append(ThresholdRound(current.m, table.triangle_count, density))
        cutoff = c * density
        survivors = [
            pair
            for eid, pair in enumerate(current.edges())
            if table.support[eid] > cutoff
        ]
        current = build_graph(survivors, node_count=node_count)
    return rounds


def reference_peel_from_supports(
    g: Graph, supports: SupportTable
) -> tuple[TrussDecomposition, EdgeOrder]:
    """Min-support peel, ties by smallest edge id, on one (support, id) heap.

    Each pop scans its smaller endpoint map in full against the immutable
    graph, skips triangles with a removed edge, and decrements the other
    two edges one at a time.
    """
    m = g.m
    key = list(supports.support)
    heap = [(k, eid) for eid, k in enumerate(key)]
    heapq.heapify(heap)
    removed = [False] * m
    t = [0] * m
    order: list[int] = []
    fwd: list[int] = []
    level = 0
    while heap:
        s, eid = heapq.heappop(heap)
        if removed[eid] or s != key[eid]:
            continue
        level = max(level, s)
        t[eid] = level
        removed[eid] = True
        order.append(eid)
        fwd.append(s)
        u, v = g.pair(eid)
        near, far = g.neighbors(u), g.neighbors(v)
        if len(near) > len(far):
            near, far = far, near
        for z, e1 in near.items():
            e2 = far.get(z)
            if e2 is not None and not removed[e1] and not removed[e2]:
                for e in (e1, e2):
                    key[e] -= 1
                    heapq.heappush(heap, (key[e], e))
    return TrussDecomposition(t, level), EdgeOrder(order, fwd)


def reference_suffix_support_profile(g: Graph, order: list[int]) -> tuple[list[int], list[int]]:
    """Per-position forward support and suffix-minimum support, replaying
    ``order`` from the back and taking each minimum over the whole suffix."""
    m = g.m
    present = [False] * m
    sup = [0] * m
    inserted: list[int] = []
    fwd = [0] * m
    min_sup = [0] * m
    for i in range(m - 1, -1, -1):
        eid = order[i]
        u, v = g.pair(eid)
        for z in g.neighbors(u):
            if g.has_edge(v, z):
                e1 = g.edge_id(u, z)
                e2 = g.edge_id(v, z)
                if present[e1] and present[e2]:
                    sup[eid] += 1
                    sup[e1] += 1
                    sup[e2] += 1
        present[eid] = True
        inserted.append(eid)
        fwd[i] = sup[eid]
        min_sup[i] = min(sup[e] for e in inserted)
    return fwd, min_sup


def reference_round_order(g: Graph, eps: float, zeta: float, seed: int) -> tuple[list[int], bool]:
    """A marker round's (order, fell_back), deciding fallback on the graph.

    Measures W, the first p and T on the materialised graph, takes the exact
    peel when the sampler cannot reach its target, and samples otherwise.
    """
    info = degeneracy_order(g)
    W = forward_wedge_count(g, info)
    supports = compute_supports(g)
    if W > 0:
        eff = effective_epsilon(eps, g.n)
        if initial_probability(g.m, W, eff, zeta) < 1.0:
            if supports.triangle_count >= sample_size_target(g.m, eff, zeta):
                cfg = SamplerConfig(epsilon=eps, zeta=zeta, seed=seed)
                sample = sample_hypergraph(g, info, cfg)
                if not sample.fell_back_to_exact:
                    return hypergraph_degeneracy_order(sample).order, False
    return _peel_from_supports(g, supports)[1].order, True


def reference_hypergraph_peel(sample: HypergraphSample) -> list[tuple[int, int]]:
    """The min-degree peel of a sample as (vertex, degree) pops: before each
    pop, recount every vertex's degree over the hyperedges none of whose
    vertices has popped, and pop the least (degree, vertex)."""
    left = set(range(sample.vertex_count))
    hyperedges = list(sample.hyperedges)
    pops: list[tuple[int, int]] = []
    while left:
        degree = Counter(chain.from_iterable(hyperedges))
        v = min(left, key=lambda u: (degree[u], u))
        pops.append((v, degree[v]))
        left.remove(v)
        hyperedges = [h for h in hyperedges if v not in h]
    return pops


def reference_marker_test(order: Sequence[int], spurious: Sequence[bool]) -> bool:
    """The marker test by its definition: scan the whole order for the
    first spurious position and the last original position, and hit iff
    both exist and the first comes before the last."""
    if len(order) != len(spurious):
        raise ValueError(f"order has {len(order)} edges but {len(spurious)} labels given")
    first_spurious = min((pos for pos, e in enumerate(order) if spurious[e]), default=None)
    last_original = max((pos for pos, e in enumerate(order) if not spurious[e]), default=None)
    if first_spurious is None or last_original is None:
        return False
    return first_spurious < last_original


def reference_estimate_trussness(
    g_in: Graph,
    epsilon: float,
    *,
    zeta: float = 110.0,
    seed: int = 0,
    pseudocode_growth: bool = False,
) -> EstimateResult:
    """The marker estimator with every round run on its materialised graph.

    Builds the 6-fold blow-up united with K3, measures its degeneracy and
    edge count for the cap on x, and in every round appends the marker
    cliques, orders the augmented graph and applies ``reference_marker_test``
    to the whole order.  Same round seeds and certification as
    ``estimate_trussness``.
    """
    eps_exact = Fraction(str(epsilon))
    eps_prime = eps_exact / 6
    growth = 1 + (eps_exact if pseudocode_growth else eps_prime)
    working = disjoint_union(blowup(g_in, 6).materialize(), complete_graph(3))
    d_working = degeneracy_order(working).degeneracy
    x_cap = min(2 * d_working + 2, math.ceil(2 * math.sqrt(working.m)))
    x = 1
    t_tilde = 1
    trace: list[tuple[int, bool]] = []
    all_fell_back = True
    base = random.Random(seed).randrange(2**62)
    while True:
        augmented = add_spurious_cliques(working, x)
        order, fell_back = reference_round_order(
            augmented.graph, float(eps_prime), zeta, base + len(trace)
        )
        all_fell_back = all_fell_back and fell_back
        hit = reference_marker_test(order, augmented.is_spurious)
        trace.append((x, hit))
        if not hit:
            break
        t_tilde = x
        nxt = math.ceil(growth * x)
        if nxt > x_cap:
            break
        x = nxt
    if t_tilde < 2:
        return EstimateResult(Fraction(0), True, len(trace), trace, all_fell_back)
    low = Fraction(t_tilde) / (1 + eps_prime)
    high = (t_tilde + 1) * (1 + 3 * eps_prime)
    first = math.ceil(low / 6)
    last = math.floor(high / 6)
    if first == last:
        return EstimateResult(Fraction(first), True, len(trace), trace, all_fell_back)
    return EstimateResult(Fraction(t_tilde, 6), False, len(trace), trace, all_fell_back)


def reference_skip_pass(
    g: Graph, rows: list[ForwardRow], p: float, rng: random.Random
) -> list[tuple[int, int, int]]:
    """The skip pass that locates each probed wedge serial by scanning.

    Numbers the wedges through per-center start serials, draws every skip
    with ``geometric_skip``, moves a center cursor forward to each serial
    and finds the pair (i, j) by walking the rows of the center's pairs one
    i at a time.
    """
    starts: list[int] = []
    total = 0
    for _, later, _ in rows:
        starts.append(total)
        total += len(later) * (len(later) - 1) // 2
    out: list[tuple[int, int, int]] = []
    serial = geometric_skip(p, rng) - 1
    cursor = 0
    while serial < total:
        while cursor + 1 < len(starts) and starts[cursor + 1] <= serial:
            cursor += 1
        _, later, ids = rows[cursor]
        local = serial - starts[cursor]
        row = len(later) - 1
        i = 0
        while local >= row:
            local -= row
            i += 1
            row -= 1
        j = i + 1 + local
        closing = g.neighbors(later[i]).get(later[j])
        if closing is not None:
            out.append(tuple(sorted((ids[i], ids[j], closing))))
        serial += geometric_skip(p, rng)
    return out


def reference_sample_hypergraph(g: Graph, cfg: SamplerConfig) -> HypergraphSample:
    """The doubling loop walking every pass with ``reference_skip_pass``:
    from the first p, double p until a pass keeps the target size, or run
    the pass at p = 1 once p reaches 1."""
    info = degeneracy_order(g)
    W = forward_wedge_count(g, info)
    if W == 0:
        return HypergraphSample(g.m, [], 1.0, True, cfg.seed)
    rows = list(forward_rows(g, info.order, info.positions))
    eps = effective_epsilon(cfg.epsilon, g.n)
    p = initial_probability(g.m, W, eps, cfg.zeta)
    target = sample_size_target(g.m, eps, cfg.zeta)
    rng = random.Random(cfg.seed)
    while p < 1.0:
        sample = reference_skip_pass(g, rows, p, rng)
        if len(sample) >= target:
            return HypergraphSample(g.m, sample, p, False, cfg.seed)
        p *= 2.0
    return HypergraphSample(g.m, reference_skip_pass(g, rows, 1.0, rng), 1.0, True, cfg.seed)


def reference_gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """G(n, p) edges: the pairs i < j in lexicographic order, visited by
    one ``geometric_skip`` draw per step."""
    pairs = list(combinations(range(n), 2))
    rng = random.Random(seed)
    out: list[tuple[int, int]] = []
    serial = geometric_skip(p, rng) - 1
    while serial < len(pairs):
        out.append(pairs[serial])
        serial += geometric_skip(p, rng)
    return out


def reference_ladder_edges(x: int) -> list[tuple[int, int]]:
    """Edges of ``ladder_gadget(x)`` in id order, listed before any build:
    the clique's pairs, then pendant i's edges to clique nodes 0..i-1."""
    edges = list(combinations(range(x), 2))
    for i in range(1, x + 1):
        edges.extend((c, x + i - 1) for c in range(i))
    return edges


def reference_bipartite_apex_edges(side: int) -> list[tuple[int, int]]:
    """Edges of ``bipartite_apex(side)`` in id order, listed before any
    build: the bipartite pairs row by row, then every spoke to the apex."""
    edges = [(u, v) for u in range(side) for v in range(side, 2 * side)]
    edges.extend((u, 2 * side) for u in range(2 * side))
    return edges
