"""Approximate trussness estimation.

Two estimators live here.  The randomized one brackets the trussness by
planting disjoint marker cliques of known trussness x and watching where
their edges land in the approximate truss order of a sampled triangle
hypergraph while x grows geometrically; it reads that from a core test of
the sample, without peeling it.  The combinatorial one repeatedly discards
edges whose support falls below a multiple of the current triangle density;
the best density seen is within a factor 3+eps of the trussness,
deterministically.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count
from typing import Iterable, Sequence, Sized

from . import gadgets, graph
from .gadgets import augmented_sizes, blowup, complete_graph, disjoint_union
from .graph import BucketQueue, Graph, build_graph, degeneracy_order, forward_wedge_count
from .sampling import (
    _NO_BLOCK, HypergraphSample, SamplerConfig, _doubling, _MarkerRounds, fallback_certain,
)
from .triangles import Triples, compute_supports, forward_rows
from .truss import _trussness_from_supports, suffix_support_profile, truss_decomposition


@dataclass(frozen=True)
class ApproxTrussOrder:
    """Edge order obtained by min-degree peeling of a hypergraph sample.

    Always a permutation of all edge ids (vertices with no sampled hyperedge
    peel first, ties by id).  ``forward_degrees[i]`` is the residual sampled
    degree of ``order[i]`` at its removal; on a full (unsampled) hypergraph
    their maximum equals the graph trussness.  ``fell_back_to_exact`` and
    ``realized_p`` are the sample's; the sample itself is not kept.
    """

    order: list[int]
    forward_degrees: list[int]
    fell_back_to_exact: bool
    realized_p: float

    @property
    def degeneracy(self) -> int:
        return max(self.forward_degrees, default=0)


def hypergraph_degeneracy_order(sample: HypergraphSample) -> ApproxTrussOrder:
    """Peel the 3-uniform sample by minimum degree, ties by vertex id.

    Removing a vertex deletes its incident hyperedges, decrementing the two
    other endpoints of each; on the full triangle hypergraph this replays
    exact min-support edge peeling step for step.  The hyperedges are read
    in place from their flat column, by their offsets in it
    (``_incidence``).
    """
    m = sample.vertex_count
    ids = Triples.of(sample.hyperedges).ids
    incidence = _incidence(m, ids)
    queue = BucketQueue(map(len, incidence))
    dead = bytearray(len(ids))
    order: list[int] = []
    forward: list[int] = []
    for _ in range(m):
        v, d = queue.pop_min()
        order.append(v)
        forward.append(d)
        # d counts v's live hyperedges; at 0 there is nothing to remove.
        if not d:
            continue
        # Both other endpoints of a live hyperedge are live; v itself is
        # popped, so the queue skips it.  The batch copies ids column to
        # column, with no int made until the queue reads it.
        batch = array("i")
        for at in incidence[v]:
            if not dead[at]:
                dead[at] = 1
                batch += ids[at:at + 3]
        queue.decrease(batch)
    return ApproxTrussOrder(order, forward, sample.fell_back_to_exact, sample.realized_p)


def _incidence(m: int, ids: Sequence[int]) -> list[list[int]]:
    """Per vertex below m, the offset in the flat column ``ids`` of each
    hyperedge that holds it; a vertex's list is as long as its degree."""
    incidence: list[list[int]] = [[] for _ in range(m)]
    column = iter(ids)
    for at, (a, b, c) in zip(range(0, len(ids), 3), zip(column, column, column)):
        incidence[a].append(at)
        incidence[b].append(at)
        incidence[c].append(at)
    return incidence


def approx_truss_order(g: Graph, cfg: SamplerConfig) -> ApproxTrussOrder:
    """Sample the triangle hypergraph of g and peel it.

    When the doubling loop reaches p = 1 nothing is listed: the order is
    then an exact truss order of g, since peeling the full hypergraph
    coincides with min-support edge peeling, and the order and its forward
    degrees come from that peel (``truss_decomposition``), which costs
    about a quarter of the hypergraph peel of all T triangles.  A sampled
    order's hyperedges are freed after its peel.
    """
    info = degeneracy_order(g)
    rows = list(forward_rows(g, info.order, info.positions))
    sizes = (g.n, g.m, forward_wedge_count(g, info))
    found = _doubling(g, rows, sizes, _NO_BLOCK, cfg.epsilon, cfg.zeta, random.Random(cfg.seed))
    if found is None:
        exact = truss_decomposition(g)[1]
        return ApproxTrussOrder(exact.order, exact.forward_support, True, 1.0)
    kept, _, p = found
    return hypergraph_degeneracy_order(HypergraphSample(g.m, kept, p, False, cfg.seed))


def approx_order_holds(g: Graph, order: Sequence[int], epsilon: float) -> bool:
    """Check the defining inequality of a (1+eps)-approximate truss order.

    Every edge's forward support must be at most
    max(T/m, (1+eps) * minimum residual support of its suffix), with T and m
    taken from the graph the order was computed on.  T is the sum of the
    forward supports, since each triangle counts once, at its first edge
    in the order (``EdgeOrder``).  A negative or non-finite epsilon raises
    ValueError.
    """
    if not (0.0 <= epsilon < math.inf):
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")
    if g.m == 0:
        return True
    fwd, min_sup = suffix_support_profile(g, order)
    density = Fraction(sum(fwd), g.m)
    factor = 1 + Fraction(str(epsilon))
    return all(
        f <= density or f <= factor * s for f, s in zip(fwd, min_sup)
    )


def marker_test(order: Iterable[int], spurious: Sequence[bool]) -> bool:
    """True iff some spurious edge precedes the last original edge.

    ``order`` is a permutation of the edge ids, as a sequence such as
    ``ApproxTrussOrder.order`` or lazily as an iterator over a peel's pops;
    one with a length must match ``spurious``.  The test reads the order
    only up to the pop that decides it: the first spurious edge hits iff
    some original edge is still to come, and once every original edge is
    out the test misses.
    """
    if isinstance(order, Sized) and len(order) != len(spurious):
        raise ValueError(f"order has {len(order)} edges but {len(spurious)} labels given")
    originals = spurious.count(False)
    if not originals:
        return False
    for eid in order:
        if spurious[eid]:
            return True
        originals -= 1
        if not originals:
            return False
    return False


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of the marker-based trussness estimation.

    ``estimate`` is already divided back to the input graph's scale.  The
    exact flag marks runs certified to return the true value (triangle-free
    input, or a certification interval pinning a unique candidate).  The
    trace records each marker round as (x, test outcome); when every round's
    order came from the exact-enumeration fallback, the whole run was
    deterministic and seed-independent.  Rounds whose fallback is certain
    are decided in closed form from one trussness peel and one supports
    count of the input, with the outcome an exact peel of the augmented
    graph would give.  A sampled round draws its sample with the skip pass
    and doubling loop of ``sample_hypergraph``, the cliques given as a block
    of the working graph's rows, and its outcome is the marker test on that
    sample's peel, read off a core test of the sample's working part
    (``_marker_hit``); that peel is never run.  Every sampled round shares
    one working graph, built by a single ``build_graph`` pass over the
    blow-up's edges and K3's, and only when some round samples.
    """

    estimate: Fraction
    exact: bool
    iterations: int
    trace: list[tuple[int, bool]]
    all_rounds_fell_back: bool

    @property
    def value(self) -> float:
        return float(self.estimate)


def _round_order(
    rounds: _MarkerRounds, x: int, eps: float, zeta: float, seed: int
) -> tuple[bool | None, bool]:
    """One marker round on the random path: (hit, fell_back).

    Samples the working graph plus round x's marker cliques with the
    doubling loop (``_doubling``) of ``sample_hypergraph``, over the
    augmented graph's sizes (``augmented_sizes``) and with the cliques as
    a block of the working graph's rows (``_MarkerRounds.block``), and
    returns the marker test's outcome on the peel of that sample
    (``_marker_hit`` on its working part's hyperedges and marker-edge
    degrees).  When the doubling loop reaches p = 1 the round falls back
    and hit is None: the exact order's marker outcome is known in closed
    form, so no pass at p = 1 runs.
    """
    g = rounds.graph
    sizes = augmented_sizes(g.n, g.m, rounds.wedges, x)
    found = _doubling(g, rounds.rows, sizes, rounds.block(x), eps, zeta, random.Random(seed))
    if found is None:
        return None, True
    kept, marks, _ = found
    return _marker_hit(g.m, kept, marks), False


def _marker_hit(m: int, kept: Sequence[tuple[int, int, int]], marks: Sequence[int]) -> bool:
    """``marker_test`` on the peel of a marker round's whole sample, from the
    hyperedges ``kept`` in its working part, on edge ids below m, and the
    sampled degree of each marker edge.

    No hyperedge spans both parts, so the whole peel merges the parts'
    peels by (degree, id), and the marker edges have the larger ids.  The
    marker part first pops at k*, the least marker-edge degree, once the
    working part's next pop has a larger degree; so some marker edge
    precedes a working edge iff the working part's peel pops some edge at
    a degree above k*, that is iff its degeneracy exceeds k*, iff its
    (k*+1)-core is not empty.  With k* = 0 that core is every kept
    hyperedge.  A peel pops each of the m vertices once, taking at most its
    degree at the pop, so K kept hyperedges force a degeneracy of at least
    K/m: K > k*·m decides a hit by counting alone.  Otherwise a worklist
    finds the core, with no queue and no tie-break: vertices of degree at
    most k* drop, each taking its live hyperedges with it, and a vertex
    joins the worklist when its degree falls to k*; the core is what is
    left.
    """
    least = min(marks)
    ids = Triples.of(kept).ids
    live = len(ids) // 3
    if not least or live > least * m:
        return live > 0
    incidence = _incidence(m, ids)
    degree = list(map(len, incidence))
    drop = [v for v, d in enumerate(degree) if d <= least]
    dead = bytearray(len(ids))
    while drop:
        for at in incidence[drop.pop()]:
            if dead[at]:
                continue
            dead[at] = 1
            live -= 1
            for w in ids[at:at + 3]:
                d = degree[w] - 1
                degree[w] = d
                if d == least:
                    drop.append(w)
    return live > 0


def estimate_trussness(
    g_in: Graph,
    epsilon: float,
    *,
    zeta: float = 110.0,
    seed: int = 0,
    pseudocode_growth: bool = False,
) -> EstimateResult:
    """Estimate the trussness of g_in within (1 +- epsilon), w.h.p.

    The input is blown up 6-fold and united with one triangle, so the working
    graph G has trussness 6*t (or 1 when t = 0) and accuracy eps' = eps/6
    suffices.  Marker cliques of trussness x are appended to G and an
    approximate truss order of the augmented graph is computed; as long as
    some marker edge precedes the last edge of G, x is recorded and grown by
    a factor (1 + eps').  The final estimate is mapped back by dividing by 6;
    if the bracketing interval around it contains a single multiple of 6 the
    returned value is certified exact.

    Which rounds can sample follows from closed-form facts.  For an input
    with n nodes, m edges, T triangles, trussness t and degeneracy d (t from
    one trussness peel and T from one supports count of the input, no peel
    order needed), G has 6n+3 nodes, 36m+3 edges, 216T+1 triangles,
    trussness max(6t, 1) and degeneracy max(6d, 2) (a q-fold blow-up scales
    degeneracy by q).  Each of the ``spurious_clique_budget`` marker
    cliques of round x adds x+2 nodes, C(x+2,2) edges and C(x+2,3)
    triangles (``augmented_sizes``).
    When ``fallback_certain`` holds for these sizes, the round's order is the
    exact peel, on which the marker test hits iff x < t(G): a (support, id)
    peel removes every edge of G with trussness <= x before the first marker
    edge, whose support stays x until then and whose id is larger.  Such
    rounds are decided without building anything; the ~36m-edge G is built
    once, and only if some round can take the random path
    (``_working_graph``): after its node and edge counts pass the node-id
    limit and ``gadgets.MATERIALIZE_CAP``, the blow-up's edges and K3's
    stream into one ``build_graph`` call, with no blow-up built on its own.
    Its degeneracy order, forward rows and W are then computed once
    (``_MarkerRounds``), and no round builds an augmented graph: the
    cliques' part of the order and their wedges follow in closed form, and
    each pass walks them as a block of G's rows (``_skip_pass``).  A round
    whose doubling reaches p = 1 takes the same closed-form outcome without
    a pass at p = 1.  Seeds, samples and outcomes are those of sampling
    each materialised augmented graph.  x grows to at most
    min(ceil(2*sqrt(m_G)), 2*d(G)+2).  The second term cannot bind after a
    closed-form hit, since x < t(G) < d(G) and x at most doubles, so it is
    read off G's own order once a round samples, and the input is never
    ordered.
    ``zeta`` and ``seed`` are the samplers' (see ``SamplerConfig``).

    ``pseudocode_growth`` grows x by (1 + epsilon) per round instead of
    (1 + eps'); coarser, but cheaper on high-trussness inputs.
    """
    SamplerConfig(epsilon, zeta, seed)  # raises on an epsilon or zeta out of range

    eps_exact = Fraction(str(epsilon))
    eps_prime = eps_exact / 6
    growth = 1 + (eps_exact if pseudocode_growth else eps_prime)
    eps_prime_float = float(eps_prime)

    supports = compute_supports(g_in)
    t_in = _trussness_from_supports(g_in, supports).trussness
    n_w = 6 * g_in.n + 3
    m_w = 36 * g_in.m + 3
    tri_w = 216 * supports.triangle_count + 1
    t_w = max(6 * t_in, 1)
    x_cap = math.ceil(2 * math.sqrt(m_w))
    rounds: _MarkerRounds | None = None

    x = 1
    t_tilde = 1
    trace: list[tuple[int, bool]] = []
    all_fell_back = True
    base = random.Random(seed).randrange(2**62)  # decorrelate round seeds
    while True:
        hit = None
        if not fallback_certain(*augmented_sizes(n_w, m_w, tri_w, x), eps_prime_float, zeta):
            if rounds is None:
                rounds = _MarkerRounds(_working_graph(g_in, n_w, m_w))
                x_cap = min(x_cap, 2 * rounds.info.degeneracy + 2)
            hit, fell_back = _round_order(rounds, x, eps_prime_float, zeta, base + len(trace))
            all_fell_back = all_fell_back and fell_back
        if hit is None:
            hit = x < t_w
        trace.append((x, hit))
        if not hit:
            break
        t_tilde = x
        nxt = math.ceil(growth * x)
        if nxt > x_cap:
            break
        x = nxt

    estimate, exact = Fraction(0), True
    if t_tilde >= 2:
        low = Fraction(t_tilde) / (1 + eps_prime)
        high = (t_tilde + 1) * (1 + 3 * eps_prime)
        first = math.ceil(low / 6)
        exact = first == math.floor(high / 6)
        estimate = Fraction(first) if exact else Fraction(t_tilde, 6)
    return EstimateResult(estimate, exact, len(trace), trace, all_fell_back)


def _working_graph(g: Graph, n_w: int, m_w: int) -> Graph:
    """The estimator's working graph: g blown up 6-fold, united with K3.

    Its ``n_w`` nodes and ``m_w`` edges (6n+3 and 36m+3, as
    ``estimate_trussness`` computes them) are held to ``graph.NODE_ID_LIMIT``
    and ``gadgets.MATERIALIZE_CAP``, read at call time, before anything is
    built; a limit it would pass raises one ValueError line that names the
    blow-up.  The blow-up's edges then stream into the one ``build_graph``
    call of the union (``disjoint_union``), so G is built and held once.
    """
    sizes = ((n_w, "nodes, above the node-id limit", graph.NODE_ID_LIMIT),
             (m_w, "edges, above the blow-up edge cap", gadgets.MATERIALIZE_CAP))
    for size, what, limit in sizes:
        if size > limit:
            raise ValueError(
                f"the estimator's working graph (6-fold blow-up of the input plus a triangle)"
                f" would have {size} {what} {limit}; a larger zeta decides more rounds in closed"
                f" form, without building it"
            )
    return disjoint_union(blowup(g, 6), complete_graph(3))


@dataclass(frozen=True)
class ThresholdRound:
    edges: int
    triangles: int
    density: Fraction


def threshold_rounds(g: Graph, epsilon: float) -> list[ThresholdRound]:
    """Density trajectory of iterated support thresholding with c = 3+eps.

    Each round counts the supports of the current graph's edges
    (``compute_supports``), records the triangle density T_i/m_i and builds
    the next graph from the edges of support > c * T_i/m_i, in edge-id
    order, on their endpoints alone, renumbered densely in first-appearance
    order: m_i, T_i and the density do not depend on node labels, and a
    round then maps only nodes that still carry an edge.  Supports sum to
    3*T_i, so at most a 3/c fraction of edges survives and O(log m) rounds
    suffice.
    """
    if not (0.0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    c = 3 + Fraction(str(epsilon))
    rounds: list[ThresholdRound] = []
    while g.m:
        table = compute_supports(g)
        density = Fraction(table.triangle_count, g.m)
        rounds.append(ThresholdRound(g.m, table.triangle_count, density))
        # Supports are integers, so s > c * density iff s > its floor.
        cutoff = math.floor(c * density)
        keep = bytes(map(cutoff.__lt__, table.support))
        label = dict(zip(dict.fromkeys(chain.from_iterable(compress(g.edges(), keep))), count()))
        kept = ((label[u], label[v]) for u, v in compress(g.edges(), keep))
        g = build_graph(kept, node_count=len(label))
    return rounds


def threshold_estimate(g: Graph, epsilon: float) -> Fraction:
    """Deterministic estimate t~ with t~ <= trussness <= (3+eps) * t~."""
    rounds = threshold_rounds(g, epsilon)
    return max((r.density for r in rounds), default=Fraction(0))
