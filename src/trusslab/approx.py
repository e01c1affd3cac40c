"""Approximate trussness estimation.

Two estimators live here.  The randomized one peels a sampled triangle
hypergraph to get an approximate truss order, then brackets the trussness by
planting disjoint marker cliques of known trussness x and watching where
their edges land in the order while x grows geometrically.  The combinatorial
one repeatedly discards edges whose support falls below a multiple of the
current triangle density; the best density seen is within a factor 3+eps of
the trussness, deterministically.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence, Sized

from . import gadgets, graph
from .gadgets import blowup, complete_graph, disjoint_union, spurious_clique_budget
from .graph import BucketQueue, Graph, degeneracy_order
from .sampling import (
    HypergraphSample,
    SamplerConfig,
    _MarkerRounds,
    fallback_certain,
    sample_hypergraph,
)
# compute_supports is unused here but stays bound: bench/selftest.py checks
# that the bench's tracer wraps this module's binding of it.
from .triangles import _common_neighbor_counts, _neighbor_sets, compute_supports  # noqa: F401
from .truss import suffix_support_profile, truss_decomposition


@dataclass(frozen=True)
class ApproxTrussOrder:
    """Edge order obtained by min-degree peeling of a hypergraph sample.

    Always a permutation of all edge ids (vertices with no sampled hyperedge
    peel first, ties by id).  ``forward_degrees[i]`` is the residual sampled
    degree of ``order[i]`` at its removal; on a full (unsampled) hypergraph
    their maximum equals the graph trussness.
    """

    order: list[int]
    forward_degrees: list[int]
    sample: HypergraphSample

    @property
    def degeneracy(self) -> int:
        return max(self.forward_degrees, default=0)


def hypergraph_degeneracy_order(sample: HypergraphSample) -> ApproxTrussOrder:
    """Peel the 3-uniform sample by minimum degree, ties by vertex id.

    Removing a vertex deletes its incident hyperedges, decrementing the two
    other endpoints of each; on the full triangle hypergraph this replays
    exact min-support edge peeling step for step.  Collects every pop of
    ``_hypergraph_peel``.
    """
    pops = list(_hypergraph_peel(sample))
    return ApproxTrussOrder([v for v, _ in pops], [d for _, d in pops], sample)


def _hypergraph_peel(sample: HypergraphSample) -> Iterator[tuple[int, int]]:
    """The pops (vertex, residual degree) of the min-degree peel, lazily.

    Each pop is yielded before its hyperedges are removed, so a consumer
    that stops early pays for the degree count, the queue and the pops it
    took.  The incidence lists wait for the first pop that removes a
    hyperedge, so a peel read only up to such a pop never builds them.
    """
    m = sample.vertex_count
    hyperedges = sample.hyperedges
    degree = Counter(chain.from_iterable(hyperedges))
    queue = BucketQueue(map(degree.__getitem__, range(m)))
    incidence: list[list[int]] | None = None
    live = [True] * len(hyperedges)
    for _ in range(m):
        v, d = queue.pop_min()
        yield v, d
        # d counts v's live hyperedges; at 0 there is nothing to remove.
        if not d:
            continue
        if incidence is None:
            incidence = [[] for _ in range(m)]
            for idx, (a, b, c) in enumerate(hyperedges):
                incidence[a].append(idx)
                incidence[b].append(idx)
                incidence[c].append(idx)
        # Both other endpoints of a live hyperedge are live; v itself is
        # popped, so the queue skips it.
        batch: list[int] = []
        for idx in incidence[v]:
            if live[idx]:
                live[idx] = False
                batch.extend(hyperedges[idx])
        queue.decrease(batch)


def approx_truss_order(g: Graph, cfg: SamplerConfig) -> ApproxTrussOrder:
    """Sample the triangle hypergraph of g and peel it.

    When the sampler falls back to exact enumeration the result is an exact
    truss order of g, since peeling the full hypergraph coincides with
    min-support edge peeling; the order and its forward degrees then come
    from that peel (``truss_decomposition``), which costs about a quarter
    of the hypergraph peel of all T triangles.
    """
    info = degeneracy_order(g)
    sample = sample_hypergraph(g, info, cfg)
    if sample.fell_back_to_exact:
        exact = truss_decomposition(g)[1]
        return ApproxTrussOrder(exact.order, exact.forward_support, sample)
    return hypergraph_degeneracy_order(sample)


def approx_order_holds(g: Graph, order: Sequence[int], epsilon: float) -> bool:
    """Check the defining inequality of a (1+eps)-approximate truss order.

    Every edge's forward support must be at most
    max(T/m, (1+eps) * minimum residual support of its suffix), with T and m
    taken from the graph the order was computed on.  T is the sum of the
    forward supports, since each triangle counts once, at its first edge
    in the order (``EdgeOrder``).
    """
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
    are decided in closed form from one exact decomposition of the input,
    with the outcome an exact peel of the augmented graph would give.  A
    sampled round's outcome is read off the prefix of its sample's peel
    that decides ``marker_test``; the rest of that peel is never run.
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

    Samples the working graph plus round x's marker cliques
    (``_MarkerRounds.sample``) and returns the marker test's outcome on
    the peel of that sample (``_marker_hit``).  When the doubling loop
    reaches p = 1 the round falls back and hit is None: the exact order's
    marker outcome is known in closed form, so no pass at p = 1 runs.
    """
    found = rounds.sample(x, eps, zeta, seed)
    if found is None:
        return None, True
    kept, marks, p = found
    working = HypergraphSample(rounds.graph.m, kept, p, False, seed)
    return _marker_hit(working, marks), False


def _marker_hit(working: HypergraphSample, marks: Sequence[int]) -> bool:
    """``marker_test`` on the peel of a marker round's whole sample, from its
    working part and the sampled degree of each marker edge.

    No hyperedge spans both parts, so the whole peel merges the parts'
    peels by (degree, id), and the marker edges have the larger ids.  The
    marker part first pops at k*, the least marker-edge degree, once the
    working part's next pop has a larger degree; so some marker edge
    precedes a working edge iff the working part's peel, read lazily,
    pops some edge at a degree above k*.  With k* = 0 that is any pop
    above 0, which comes iff the working part kept a hyperedge.
    """
    least = min(marks)
    if not least:
        return bool(working.hyperedges)
    return any(d > least for _, d in _hypergraph_peel(working))


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
    with n nodes, m edges, T triangles, trussness t and degeneracy d, G has
    6n+3 nodes, 36m+3 edges, 216T+1 triangles, trussness max(6t, 1) and
    degeneracy max(6d, 2) (a q-fold blow-up scales degeneracy by q).  Each
    of the ``spurious_clique_budget`` marker cliques of round x adds x+2
    nodes, C(x+2,2) edges and C(x+2,3) triangles.  When ``fallback_certain``
    holds for these sizes, the round's order is the exact peel, on which the
    marker test hits iff x < t(G): a (support, id) peel removes every edge of
    G with trussness <= x before the first marker edge, whose support stays
    x until then and whose id is larger.  Such rounds are decided without
    building anything; the ~36m-edge G is built once, and only if some
    round can take the random path (``_working_graph``).  Its
    degeneracy order, forward rows and W are then computed once
    (``_MarkerRounds``), and no round builds an augmented graph: the
    cliques' part of the order and their wedges follow in closed form.  A
    round whose doubling reaches p = 1 takes the same closed-form outcome
    without a pass at p = 1.  Seeds, samples and outcomes are those of
    sampling each materialised augmented graph.  ``zeta`` and ``seed`` are
    the samplers' (see ``SamplerConfig``).

    ``pseudocode_growth`` grows x by (1 + epsilon) per round instead of
    (1 + eps'); coarser, but cheaper on high-trussness inputs.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < zeta < math.inf):
        raise ValueError(f"zeta must be finite and positive, got {zeta}")

    eps_exact = Fraction(str(epsilon))
    eps_prime = eps_exact / 6
    growth = 1 + (eps_exact if pseudocode_growth else eps_prime)
    eps_prime_float = float(eps_prime)

    decomp, order = truss_decomposition(g_in)
    t_in = decomp.trussness
    n_w = 6 * g_in.n + 3
    m_w = 36 * g_in.m + 3
    tri_w = 216 * sum(order.forward_support) + 1
    t_w = max(6 * t_in, 1)
    d_w = max(6 * degeneracy_order(g_in).degeneracy, 2)
    x_cap = min(2 * d_w + 2, math.ceil(2 * math.sqrt(m_w)))
    rounds: _MarkerRounds | None = None

    x = 1
    t_tilde = 1
    trace: list[tuple[int, bool]] = []
    all_fell_back = True
    base = random.Random(seed).randrange(2**62)  # decorrelate round seeds
    while True:
        count = spurious_clique_budget(m_w, x)
        size = x + 2
        if fallback_certain(
            n_w + count * size,
            m_w + count * math.comb(size, 2),
            tri_w + count * math.comb(size, 3),
            eps_prime_float,
            zeta,
        ):
            hit = x < t_w
        else:
            if rounds is None:
                rounds = _MarkerRounds(_working_graph(g_in))
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

    if t_tilde < 2:
        return EstimateResult(Fraction(0), True, len(trace), trace, all_fell_back)
    low = Fraction(t_tilde) / (1 + eps_prime)
    high = (t_tilde + 1) * (1 + 3 * eps_prime)
    first = math.ceil(low / 6)
    last = math.floor(high / 6)
    if first == last:
        return EstimateResult(Fraction(first), True, len(trace), trace, all_fell_back)
    return EstimateResult(Fraction(t_tilde, 6), False, len(trace), trace, all_fell_back)


def _working_graph(g: Graph) -> Graph:
    """The estimator's working graph: g blown up 6-fold, united with K3.

    Its 6n+3 nodes and 36m+3 edges are held to ``graph.NODE_ID_LIMIT`` and
    ``gadgets.MATERIALIZE_CAP``, read at call time, before anything is
    built; a limit it would pass raises one ValueError line that names the
    blow-up.
    """
    sizes = ((6 * g.n + 3, "nodes, above the node-id limit", graph.NODE_ID_LIMIT),
             (36 * g.m + 3, "edges, above the blow-up edge cap", gadgets.MATERIALIZE_CAP))
    for size, what, limit in sizes:
        if size > limit:
            raise ValueError(
                f"the estimator's working graph (6-fold blow-up of the input plus a triangle)"
                f" would have {size} {what} {limit}; a larger zeta decides more rounds in closed"
                f" form, without building it"
            )
    return disjoint_union(blowup(g, 6).materialize(gadgets.MATERIALIZE_CAP), complete_graph(3))


@dataclass(frozen=True)
class ThresholdRound:
    edges: int
    triangles: int
    density: Fraction


def threshold_rounds(g: Graph, epsilon: float) -> list[ThresholdRound]:
    """Density trajectory of iterated support thresholding with c = 3+eps.

    Each round counts the surviving edges' supports as common neighbors,
    records the triangle density T_i/m_i and removes every edge of support
    <= c * T_i/m_i from the neighbor sets; supports sum to 3*T_i, so at most
    a 3/c fraction of edges survives and O(log m) rounds suffice.
    """
    if not (0.0 < epsilon < math.inf):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    c = 3 + Fraction(str(epsilon))
    rounds: list[ThresholdRound] = []
    nbrs = _neighbor_sets(g)
    pairs = list(g.edges())
    while pairs:
        support = _common_neighbor_counts(nbrs, pairs)
        triangles = sum(support) // 3
        density = Fraction(triangles, len(pairs))
        rounds.append(ThresholdRound(len(pairs), triangles, density))
        # Supports are integers, so s > c * density iff s > its floor.
        cutoff = math.floor(c * density)
        for (u, v), s in zip(pairs, support):
            if s <= cutoff:
                nbrs[u].discard(v)
                nbrs[v].discard(u)
        pairs = [pair for pair, s in zip(pairs, support) if s > cutoff]
    return rounds


def threshold_estimate(g: Graph, epsilon: float) -> Fraction:
    """Deterministic estimate t~ with t~ <= trussness <= (3+eps) * t~."""
    rounds = threshold_rounds(g, epsilon)
    return max((r.density for r in rounds), default=Fraction(0))
