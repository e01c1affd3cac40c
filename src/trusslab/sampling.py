"""Triangle-hypergraph sampling by forward-wedge skipping.

The triangle hypergraph of a graph g has one vertex per edge of g and one
3-vertex hyperedge per triangle; a vertex's degree equals its edge's support,
so hypergraph peeling mirrors truss peeling.  Rather than scanning all W
forward wedges to Bernoulli-sample the triangles, the sampler jumps between
accepted wedges with geometric skips, paying only for what it keeps, and
doubles the acceptance probability until the sample is large enough to rank
edge supports reliably.  One pass (``_skip_pass``) and one doubling loop
(``_doubling``) serve every wedge space: a marker round of the estimator
samples one working graph plus disjoint cliques with the same pass, given
the cliques as a block of rows among the graph's, without building their
union: the cliques' wedges are all closed, and their edge ids are
arithmetic.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Sequence

from .gadgets import spurious_clique_budget
from .graph import DegeneracyInfo, Graph, build_graph, degeneracy_order, forward_wedge_count
from .triangles import ForwardRow, Triples, forward_rows, list_triangles


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs shared by all randomized procedures.

    zeta scales the target sample size; the default 110 honors the analysis
    constant that certifies the estimates, at the price of falling back to
    exact enumeration on small graphs (the formula then pushes p past 1).
    Smaller zeta trades certification for an actually-engaged random path.
    """

    epsilon: float
    zeta: float = 110.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not (0.0 < self.zeta < math.inf):
            raise ValueError(f"zeta must be finite and positive, got {self.zeta}")


@dataclass(frozen=True)
class HypergraphSample:
    """A Bernoulli sample of the triangle hypergraph.

    Hyperedges are canonical ascending edge-id triples, in probe order, in
    one flat 4-byte column (``Triples``, 12 bytes each); no duplicates are
    possible because each triangle is visited through its unique forward
    wedge.  When the probability-doubling loop would push p to 1 or beyond,
    ``fell_back_to_exact`` is set and ``hyperedges`` holds all triangles.
    """

    vertex_count: int
    hyperedges: Triples
    realized_p: float
    fell_back_to_exact: bool
    rng_seed: int


# ln of the least positive value ``random.Random.random`` returns
_LN_LEAST_U = math.log(2.0**-53)


def geometric_skip(p: float, rng: random.Random) -> int:
    """Geometric(p) variate on {1, 2, ...}: trials until the first success.

    Inverse transform ceil(ln U / ln(1-p)) with one ``rng.random()`` for U
    (redrawn if 0); p = 1 returns 1 without drawing.  It draws the first
    skip of every pass and every skip of G(n, p); a pass draws the rest
    inline, as ``ceil(log(draw() or _positive(draw)) / lq)`` with ``draw``
    = ``rng.random`` and ``lq`` = log1p(-p): the same draws and values,
    with no call per probe.

    For p < 1 both logs are negative, with |ln U| >= 1.1e-16 and
    |ln(1-p)| <= 36.8, so the ratio is at least 3e-18 and every ceil is at
    least 1.  Below p ~ 2e-307, subnormal p included, ln U / ln(1-p) can
    overflow a float, so the ceil is taken exactly; every such skip exceeds
    10^290, so a first skip passes every wedge (and every pair of G(n, p))
    and the inline float formula never runs at such a p.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must be in (0, 1], got {p}")
    if p == 1.0:
        return 1
    lq = math.log1p(-p)
    u = rng.random() or _positive(rng.random)
    if math.isinf(_LN_LEAST_U / lq):
        return math.ceil(Fraction(math.log(u)) / Fraction(lq))
    return math.ceil(math.log(u) / lq)


def _positive(draw: Callable[[], float]) -> float:
    """The redraw of a ``draw()`` of 0.0: draws until one is positive."""
    u = draw()
    while u <= 0.0:
        u = draw()
    return u


def _walk(
    rows: Sequence[ForwardRow],
    links: Sequence[dict[int, int]] | Sequence[int],
    gap: int,
    draw: Callable[[], float],
    lq: float,
    keep: array | list[int],
    base: int = -1,
) -> int:
    """The probes of one stretch of forward rows; returns the offset of the
    next probed wedge past the stretch's end.

    Wedges are numbered row by row, and within a row in lexicographic pair
    order, so a skip sequence selects a reproducible wedge subset.  ``gap``
    is the offset of the next probed wedge from the start of the current
    row.  A row of L later neighbors holds L(L-1)/2 pairs; counted back
    from its end, the pairs of index i = L-2-k are offsets
    k(k+1)/2 .. k(k+1)/2 + k, so k and then j follow from one isqrt.  The
    pairs (i, i+1..L-1) form segment i: the probes after the decoded one
    step j by their skips until j passes L-1, so only a probe that enters
    a new segment decodes.  Each probe costs O(1), its skip included: it
    is drawn in the loop that uses it, ``draw`` being ``rng.random`` and
    ``lq`` log1p(-p) for a pass at 0 < p < 1 (see ``geometric_skip``).

    A graph's rows (``base`` < 0) are probed through ``links``, its
    neighbor maps: a probed wedge closes iff the later node's map holds
    the other one, and each closed wedge's three edge ids are ordered in
    place and appended to ``keep``, a ``Triples`` column, with no tuple
    made.  The rows of one marker clique (``_clique_rows``, with
    ``base`` the clique's first marker index) close every wedge, and their
    edge ids are arithmetic: the pair (v, b) of the clique has index
    ``base + links[v] + b``.  There ``keep`` is the list of sampled
    marker-edge degrees, and a probe adds 1 to it at the index of each of
    its three edges, with no lookup and no triple.
    """
    isqrt, log, ceil = math.isqrt, math.log, math.ceil
    push = keep.append
    for u, later, ids in rows:
        last = len(later) - 1
        size = last * (last + 1) // 2
        while gap < size:
            back = size - 1 - gap
            k = (isqrt(8 * back + 1) - 1) // 2
            i = last - 1 - k
            j = last - back + k * (k + 1) // 2
            start = gap - j
            if base < 0:
                closes, a = links[later[i]].get, ids[i]
                while j <= last:
                    c = closes(later[j])
                    if c is not None:
                        b = ids[j]
                        if a < b:
                            lo, hi = a, b
                        else:
                            lo, hi = b, a
                        if c < lo:
                            lo, hi, c = c, lo, hi
                        elif c < hi:
                            hi, c = c, hi
                        push(lo)
                        push(hi)
                        push(c)
                    j += ceil(log(draw() or _positive(draw)) / lq)
            else:
                a = later[i]
                ub, ab = base + links[u], base + links[a]
                ua = ub + a
                while j <= last:
                    b = later[j]
                    keep[ua] += 1
                    keep[ub + b] += 1
                    keep[ab + b] += 1
                    j += ceil(log(draw() or _positive(draw)) / lq)
            gap = start + j
        gap -= size
    return gap


class _Block(NamedTuple):
    """Marker cliques that a pass walks among g's forward rows: ``count``
    disjoint K_size on node ids n.. and edge ids m.., whose rows
    (``_clique_rows``) sit just before g's row ``split``.  A plain pass
    has none (``_NO_BLOCK``; its size only keeps C(size, 3) positive)."""

    split: int
    count: int
    size: int


_NO_BLOCK = _Block(0, 0, 3)


def _skip_pass(
    g: Graph, rows: list[ForwardRow], p: float, rng: random.Random,
    block: _Block = _NO_BLOCK, marks: list[int] | None = None,
) -> Triples:
    """The closed wedges of g among those a geometric skip sequence selects.

    ``rows`` are g's forward rows (``forward_rows``) in degeneracy order,
    walked by ``_walk``, so each pass costs O(n + rows + probes).  The
    pass walks g's rows before ``block.split``, then the block's
    count * C(size, 3) clique wedges, all closed, then g's remaining rows,
    so it probes and draws as a pass over the materialised union of g and
    the cliques would.  It keeps g's closed wedges and adds each marker
    edge's sampled degree to ``marks`` (count * C(size, 2) zeros on entry,
    indexed by edge id - m).  Whole cliques that no probe lands in are
    stepped over in one division.  A wedge is a pair of edges, so a first
    skip past M(M-1)/2 >= W, M counting the block's edges too, walks no
    row.  At p = 1 every wedge is probed and nothing is drawn: the pass is
    ``list_triangles(g, rows)``, every closed wedge in probe order; a block
    needs p < 1, as the doubling loop walks only below 1.
    """
    if p == 1.0:
        return list_triangles(g, rows)
    out = Triples()
    split, count, size = block
    pairs, per = math.comb(size, 2), math.comb(size, 3)
    edges = g.m + count * pairs
    gap = geometric_skip(p, rng) - 1
    if gap >= edges * (edges - 1) // 2:
        return out
    draw, lq = rng.random, math.log1p(-p)
    links = list(map(g.neighbors, range(g.n)))
    gap = _walk(rows[:split], links, gap, draw, lq, out.ids)
    crows, clinks = _clique_rows(size)
    c, gap = divmod(gap, per)
    while c < count:
        gap = _walk(crows, clinks, gap, draw, lq, marks, c * pairs)
        over, gap = divmod(gap, per)
        c += 1 + over
    gap += (c - count) * per
    _walk(rows[split:], links, gap, draw, lq, out.ids)
    return out


def _probe_count(wedges: int, p: float, rng: random.Random, stop: int) -> int:
    """How many of ``wedges`` wedges a pass at 0 < p < 1 probes, counted up
    to ``stop``: the pass's skips drawn alone, inline as ``_walk`` draws
    them.

    A pass draws one skip for its first probe and one after each probe, so
    when fewer than ``stop`` probes land, rng is left exactly as the walk
    of that pass would leave it.
    """
    draw, log, ceil, lq = rng.random, math.log, math.ceil, math.log1p(-p)
    serial = geometric_skip(p, rng) - 1
    for count in range(stop):
        if serial >= wedges:
            return count
        serial += ceil(log(draw() or _positive(draw)) / lq)
    return stop


def _doubling(
    g: Graph, rows: list[ForwardRow], sizes: tuple[int, int, int], block: _Block,
    epsilon: float, zeta: float, rng: random.Random,
) -> tuple[Triples, list[int], float] | None:
    """The probability-doubling loop over the wedge space of g's forward
    ``rows`` plus ``block``, whose n, m and forward wedge count W are
    ``sizes``.

    Starts from p = zeta * m * log(m) / (W * eps^2) and runs one pass
    (``_skip_pass``) per p, doubling p (and discarding the previous pass
    entirely) until a pass keeps at least 1.5 * zeta * m * log(m) / eps^2
    hyperedges, g's and the block's; returns that pass's g hyperedges,
    marker-edge degrees and p, or None once p reaches 1, at once if W = 0.
    A pass keeps at most one hyperedge per probe, so when p * W is below
    the target its probes are counted first: fewer than the target fail
    the pass with rng where the walk would leave it, and otherwise rng is
    restored and the pass walks.  A zeta so small that the first p
    underflows to 0 raises ValueError.
    """
    n, m, wedges = sizes
    if wedges == 0:
        return None
    eps = effective_epsilon(epsilon, n)
    p = initial_probability(m, wedges, eps, zeta)
    target = sample_size_target(m, eps, zeta)
    if not (p > 0.0 and target > 0.0):
        raise ValueError(f"zeta={zeta} is too small: the first p underflows to 0")
    if p >= 1.0:
        return None
    need = math.ceil(target)  # finite, since target = 1.5 * p * W
    marker_edges = block.count * math.comb(block.size, 2)
    while p < 1.0:
        if p * wedges < target:
            state = rng.getstate()
            if _probe_count(wedges, p, rng, need) < need:
                p *= 2.0
                continue
            rng.setstate(state)
        marks = [0] * marker_edges
        kept = _skip_pass(g, rows, p, rng, block, marks)
        if len(kept) + sum(marks) // 3 >= need:
            return kept, marks, p
        del kept, marks  # freed before the next pass draws
        p *= 2.0
    return None


def sample_wedges_fixed_p(
    g: Graph, info: DegeneracyInfo, p: float, seed: int
) -> HypergraphSample:
    """One skip pass at a fixed probability, no doubling.

    Each triangle of g lands in the sample independently with probability p;
    exposed so the Bernoulli equivalence of the skip enumeration can be
    tested head-on.
    """
    rows = list(forward_rows(g, info.order, info.positions))
    rng = random.Random(seed)
    return HypergraphSample(g.m, _skip_pass(g, rows, p, rng), p, False, seed)


def initial_probability(m: int, wedges: int, epsilon: float, zeta: float) -> float:
    return zeta * m * math.log(m) / (wedges * epsilon * epsilon)


def sample_size_target(m: int, epsilon: float, zeta: float) -> float:
    return 1.5 * zeta * m * math.log(m) / (epsilon * epsilon)


def fallback_certain(n: int, m: int, triangles: int, epsilon: float, zeta: float) -> bool:
    """Whether ``sample_hypergraph`` must fall back on a graph with these n, m, T.

    A skip pass never keeps more than the T triangles, so the doubling loop
    can stop early only if T reaches the target size; below it every pass
    falls short until p reaches 1.  This also covers W = 0 and a first p of
    1 or more, since T <= W.  At or above the target the first p is below 1
    and the outcome rests on the random passes.  Needs m >= 2.
    """
    eps = effective_epsilon(epsilon, n)
    return triangles < sample_size_target(m, eps, zeta)


def effective_epsilon(epsilon: float, n: int) -> float:
    """Accuracies finer than 1/n buy nothing; clamp there."""
    return max(epsilon, 1.0 / n) if n > 0 else epsilon


def sample_hypergraph(g: Graph, info: DegeneracyInfo, cfg: SamplerConfig) -> HypergraphSample:
    """Sample the triangle hypergraph with probability doubling (``_doubling``).

    If p reaches 1 before a pass keeps the target size, the fallback flag
    is set and one more pass runs at p = 1: the triangle listing
    (``list_triangles``), which keeps all triangles and draws nothing.
    Identical (graph, config) inputs give identical samples.  A zeta so
    small that the first p underflows to 0 raises ValueError.
    """
    rows = list(forward_rows(g, info.order, info.positions))
    rng = random.Random(cfg.seed)
    sizes = (g.n, g.m, forward_wedge_count(g, info))
    found = _doubling(g, rows, sizes, _NO_BLOCK, cfg.epsilon, cfg.zeta, rng)
    if found is None:
        return HypergraphSample(g.m, _skip_pass(g, rows, 1.0, rng), 1.0, True, cfg.seed)
    kept, _, p = found
    return HypergraphSample(g.m, kept, p, False, cfg.seed)


def _clique_rows(size: int) -> tuple[list[ForwardRow], list[int]]:
    """The forward rows of one marker clique K_size, nodes in id order, with
    local node and edge ids, and per node v the offset ``links[v]`` with
    which the pair (v, b), v < b, has index links[v] + b in
    ``combinations`` order."""
    links = [v * (2 * size - v - 1) // 2 - v - 1 for v in range(size)]
    rows = [
        (u, list(range(u + 1, size)), list(range(links[u] + u + 1, links[u] + size)))
        for u in range(size - 2)
    ]
    return rows, links


class _MarkerRounds:
    """Marker rounds against one working graph G, whose degeneracy order,
    forward rows and forward wedge count W are computed once.

    Round x samples G plus ``spurious_clique_budget(m, x)`` disjoint
    (x+2)-cliques on node ids n.. and edge ids m.., without building that
    graph.  Components of a disjoint union never change each other's keys,
    so its degeneracy peel is the merge of theirs by (key, id).  A clique's
    nodes all start at key x+1 and have the larger ids: the first pops only
    once G's least key exceeds x+1, its mates then drop below every key of
    G, and the next clique follows.  So the augmented order is G's order
    with every clique inserted, nodes in id order, just before G's first
    pop whose key exceeds x+1 (``block_at``); G's rows are unchanged, and
    the cliques' rows (``_clique_rows``) sit between them.  Round x's
    passes are ``_skip_pass`` over G's rows with the block ``block(x)``.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.info = info = degeneracy_order(g)
        self.rows = list(forward_rows(g, info.order, info.positions))
        self.wedges = forward_wedge_count(g, info)
        # the largest pop key up to each position of G's order
        self._key_max = list(accumulate(map(info.forward_degrees.__getitem__, info.order), max))
        self._row_at = [info.positions[u] for u, _, _ in self.rows]

    def block_at(self, x: int) -> int:
        """Position in G's order before which round x's cliques are inserted."""
        return bisect_right(self._key_max, x + 1)

    def block(self, x: int) -> _Block:
        """Round x's cliques, as the block of G's forward rows they sit in."""
        split = bisect_left(self._row_at, self.block_at(x))
        return _Block(split, spurious_clique_budget(self.graph.m, x), x + 2)


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) via the same geometric-skip machinery.

    Pairs (i, j), i < j, are serialized lexicographically and visited by
    one ``geometric_skip`` draw per step, so the cost is proportional to
    the number of edges produced; p = 1 visits every pair without drawing.
    The edges stream into ``build_graph``, whose node-count check runs
    before the first draw.  Deterministic per seed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")

    def pairs() -> Iterator[tuple[int, int]]:
        if n < 2 or p == 0.0:
            return
        rng = random.Random(seed)
        total = n * (n - 1) // 2
        row = 0
        row_start = 0
        row_len = n - 1
        serial = geometric_skip(p, rng) - 1
        while serial < total:
            while serial >= row_start + row_len:
                row_start += row_len
                row += 1
                row_len -= 1
            yield row, row + 1 + (serial - row_start)
            serial += geometric_skip(p, rng)

    return build_graph(pairs(), node_count=n)
