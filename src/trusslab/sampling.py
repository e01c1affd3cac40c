"""Triangle-hypergraph sampling by forward-wedge skipping.

The triangle hypergraph of a graph g has one vertex per edge of g and one
3-vertex hyperedge per triangle; a vertex's degree equals its edge's support,
so hypergraph peeling mirrors truss peeling.  Rather than scanning all W
forward wedges to Bernoulli-sample the triangles, the sampler jumps between
accepted wedges with geometric skips, paying only for what it keeps, and
doubles the acceptance probability until the sample is large enough to rank
edge supports reliably.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .graph import DegeneracyInfo, Graph, build_graph, forward_wedge_count
from .triangles import ForwardRow, forward_rows, forward_triangles, sorted3


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

    Hyperedges are canonical ascending edge-id triples; no duplicates are
    possible because each triangle is visited through its unique forward
    wedge.  When the probability-doubling loop would push p to 1 or beyond,
    ``fell_back_to_exact`` is set and ``hyperedges`` holds all triangles.
    """

    vertex_count: int
    hyperedges: list[tuple[int, int, int]]
    realized_p: float
    fell_back_to_exact: bool
    rng_seed: int


# ln of the least positive value ``random.Random.random`` returns
_LN_LEAST_U = math.log(2.0**-53)


def geometric_skip(p: float, rng: random.Random) -> int:
    """Geometric(p) variate on {1, 2, ...}: trials until the first success.

    Inverse transform ceil(ln U / ln(1-p)) with U uniform on (0, 1); p = 1
    always returns 1.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must be in (0, 1], got {p}")
    return next(_skips(p, rng))


def _skips(p: float, rng: random.Random) -> Iterator[int]:
    """Endless Geometric(p) skips, one ``rng.random()`` per skip (redrawn
    if 0); p = 1 steps by 1 without drawing.

    log1p(-p) is taken once, and p is not checked: callers pass 0 < p <= 1.
    Below p ~ 2e-307, subnormal p included, ln U / ln(1-p) can overflow a
    float, so the ceil is taken exactly; every such skip exceeds 10^290 and
    a pass keeps nothing.
    """
    if p == 1.0:
        while True:
            yield 1
    draw, log, ceil = rng.random, math.log, math.ceil
    lq = math.log1p(-p)
    if math.isinf(_LN_LEAST_U / lq):
        exact = Fraction(lq)
        while True:
            u = draw()
            while u <= 0.0:
                u = draw()
            yield ceil(Fraction(log(u)) / exact)
    while True:
        u = draw()
        while u <= 0.0:
            u = draw()
        step = ceil(log(u) / lq)
        yield step if step > 1 else 1


def _skip_pass(
    g: Graph, rows: list[ForwardRow], p: float, rng: random.Random
) -> list[tuple[int, int, int]]:
    """The closed wedges among those a geometric skip sequence selects.

    ``rows`` are g's forward rows (``forward_rows``) in degeneracy order.
    Wedges are numbered row by row, and within a row in lexicographic pair
    order, so a skip sequence selects a reproducible wedge subset.

    ``gap`` is the offset of the next probed wedge from the start of the
    current row.  A row of L later neighbors holds L(L-1)/2 pairs; counted
    back from its end, the pairs of index i = L-2-k are offsets
    k(k+1)/2 .. k(k+1)/2 + k, so k and then j follow from one isqrt.  The
    pairs (i, i+1..L-1) form segment i: the probes after the decoded one
    step j by their skips and reuse i's neighbor map until j passes L-1,
    so only a probe that enters a new segment decodes.  Each probe costs
    O(1), and each pass O(n + rows + probes).  A wedge is a pair of edges,
    so a first skip past m(m-1)/2 >= W walks no row.
    """
    out: list[tuple[int, int, int]] = []
    keep, isqrt = out.append, math.isqrt
    skip = _skips(p, rng).__next__
    gap = skip() - 1
    if gap >= g.m * (g.m - 1) // 2:
        return out
    nbrs = list(map(g.neighbors, range(g.n)))
    for _, later, ids in rows:
        last = len(later) - 1
        size = last * (last + 1) // 2
        while gap < size:
            back = size - 1 - gap
            k = (isqrt(8 * back + 1) - 1) // 2
            i = last - 1 - k
            j = last - back + k * (k + 1) // 2
            base = gap - j
            closes, a = nbrs[later[i]].get, ids[i]
            while j <= last:
                closing = closes(later[j])
                if closing is not None:
                    keep(sorted3(a, ids[j], closing))
                j += skip()
            gap = base + j
        gap -= size
    return out


def sample_wedges_fixed_p(
    g: Graph, info: DegeneracyInfo, p: float, seed: int
) -> HypergraphSample:
    """One skip pass at a fixed probability, no doubling.

    Each triangle of g lands in the sample independently with probability p;
    exposed so the Bernoulli equivalence of the skip enumeration can be
    tested head-on.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must be in (0, 1], got {p}")
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
    """Sample the triangle hypergraph with probability doubling.

    Starts from p = zeta * m * log(m) / (W * eps^2) and repeats single skip
    passes, doubling p (and discarding the previous pass entirely) until the
    sample holds at least 1.5 * zeta * m * log(m) / eps^2 hyperedges.  If p
    reaches 1 first, all triangles are enumerated instead and the fallback
    flag is set.  Identical (graph, config) inputs give identical samples.
    A zeta so small that the first p underflows to 0 raises ValueError.
    """
    W = forward_wedge_count(g, info)
    if W == 0:
        return HypergraphSample(g.m, [], 1.0, True, cfg.seed)
    eps = effective_epsilon(cfg.epsilon, g.n)
    p = initial_probability(g.m, W, eps, cfg.zeta)
    target = sample_size_target(g.m, eps, cfg.zeta)
    if not (p > 0.0 and target > 0.0):
        raise ValueError(f"zeta={cfg.zeta} is too small: the first p underflows to 0")
    rows = list(forward_rows(g, info.order, info.positions))
    rng = random.Random(cfg.seed)
    while p < 1.0:
        sample = _skip_pass(g, rows, p, rng)
        if len(sample) >= target:
            return HypergraphSample(g.m, sample, p, False, cfg.seed)
        del sample  # freed before the next pass draws
        p *= 2.0
    everything = [sorted3(x, y, z) for _, _, _, x, y, z in forward_triangles(g, rows)]
    return HypergraphSample(g.m, everything, 1.0, True, cfg.seed)


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) via the same geometric-skip machinery.

    Pairs (i, j), i < j, are serialized lexicographically and visited by
    the skips of ``_skips``, so the cost is proportional to the number of
    edges produced; p = 1 visits every pair.  Deterministic per seed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n < 2 or p == 0.0:
        return build_graph([], node_count=n)
    skip = _skips(p, random.Random(seed)).__next__
    total = n * (n - 1) // 2
    edges: list[tuple[int, int]] = []
    row = 0
    row_start = 0
    row_len = n - 1
    serial = skip() - 1
    while serial < total:
        while serial >= row_start + row_len:
            row_start += row_len
            row += 1
            row_len -= 1
        edges.append((row, row + 1 + (serial - row_start)))
        serial += skip()
    return build_graph(edges, node_count=n)
