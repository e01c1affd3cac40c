"""Reference computations and output checks owned by the benchmark.

Nothing here imports trusslab: the facts every output is checked against
(triangle counts, per-edge trussness) come from an independent set-based
implementation, so a defect in the program cannot also hide in its oracle.
Each check raises ``CheckFailed`` with a reason, or returns ``None``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from inputs import EdgeGraph


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def peel_trussness(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Per-edge trussness (0-based: a k-clique has k-2) by bucket peeling.

    Removes a minimum-support edge at a time with set intersections; the
    order within a bucket is arbitrary, which does not change the values.
    """
    index = {e: i for i, e in enumerate(edges)}
    adj = _adjacency(n, edges)
    sup = [len(adj[u] & adj[v]) for u, v in edges]
    buckets: list[set[int]] = [set() for _ in range(max(sup, default=0) + 1)]
    for i, s in enumerate(sup):
        buckets[s].add(i)
    t = [0] * len(edges)
    level = 0
    for _ in range(len(edges)):
        while not buckets[level]:
            level += 1
        e = buckets[level].pop()
        t[e] = level
        u, v = edges[e]
        adj[u].discard(v)
        adj[v].discard(u)
        for w in adj[u] & adj[v]:
            for f in (index[_norm(u, w)], index[_norm(v, w)]):
                s = sup[f]
                if s > level:
                    buckets[s].remove(f)
                    buckets[s - 1].add(f)
                    sup[f] = s - 1
    return t


def sound_at_each_k(n: int, edges: list[tuple[int, int]], t: list[int]) -> bool:
    """True iff, for every k, each edge with t(e) >= k lies in >= k triangles
    of the subgraph of edges with t >= k.

    It suffices to test each edge at its own level: its support can only
    shrink as the level rises.  Levels are filled from the top down.
    """
    order = sorted(range(len(edges)), key=lambda i: -t[i])
    adj: list[set[int]] = [set() for _ in range(n)]
    i = 0
    while i < len(order):
        k = t[order[i]]
        j = i
        while j < len(order) and t[order[j]] == k:
            u, v = edges[order[j]]
            adj[u].add(v)
            adj[v].add(u)
            j += 1
        for e in order[i:j]:
            u, v = edges[e]
            if len(adj[u] & adj[v]) < k:
                return False
        i = j
    return True


class Reference:
    """Facts about one generated graph, computed lazily and at most once."""

    def __init__(self, graph: EdgeGraph):
        self.graph = graph

    @cached_property
    def triangles(self) -> int:
        adj = _adjacency(self.graph.n, self.graph.edges)
        return sum(len(adj[u] & adj[v]) for u, v in self.graph.edges) // 3

    @cached_property
    def edge_trussness(self) -> list[int]:
        g = self.graph
        t = peel_trussness(g.n, g.edges)
        # Validate the reference itself before anything is judged by it.
        if not sound_at_each_k(g.n, g.edges, t):
            raise RuntimeError("reference peel is not sound")
        for members in g.planted:
            bound = len(members) - 2
            inside = set(members)
            for e, (u, v) in enumerate(g.edges):
                if u in inside and v in inside and t[e] < bound:
                    raise RuntimeError("reference peel is below a planted-clique bound")
        return t

    @cached_property
    def trussness(self) -> int:
        return max(self.edge_trussness, default=0)


# ----------------------------------------------------------- checks ----


def check_triangle_count(text: str, ref: Reference) -> None:
    _require(text.strip() == str(ref.triangles),
             f"triangle count {text.strip()!r}, expected {ref.triangles}")


def check_decompose(text: str, ref: Reference) -> None:
    """Every edge, in input order, with exactly the reference trussness.

    Equality with the reference implies what the looser checks would test:
    soundness of every level and the planted-clique lower bounds.
    """
    lines = text.splitlines()
    g = ref.graph
    _require(len(lines) == g.m, f"{len(lines)} lines for {g.m} edges")
    expected = ref.edge_trussness
    for e, line in enumerate(lines):
        fields = line.split()
        _require(len(fields) == 3, f"line {e + 1}: {line!r}")
        u, v, t = (int(x) for x in fields)
        _require((u, v) == g.edges[e], f"line {e + 1}: edge ({u}, {v}), expected {g.edges[e]}")
        _require(t == expected[e], f"line {e + 1}: trussness {t}, expected {expected[e]}")


def check_threshold(text: str, ref: Reference, epsilon: float) -> None:
    """Round 1 matches the input, the estimate is the best round density,
    and t~ <= t <= (3+eps) * t~ holds against the reference trussness."""
    lines = text.splitlines()
    _require(bool(lines) and lines[0].startswith("estimate "), "missing estimate line")
    estimate = Fraction(lines[0].split()[1])
    densities = []
    prev_m = None
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split()
        _require(len(fields) == 5 and fields[0] == "round" and fields[1] == str(i),
                 f"bad round line {line!r}")
        m = int(fields[2].removeprefix("m="))
        tri = int(fields[3].removeprefix("T="))
        density = Fraction(fields[4].removeprefix("density="))
        _require(density == Fraction(tri, m), f"round {i}: density {density} != {tri}/{m}")
        _require(prev_m is None or m < prev_m, f"round {i}: edge count did not shrink")
        prev_m = m
        densities.append(density)
    g = ref.graph
    if g.m:
        first = lines[1].split()
        _require(first[2] == f"m={g.m}" and first[3] == f"T={ref.triangles}",
                 f"round 1 {first[2:4]} does not match the input (m={g.m}, T={ref.triangles})")
    _require(estimate == max(densities, default=Fraction(0)), "estimate is not the best density")
    t = ref.trussness
    c = 3 + Fraction(str(epsilon))
    _require(estimate <= t <= c * estimate,
             f"sandwich fails: estimate {estimate}, trussness {t}, factor {c}")


def check_reduction(edge_trussness, ref: Reference) -> None:
    _require(list(edge_trussness) == ref.edge_trussness,
             "decomposition_from_order differs from the exact decomposition")


def parse_approx(text: str) -> dict:
    lines = text.splitlines()
    _require(len(lines) >= 4, "approx output too short")
    keys = ("estimate", "exact", "iterations", "fallback-only")
    values = {}
    for key, line in zip(keys, lines):
        name, _, value = line.partition(" ")
        _require(name == key, f"expected {key!r} line, got {line!r}")
        values[key] = value
    rounds = lines[4:]
    iterations = int(values["iterations"])
    _require(len(rounds) == iterations, f"{len(rounds)} round lines for {iterations} iterations")
    for line in rounds:
        fields = line.split()
        _require(len(fields) == 3 and fields[0] == "round"
                 and fields[2] in ("marker=hit", "marker=miss"), f"bad round line {line!r}")
    return {
        "estimate": Fraction(values["estimate"]),
        "exact": values["exact"] == "true",
        "fallback_only": values["fallback-only"] == "true",
    }


def check_approx(text: str, ref: Reference, epsilon: float, expect_fallback: bool) -> bool:
    """Check an estimate; returns whether it lies within (1 +- eps) of t.

    The (1 +- eps) bound holds only with high probability, so missing it is
    reported through ``within_frac``, not as a failure.  What must hold: the
    rounds took the path the workload was built for, and a fallback-only run
    (deterministic, exact orders) that claims exactness is exact.
    """
    out = parse_approx(text)
    if expect_fallback:
        _require(out["fallback_only"], "a marker round sampled; this workload must fall back")
        if out["exact"]:
            _require(out["estimate"] == ref.trussness,
                     f"certified estimate {out['estimate']} != trussness {ref.trussness}")
    else:
        _require(not out["fallback_only"], "every marker round fell back; none sampled")
    eps = Fraction(str(epsilon))
    t = ref.trussness
    return (1 - eps) * t <= out["estimate"] <= (1 + eps) * t


def check_sample(text: str, ref: Reference) -> None:
    """The sampler kept its random path, and every hyperedge is a distinct
    triangle of the input given as ascending edge ids."""
    lines = text.splitlines()
    _require(bool(lines) and lines[0].startswith("# "), "missing sample header")
    header = dict(field.split("=", 1) for field in lines[0][2:].split())
    g = ref.graph
    _require(header.get("m") == str(g.m), f"header m={header.get('m')}, expected {g.m}")
    _require(header.get("fallback") == "false", "sampler fell back to exact enumeration")
    body = lines[1:]
    _require(header.get("hyperedges") == str(len(body)), "hyperedge count does not match body")
    seen: set[tuple[int, int, int]] = set()
    edges = g.edges
    for line in body:
        a, b, c = (int(x) for x in line.split())
        _require(0 <= a < b < c < g.m, f"bad hyperedge {line!r}")
        _require((a, b, c) not in seen, f"repeated hyperedge {line!r}")
        seen.add((a, b, c))
        nodes = {*edges[a], *edges[b], *edges[c]}
        _require(len(nodes) == 3, f"hyperedge {line!r} is not a triangle")
