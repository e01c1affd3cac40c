"""Command-line front end: graph I/O, every algorithm, gadget generators,
seeded random graphs, and a CSV benchmark harness.

Results go to stdout (or --out) and are byte-deterministic given the same
input, flags, and seed; a one-line run report with wall time goes to stderr.
Exit codes: 0 success, 1 I/O or data errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Callable, Iterator, Sequence

from .approx import estimate_trussness, threshold_estimate, threshold_rounds
from .gadgets import add_spurious_cliques, bipartite_apex, blowup, ladder_gadget
from .graph import Graph, degeneracy_order, forward_wedge_count
from .io import load_graph, write_edge_list
from .sampling import SamplerConfig, gnp_random_graph, sample_hypergraph
from .triangles import compute_supports, list_triangles
from .truss import _peel_from_supports, truss_decomposition


@dataclass
class RunReport:
    """One-line summary of a subcommand run, printed to stderr."""

    command: str
    n: int | None = None
    m: int | None = None
    triangles: int | None = None
    result: str | None = None
    seed: int | None = None
    config: str | None = None
    seconds: float | None = None

    def emit(self) -> None:
        parts = [f"command={self.command}"]
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.m is not None:
            parts.append(f"m={self.m}")
        if self.triangles is not None:
            parts.append(f"triangles={self.triangles}")
        if self.result is not None:
            parts.append(f"result={self.result}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.config:
            parts.append(self.config)
        if self.seconds is not None:
            parts.append(f"seconds={self.seconds:.6f}")
        print("# report " + " ".join(parts), file=sys.stderr)


@contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _unit_open_interval(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    if value == math.inf:
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (0.0 <= value <= 1.0):
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _float_list(item: Callable[[str], float]) -> Callable[[str], list[float]]:
    """A parser of comma lists whose values each pass ``item``."""

    def parse(text: str) -> list[float]:
        values = [item(tok) for tok in text.split(",") if tok]
        if not values:
            raise argparse.ArgumentTypeError(f"empty float list: {text!r}")
        return values

    return parse


def _seed_list(text: str) -> list[int]:
    """Seeds as 'a:b' (half-open range) or a comma list."""
    try:
        if ":" in text:
            lo, hi = text.split(":")
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return seeds


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", nargs="?", default="-", help="edge-list file, or - for stdin")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, metavar="PATH", help="write output to PATH")


# ---------------------------------------------------------------- truss ----


def cmd_truss_exact(args) -> int:
    g, _ = load_graph(args.input)
    start = time.perf_counter()
    decomp, _ = truss_decomposition(g)
    elapsed = time.perf_counter() - start
    with _open_out(args.out) as out:
        print(decomp.trussness, file=out)
    RunReport("truss exact", g.n, g.m, result=str(decomp.trussness), seconds=elapsed).emit()
    return 0


def cmd_truss_decompose(args) -> int:
    g, _ = load_graph(args.input)
    start = time.perf_counter()
    decomp, _ = truss_decomposition(g)
    elapsed = time.perf_counter() - start
    with _open_out(args.out) as out:
        for eid, (u, v) in enumerate(g.edges()):
            print(f"{u} {v} {decomp.edge_trussness[eid]}", file=out)
    RunReport("truss decompose", g.n, g.m, result=str(decomp.trussness), seconds=elapsed).emit()
    return 0


def cmd_truss_approx(args) -> int:
    g, _ = load_graph(args.input)
    start = time.perf_counter()
    result = estimate_trussness(
        g, args.epsilon, zeta=args.zeta, seed=args.seed, pseudocode_growth=args.pseudocode_growth
    )
    elapsed = time.perf_counter() - start
    with _open_out(args.out) as out:
        print(f"estimate {result.estimate}", file=out)
        print(f"exact {'true' if result.exact else 'false'}", file=out)
        print(f"iterations {result.iterations}", file=out)
        print(f"fallback-only {'true' if result.all_rounds_fell_back else 'false'}", file=out)
        for x, hit in result.trace:
            print(f"round x={x} marker={'hit' if hit else 'miss'}", file=out)
    RunReport(
        "truss approx",
        g.n,
        g.m,
        result=str(result.estimate),
        seed=args.seed,
        config=f"epsilon={args.epsilon} zeta={args.zeta}",
        seconds=elapsed,
    ).emit()
    return 0


def cmd_truss_threshold(args) -> int:
    g, _ = load_graph(args.input)
    start = time.perf_counter()
    rounds = threshold_rounds(g, args.epsilon)
    elapsed = time.perf_counter() - start
    estimate = max((r.density for r in rounds), default=Fraction(0))
    with _open_out(args.out) as out:
        print(f"estimate {estimate}", file=out)
        for i, r in enumerate(rounds, start=1):
            print(f"round {i} m={r.edges} T={r.triangles} density={r.density}", file=out)
    RunReport(
        "truss threshold",
        g.n,
        g.m,
        result=str(estimate),
        config=f"epsilon={args.epsilon}",
        seconds=elapsed,
    ).emit()
    return 0


# ------------------------------------------------------------ triangles ----


def cmd_triangles_count(args) -> int:
    g, _ = load_graph(args.input)
    start = time.perf_counter()
    table = compute_supports(g)
    elapsed = time.perf_counter() - start
    with _open_out(args.out) as out:
        print(table.triangle_count, file=out)
    RunReport("triangles count", g.n, g.m, table.triangle_count, seconds=elapsed).emit()
    return 0


def cmd_triangles_list(args) -> int:
    g, _ = load_graph(args.input)
    rows: list[tuple[int, int, int]] = []
    start = time.perf_counter()
    count = list_triangles(g, lambda t: rows.append(t.nodes))
    elapsed = time.perf_counter() - start
    rows.sort()
    with _open_out(args.out) as out:
        for a, b, c in rows:
            print(f"{a} {b} {c}", file=out)
    RunReport("triangles list", g.n, g.m, count, seconds=elapsed).emit()
    return 0


# ---------------------------------------------------------------- order ----


def cmd_order(args) -> int:
    g, _ = load_graph(args.input)
    start = time.perf_counter()
    if args.edges:
        decomp, order = truss_decomposition(g)
        elapsed = time.perf_counter() - start
        with _open_out(args.out) as out:
            print(f"trussness {decomp.trussness}", file=out)
            for eid, fwd in zip(order.order, order.forward_support):
                u, v = g.pair(eid)
                print(f"{eid} {u} {v} {fwd}", file=out)
        RunReport("order --edges", g.n, g.m, result=str(decomp.trussness), seconds=elapsed).emit()
    else:
        info = degeneracy_order(g)
        elapsed = time.perf_counter() - start
        with _open_out(args.out) as out:
            print(f"degeneracy {info.degeneracy}", file=out)
            print(" ".join(str(u) for u in info.order), file=out)
        RunReport("order", g.n, g.m, result=str(info.degeneracy), seconds=elapsed).emit()
    return 0


# --------------------------------------------------------------- sample ----


def cmd_sample(args) -> int:
    g, _ = load_graph(args.input)
    cfg = SamplerConfig(epsilon=args.epsilon, zeta=args.zeta, seed=args.seed)
    start = time.perf_counter()
    info = degeneracy_order(g)
    wedges = forward_wedge_count(g, info)
    sample = sample_hypergraph(g, info, cfg)
    elapsed = time.perf_counter() - start
    with _open_out(args.out) as out:
        print(
            f"# m={g.m} wedges={wedges} p={sample.realized_p:.10g}"
            f" fallback={'true' if sample.fell_back_to_exact else 'false'}"
            f" hyperedges={len(sample.hyperedges)} seed={sample.rng_seed}",
            file=out,
        )
        for a, b, c in sample.hyperedges:
            print(f"{a} {b} {c}", file=out)
    RunReport(
        "sample",
        g.n,
        g.m,
        result=str(len(sample.hyperedges)),
        seed=args.seed,
        config=f"epsilon={args.epsilon} zeta={args.zeta}",
        seconds=elapsed,
    ).emit()
    return 0


# --------------------------------------------------------------- gadget ----


def cmd_gadget_blowup(args) -> int:
    g, _ = load_graph(args.input)
    view = blowup(g, args.q)
    mat = view.materialize(max_edges=args.max_edges)
    with _open_out(args.out) as out:
        write_edge_list(out, mat)
    RunReport("gadget blowup", mat.n, mat.m, config=f"q={args.q}").emit()
    return 0


def cmd_gadget_spurious(args) -> int:
    g, _ = load_graph(args.input)
    augmented = add_spurious_cliques(g, args.x)
    with _open_out(args.out) as out:
        write_edge_list(out, augmented.graph, augmented.is_spurious)
    RunReport(
        "gadget spurious",
        augmented.graph.n,
        augmented.graph.m,
        config=f"x={args.x} cliques={augmented.spurious_clique_count}",
    ).emit()
    return 0


def cmd_gadget_ladder(args) -> int:
    g = ladder_gadget(args.x)
    values = sorted(set(truss_decomposition(g)[0].edge_trussness))
    with _open_out(args.out) as out:
        print(f"# trussness values achieved: {','.join(str(v) for v in values)}", file=out)
        write_edge_list(out, g)
    RunReport("gadget ladder", g.n, g.m, config=f"x={args.x}").emit()
    return 0


def cmd_gadget_bipartite_apex(args) -> int:
    g = bipartite_apex(args.side)
    with _open_out(args.out) as out:
        write_edge_list(out, g)
    RunReport("gadget bipartite-apex", g.n, g.m, config=f"side={args.side}").emit()
    return 0


# ------------------------------------------------------------------ gen ----


def cmd_gen_random(args) -> int:
    g = gnp_random_graph(args.n, args.p, args.seed)
    with _open_out(args.out) as out:
        write_edge_list(out, g)
    RunReport("gen random", g.n, g.m, seed=args.seed, config=f"p={args.p}").emit()
    return 0


# ---------------------------------------------------------------- bench ----

BENCH_COLUMNS = [
    "kind",
    "graph",
    "estimator",
    "epsilon",
    "zeta",
    "seed",
    "n",
    "m",
    "triangles",
    "exact_trussness",
    "estimate",
    "ratio",
    "within",
    "fell_back",
    "seconds",
]


def _corpus_paths(source: str) -> list[str]:
    if os.path.isdir(source):
        names = sorted(f for f in os.listdir(source) if f.endswith(".edges"))
        if not names:
            raise FileNotFoundError(f"no .edges files in corpus directory {source}")
        return [os.path.join(source, name) for name in names]
    if os.path.isfile(source):
        with open(source, "r", encoding="utf-8") as fh:
            base = os.path.dirname(os.path.abspath(source))
            paths = []
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                paths.append(line if os.path.isabs(line) else os.path.join(base, line))
        return paths
    raise FileNotFoundError(f"corpus {source} not found")


def _ratio(estimate: Fraction, exact: int) -> float:
    if exact > 0:
        return float(estimate) / exact
    return 1.0 if estimate == 0 else math.inf


def _within(estimate: Fraction, exact: int, epsilon: float) -> bool:
    eps = Fraction(str(epsilon))
    return (1 - eps) * exact <= estimate <= (1 + eps) * exact


@dataclass
class _BenchGraph:
    name: str
    graph: Graph
    triangles: int
    trussness: int
    exact_seconds: float


def _bench_rows_for_graph(
    bg: _BenchGraph,
    estimators: Sequence[str],
    epsilons: Sequence[float],
    zetas: Sequence[float],
    seeds: Sequence[int],
    timing: bool,
) -> list[list[str]]:
    rows: list[list[str]] = []

    def row(kind, estimator, *, eps=None, zeta=None, seed=None, estimate=None,
            ratio=None, within=None, fell_back=None, secs=None):
        # Numeric specs print a bool flag as 1 or 0.
        def text(value, spec=""):
            return "" if value is None else format(value, spec)

        rows.append(
            [
                kind,
                bg.name,
                estimator,
                text(eps, "g"),
                text(zeta, "g"),
                text(seed),
                str(bg.graph.n),
                str(bg.graph.m),
                str(bg.triangles),
                str(bg.trussness),
                text(estimate),
                text(ratio, ".10g"),
                text(within, ".10g"),
                text(fell_back, "d"),
                "" if secs is None else (f"{secs:.6f}" if timing else "0"),
            ]
        )

    cells: list[tuple[str, float | None, Fraction, float]] = []
    if "exact" in estimators:
        cells.append(("exact", None, Fraction(bg.trussness), bg.exact_seconds))
    if "threshold" in estimators:
        for eps in epsilons:
            start = time.perf_counter()
            est = threshold_estimate(bg.graph, eps)
            cells.append(("threshold", eps, est, time.perf_counter() - start))
    for estimator, eps, est, secs in cells:
        within = eps is None or _within(est, bg.trussness, eps)
        for kind in ("run", "summary"):
            row(kind, estimator, eps=eps, estimate=est, ratio=_ratio(est, bg.trussness),
                within=within, secs=secs)
    if "approx" in estimators:
        for eps in epsilons:
            for zeta in zetas:
                ratios: list[float] = []
                hits = 0
                for seed in seeds:
                    start = time.perf_counter()
                    result = estimate_trussness(bg.graph, eps, zeta=zeta, seed=seed)
                    secs = time.perf_counter() - start
                    ratio = _ratio(result.estimate, bg.trussness)
                    within = _within(result.estimate, bg.trussness, eps)
                    ratios.append(ratio)
                    hits += within
                    row("run", "approx", eps=eps, zeta=zeta, seed=seed, estimate=result.estimate,
                        ratio=ratio, within=within, fell_back=result.all_rounds_fell_back,
                        secs=secs)
                row("summary", "approx", eps=eps, zeta=zeta, ratio=sum(ratios) / len(ratios),
                    within=hits / len(seeds))
    return rows


def cmd_bench(args) -> int:
    paths = _corpus_paths(args.corpus)
    estimators = [e for e in args.estimators.split(",") if e]
    for est in estimators:
        if est not in ("exact", "approx", "threshold"):
            raise ValueError(f"unknown estimator {est!r}")
    graphs: list[_BenchGraph] = []
    for path in paths:
        g, _ = load_graph(path)
        start = time.perf_counter()
        supports = compute_supports(g)
        decomp, _ = _peel_from_supports(g, supports)
        secs = time.perf_counter() - start
        name = os.path.splitext(os.path.basename(path))[0]
        graphs.append(
            _BenchGraph(name, g, supports.triangle_count, decomp.trussness, secs)
        )

    timing = not args.no_timing
    blocks = [
        _bench_rows_for_graph(bg, estimators, args.epsilons, args.zetas, args.seeds, timing)
        for bg in graphs
    ]

    with _open_out(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(BENCH_COLUMNS)
        for block in blocks:
            writer.writerows(block)
    RunReport(
        "bench",
        result=f"{len(graphs)} graphs",
        config=f"estimators={','.join(estimators)}",
    ).emit()
    return 0


# ----------------------------------------------------------------- main ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trusslab",
        description="Exact and approximate k-truss decomposition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    truss = sub.add_parser("truss", help="trussness and truss decompositions")
    truss_sub = truss.add_subparsers(dest="subcommand", required=True)

    p = truss_sub.add_parser("exact", help="print the graph trussness")
    _add_input(p)
    _add_out(p)
    p.set_defaults(func=cmd_truss_exact)

    p = truss_sub.add_parser("decompose", help="print per-edge trussness")
    _add_input(p)
    _add_out(p)
    p.set_defaults(func=cmd_truss_decompose)

    p = truss_sub.add_parser("approx", help="randomized trussness estimate")
    _add_input(p)
    _add_out(p)
    p.add_argument("--epsilon", type=_unit_open_interval, default=0.5)
    p.add_argument("--zeta", type=_positive_float, default=110.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--pseudocode-growth",
        action="store_true",
        help="grow the marker size by (1+epsilon) instead of (1+epsilon/6)",
    )
    p.set_defaults(func=cmd_truss_approx)

    p = truss_sub.add_parser("threshold", help="deterministic (3+eps) estimate")
    _add_input(p)
    _add_out(p)
    p.add_argument("--epsilon", type=_positive_float, default=0.1)
    p.set_defaults(func=cmd_truss_threshold)

    triangles = sub.add_parser("triangles", help="triangle counting and listing")
    tri_sub = triangles.add_subparsers(dest="subcommand", required=True)
    p = tri_sub.add_parser("count")
    _add_input(p)
    _add_out(p)
    p.set_defaults(func=cmd_triangles_count)
    p = tri_sub.add_parser("list")
    _add_input(p)
    _add_out(p)
    p.set_defaults(func=cmd_triangles_list)

    p = sub.add_parser("order", help="degeneracy order (or exact truss order)")
    _add_input(p)
    _add_out(p)
    p.add_argument("--edges", action="store_true", help="order edges by min-support peeling")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("sample", help="sample the triangle hypergraph")
    _add_input(p)
    _add_out(p)
    p.add_argument("--epsilon", type=_unit_open_interval, default=0.5)
    p.add_argument("--zeta", type=_positive_float, default=110.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    gadget = sub.add_parser("gadget", help="graph constructions")
    gadget_sub = gadget.add_subparsers(dest="subcommand", required=True)

    p = gadget_sub.add_parser("blowup", help="materialized q-fold blow-up")
    _add_input(p)
    _add_out(p)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--max-edges", type=int, default=10_000_000)
    p.set_defaults(func=cmd_gadget_blowup)

    p = gadget_sub.add_parser("spurious", help="append disjoint marker cliques")
    _add_input(p)
    _add_out(p)
    p.add_argument("-x", type=int, required=True)
    p.set_defaults(func=cmd_gadget_spurious)

    p = gadget_sub.add_parser("ladder", help="clique with graded pendants")
    _add_out(p)
    p.add_argument("-x", type=int, required=True)
    p.set_defaults(func=cmd_gadget_ladder)

    p = gadget_sub.add_parser("bipartite-apex", help="complete bipartite plus apex")
    _add_out(p)
    p.add_argument("-s", "--side", dest="side", type=int, required=True)
    p.set_defaults(func=cmd_gadget_bipartite_apex)

    gen = sub.add_parser("gen", help="graph generators")
    gen_sub = gen.add_subparsers(dest="subcommand", required=True)
    p = gen_sub.add_parser("random", help="Erdos-Renyi G(n, p)")
    _add_out(p)
    p.add_argument("n", type=int)
    p.add_argument("p", type=_probability)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_random)

    p = sub.add_parser("bench", help="accuracy/runtime table over a corpus")
    _add_out(p)
    p.add_argument("--corpus", required=True, help="directory of .edges files or a manifest")
    p.add_argument("--estimators", default="exact,approx,threshold")
    p.add_argument("--epsilons", type=_float_list(_unit_open_interval), default=[0.3])
    p.add_argument("--zetas", type=_float_list(_positive_float), default=[110.0])
    p.add_argument("--seeds", type=_seed_list, default=[0])
    p.add_argument("--no-timing", action="store_true", help="zero the seconds column")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"trusslab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
