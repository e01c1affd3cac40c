"""Command-line front end: graph I/O, every algorithm, gadget generators,
seeded random graphs, and a CSV benchmark harness.

Results go to stdout (or --out) and are byte-deterministic given the same
input, flags, and seed; a one-line run report with wall time goes to stderr.
Exit codes: 0 success, 1 I/O or data errors, 2 usage errors.

Each analysis subcommand is a small computation ``(g, args) -> (lines,
report fields)``, and each graph builder a function returning the built
graph; one runner per kind loads the input, times the computation, writes
the output and reports, so those steps are written once.  Line outputs are
streamed with one ``writelines``, never built as one string.  The argument
parser, runners included, is built once per process, so in-process callers
of ``main`` pay for it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import IO, Callable, Iterator, Sequence

from .approx import estimate_trussness, threshold_estimate, threshold_rounds
from .gadgets import add_spurious_cliques, bipartite_apex, blowup, ladder_gadget
from .graph import Graph, degeneracy_order, forward_wedge_count
from .io import load_graph, write_edge_list
from .sampling import SamplerConfig, gnp_random_graph, sample_hypergraph
from .triangles import compute_supports, list_triangles
from .truss import _peel_from_supports, truss_decomposition


def _report(command: str, **fields) -> None:
    """Print a run's one-line report to stderr, its fields in the given order."""
    print(
        f"# report command={command}",
        *(f"{key}={value}" for key, value in fields.items()),
        file=sys.stderr,
    )


@contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _analysis(command: str, compute: Callable) -> Callable:
    """The runner of a computation on the input graph.

    ``compute(g, args)`` returns the output lines and the report fields; only
    it is timed, and the lines are written after the clock stops.
    """

    def run(args) -> None:
        g, _ = load_graph(args.input)
        start = time.perf_counter()
        lines, fields = compute(g, args)
        elapsed = time.perf_counter() - start
        with _open_out(args.out) as out:
            out.writelines(lines)
        _report(command, n=g.n, m=g.m, **fields, seconds=f"{elapsed:.6f}")

    return run


def _builder(command: str, build: Callable) -> Callable:
    """The runner of a graph construction; the report gives the built graph's
    n and m, and no time.

    ``build(source, args)`` gets the input graph (None for a command without
    one) and returns the built graph, its spurious flags or None, and the
    report fields.
    """

    def run(args) -> None:
        source = load_graph(args.input)[0] if "input" in args else None
        g, flags, fields = build(source, args)
        with _open_out(args.out) as out:
            write_edge_list(out, g, flags)
        _report(command, n=g.n, m=g.m, **fields)

    return run


def _ranged(convert: Callable[[str], float], *rules: tuple[Callable, str]) -> Callable:
    """An argparse type: ``convert`` the text, then hold the value to each
    ``(test, requirement)`` rule in turn."""

    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        for test, requirement in rules:
            if not test(value):
                raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    return parse


_unit_open_interval = _ranged(float, (lambda v: 0.0 < v < 1.0, "in (0, 1)"))
_positive_float = _ranged(float, (lambda v: v > 0.0, "positive"), (math.isfinite, "finite"))
_probability = _ranged(float, (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"))
_positive_int = _ranged(int, (lambda v: v >= 1, "positive"))
_count = _ranged(int, (lambda v: v >= 0, "non-negative"))


def _comma_list(item: Callable[[str], object], kind: str) -> Callable[[str], list]:
    """A parser of non-empty comma lists whose values each pass ``item``."""

    def parse(text: str) -> list:
        values = [item(tok) for tok in text.split(",") if tok]
        if not values:
            raise argparse.ArgumentTypeError(f"empty {kind} list: {text!r}")
        return values

    return parse


_estimator_list = _comma_list(
    _ranged(str, (lambda v: v in ("exact", "approx", "threshold"), "exact, approx or threshold")),
    "estimator",
)


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


# --------------------------------------------------------- computations ----


def _truss_exact(g, args):
    decomp, _ = truss_decomposition(g)
    return [f"{decomp.trussness}\n"], {"result": decomp.trussness}


def _truss_decompose(g, args):
    decomp, _ = truss_decomposition(g)
    lines = (f"{u} {v} {t}\n" for (u, v), t in zip(g.edges(), decomp.edge_trussness))
    return lines, {"result": decomp.trussness}


def _truss_approx(g, args):
    result = estimate_trussness(
        g, args.epsilon, zeta=args.zeta, seed=args.seed, pseudocode_growth=args.pseudocode_growth
    )
    lines = [
        f"estimate {result.estimate}\n",
        f"exact {'true' if result.exact else 'false'}\n",
        f"iterations {result.iterations}\n",
        f"fallback-only {'true' if result.all_rounds_fell_back else 'false'}\n",
        *(f"round x={x} marker={'hit' if hit else 'miss'}\n" for x, hit in result.trace),
    ]
    fields = {"result": result.estimate, "seed": args.seed, "epsilon": args.epsilon,
              "zeta": args.zeta}
    return lines, fields


def _truss_threshold(g, args):
    rounds = threshold_rounds(g, args.epsilon)
    estimate = max((r.density for r in rounds), default=Fraction(0))
    lines = chain(
        [f"estimate {estimate}\n"],
        (f"round {i} m={r.edges} T={r.triangles} density={r.density}\n"
         for i, r in enumerate(rounds, start=1)),
    )
    return lines, {"result": estimate, "epsilon": args.epsilon}


def _triangles_count(g, args):
    count = compute_supports(g).triangle_count
    return [f"{count}\n"], {"triangles": count}


def _triangles_list(g, args):
    rows: list[tuple[int, int, int]] = []
    count = list_triangles(g, lambda t: rows.append(t.nodes))
    rows.sort()
    return (f"{a} {b} {c}\n" for a, b, c in rows), {"triangles": count}


def _node_order(g, args):
    info = degeneracy_order(g)
    # The order is one line; its tokens are joined, the lines are not.
    lines = (f"degeneracy {info.degeneracy}\n", " ".join(map(str, info.order)), "\n")
    return lines, {"result": info.degeneracy}


def _edge_order(g, args):
    decomp, order = truss_decomposition(g)
    lines = chain(
        [f"trussness {decomp.trussness}\n"],
        (f"{eid} {u} {v} {fwd}\n"
         for eid, (u, v), fwd in zip(order.order, map(g.pair, order.order),
                                     order.forward_support)),
    )
    return lines, {"result": decomp.trussness}


def _sample(g, args):
    cfg = SamplerConfig(epsilon=args.epsilon, zeta=args.zeta, seed=args.seed)
    info = degeneracy_order(g)
    wedges = forward_wedge_count(g, info)
    sample = sample_hypergraph(g, info, cfg)
    lines = chain(
        [f"# m={g.m} wedges={wedges} p={sample.realized_p:.10g}"
         f" fallback={'true' if sample.fell_back_to_exact else 'false'}"
         f" hyperedges={len(sample.hyperedges)} seed={sample.rng_seed}\n"],
        (f"{a} {b} {c}\n" for a, b, c in sample.hyperedges),
    )
    fields = {"result": len(sample.hyperedges), "seed": args.seed, "epsilon": args.epsilon,
              "zeta": args.zeta}
    return lines, fields


# ----------------------------------------------------------- builders ----


def _gadget_blowup(g, args):
    return blowup(g, args.q).materialize(max_edges=args.max_edges), None, {"q": args.q}


def _gadget_spurious(g, args):
    augmented = add_spurious_cliques(g, args.x)
    fields = {"x": args.x, "cliques": augmented.spurious_clique_count}
    return augmented.graph, augmented.is_spurious, fields


def _gadget_bipartite_apex(_, args):
    return bipartite_apex(args.side), None, {"side": args.side}


def _gen_random(_, args):
    return gnp_random_graph(args.n, args.p, args.seed), None, {"seed": args.seed, "p": args.p}


def cmd_gadget_ladder(args) -> None:
    g = ladder_gadget(args.x)
    values = sorted(set(truss_decomposition(g)[0].edge_trussness))
    with _open_out(args.out) as out:
        print(f"# trussness values achieved: {','.join(str(v) for v in values)}", file=out)
        write_edge_list(out, g)
    _report("gadget ladder", n=g.n, m=g.m, x=args.x)


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
        if not paths:
            raise FileNotFoundError(f"no paths in corpus manifest {source}")
        return paths
    raise FileNotFoundError(f"corpus {source} not found")


def _ratio(estimate: Fraction, exact: int) -> float:
    if exact > 0:
        return float(estimate) / exact
    return 1.0 if estimate == 0 else math.inf


def _within(estimate: Fraction, exact: int, epsilon: float) -> bool:
    """The marker-clique estimator's guarantee: within (1±eps) of t."""
    eps = Fraction(str(epsilon))
    return (1 - eps) * exact <= estimate <= (1 + eps) * exact


def _sandwiched(estimate: Fraction, exact: int, epsilon: float) -> bool:
    """The threshold estimator's guarantee: t~ <= t <= (3+eps) * t~."""
    return estimate <= exact <= (3 + Fraction(str(epsilon))) * estimate


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
        within = eps is None or _sandwiched(est, bg.trussness, eps)
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


def cmd_bench(args) -> None:
    paths = _corpus_paths(args.corpus)
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
        _bench_rows_for_graph(bg, args.estimators, args.epsilons, args.zetas, args.seeds, timing)
        for bg in graphs
    ]

    with _open_out(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(BENCH_COLUMNS)
        for block in blocks:
            writer.writerows(block)
    _report("bench", result=f"{len(graphs)} graphs", estimators=",".join(args.estimators))


# ----------------------------------------------------------------- main ----


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built on the first call and shared after it.

    Parsing leaves the tree unchanged and every default is immutable, so one
    tree serves every ``main`` call in a process.
    """
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
    p.set_defaults(func=_analysis("truss exact", _truss_exact))

    p = truss_sub.add_parser("decompose", help="print per-edge trussness")
    _add_input(p)
    _add_out(p)
    p.set_defaults(func=_analysis("truss decompose", _truss_decompose))

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
    p.set_defaults(func=_analysis("truss approx", _truss_approx))

    p = truss_sub.add_parser("threshold", help="deterministic (3+eps) estimate")
    _add_input(p)
    _add_out(p)
    p.add_argument("--epsilon", type=_positive_float, default=0.1)
    p.set_defaults(func=_analysis("truss threshold", _truss_threshold))

    triangles = sub.add_parser("triangles", help="triangle counting and listing")
    tri_sub = triangles.add_subparsers(dest="subcommand", required=True)
    p = tri_sub.add_parser("count")
    _add_input(p)
    _add_out(p)
    p.set_defaults(func=_analysis("triangles count", _triangles_count))
    p = tri_sub.add_parser("list")
    _add_input(p)
    _add_out(p)
    p.set_defaults(func=_analysis("triangles list", _triangles_list))

    p = sub.add_parser("order", help="degeneracy order (or exact truss order)")
    _add_input(p)
    _add_out(p)
    # --edges selects the computation, and with it the reported command.
    p.add_argument(
        "--edges",
        dest="func",
        action="store_const",
        const=_analysis("order --edges", _edge_order),
        default=_analysis("order", _node_order),
        help="order edges by min-support peeling",
    )

    p = sub.add_parser("sample", help="sample the triangle hypergraph")
    _add_input(p)
    _add_out(p)
    p.add_argument("--epsilon", type=_unit_open_interval, default=0.5)
    p.add_argument("--zeta", type=_positive_float, default=110.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_analysis("sample", _sample))

    gadget = sub.add_parser("gadget", help="graph constructions")
    gadget_sub = gadget.add_subparsers(dest="subcommand", required=True)

    p = gadget_sub.add_parser("blowup", help="materialized q-fold blow-up")
    _add_input(p)
    _add_out(p)
    p.add_argument("-q", type=_positive_int, required=True)
    p.add_argument("--max-edges", type=_count, default=10_000_000)
    p.set_defaults(func=_builder("gadget blowup", _gadget_blowup))

    p = gadget_sub.add_parser("spurious", help="append disjoint marker cliques")
    _add_input(p)
    _add_out(p)
    p.add_argument("-x", type=_count, required=True)
    p.set_defaults(func=_builder("gadget spurious", _gadget_spurious))

    p = gadget_sub.add_parser("ladder", help="clique with graded pendants")
    _add_out(p)
    p.add_argument("-x", type=_positive_int, required=True)
    p.set_defaults(func=cmd_gadget_ladder)

    p = gadget_sub.add_parser("bipartite-apex", help="complete bipartite plus apex")
    _add_out(p)
    p.add_argument("-s", "--side", dest="side", type=_positive_int, required=True)
    p.set_defaults(func=_builder("gadget bipartite-apex", _gadget_bipartite_apex))

    gen = sub.add_parser("gen", help="graph generators")
    gen_sub = gen.add_subparsers(dest="subcommand", required=True)
    p = gen_sub.add_parser("random", help="Erdos-Renyi G(n, p)")
    _add_out(p)
    p.add_argument("n", type=_count)
    p.add_argument("p", type=_probability)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_builder("gen random", _gen_random))

    p = sub.add_parser("bench", help="accuracy/runtime table over a corpus")
    _add_out(p)
    p.add_argument("--corpus", required=True, help="directory of .edges files or a manifest")
    p.add_argument("--estimators", type=_estimator_list, default="exact,approx,threshold")
    p.add_argument("--epsilons", type=_comma_list(_unit_open_interval, "float"), default=(0.3,))
    p.add_argument("--zetas", type=_comma_list(_positive_float, "float"), default=(110.0,))
    p.add_argument("--seeds", type=_seed_list, default=(0,))
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
        args.func(args)
    except (OSError, ValueError) as exc:
        print(f"trusslab: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
