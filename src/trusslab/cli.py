"""Command-line front end: graph I/O, every algorithm, gadget generators,
seeded random graphs, and a CSV benchmark harness.

Results go to stdout (or --out) and are byte-deterministic given the same
input, flags, and seed; a one-line run report with wall time goes to stderr.
Exit codes: 0 success, 1 I/O or data errors, 2 usage errors.

Each analysis subcommand is a small computation ``(g, args) -> (lines,
report fields)``, and each graph builder a function returning the built
graph; one runner per kind loads the input, times the computation, writes
the output and reports, so those steps are written once.  Each subcommand is
declared once, by ``_command``, which also gives it its input argument and
``--out``.  Line outputs are streamed with one ``writelines``, never built as
one string; rows of three integers, read from one flat int column, go out a
chunk of rows per string (``_triple_lines``).  The argument parser, runners
included, is built once per process, so in-process callers of ``main`` pay
for it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from typing import IO, Callable, Iterator, Sequence

from .approx import estimate_trussness, threshold_estimate, threshold_rounds
from .gadgets import MATERIALIZE_CAP, add_spurious_cliques, bipartite_apex, blowup, ladder_gadget
from .graph import Graph, degeneracy_order, forward_wedge_count
from .io import load_graph, write_edge_list
from .sampling import SamplerConfig, gnp_random_graph, sample_hypergraph
from .triangles import compute_supports
from .truss import _trussness_from_supports, edge_trussness, truss_decomposition


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
        g = load_graph(args.input)[0]
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


def _command(group, name: str, func: Callable, *, takes_input: bool = True,
             **kwargs) -> argparse.ArgumentParser:
    """Declare subcommand ``name`` of ``group``, run by ``func``, with its input
    argument (unless ``takes_input`` is false) and ``--out``; ``kwargs`` go to
    ``add_parser``.  Returns the parser, for the command's own flags."""
    p = group.add_parser(name, **kwargs)
    if takes_input:
        p.add_argument("input", nargs="?", default="-", help="edge-list file, or - for stdin")
    p.add_argument("--out", default=None, metavar="PATH", help="write output to PATH")
    p.set_defaults(func=func)
    return p


# --------------------------------------------------------- computations ----

_CHUNK = 4096  # rows per string of ``_triple_lines``
_CHUNK_FORMAT = "%d %d %d\n" * _CHUNK


def _triple_lines(flat: Sequence[int]) -> Iterator[str]:
    """The lines ``f"{a} {b} {c}\n"`` of the rows (a, b, c) of a flat int
    sequence, three ints per row, ``_CHUNK`` rows per string: one C-level
    format per chunk, and memory flat in the row count."""
    step = 3 * _CHUNK
    for start in range(0, len(flat), step):
        chunk = flat[start:start + step]
        form = _CHUNK_FORMAT if len(chunk) == step else "%d %d %d\n" * (len(chunk) // 3)
        yield form % tuple(chunk)


def _truss_exact(g, args):
    decomp = edge_trussness(g)
    return [f"{decomp.trussness}\n"], {"result": decomp.trussness}


def _truss_decompose(g, args):
    decomp = edge_trussness(g)
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
    # The supports' kernel in node order: each node x, each neighbor y > x
    # and each common neighbor z > y, ascending, is the sorted stream of
    # node triples x < y < z, one flat int column with no per-triangle key.
    keys = [nbrs.keys() for nbrs in map(g.neighbors, g.nodes())]
    flat = array("i")
    push = flat.append
    for x, kx in enumerate(keys):
        for y in sorted(kx):
            if y > x:
                for z in sorted(kx & keys[y]):
                    if z > y:
                        push(x)
                        push(y)
                        push(z)
    return _triple_lines(flat), {"triangles": len(flat) // 3}


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
        _triple_lines(sample.hyperedges.ids),
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
    values = sorted(set(edge_trussness(g).edge_trussness))
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
            lines = [line.strip() for line in fh]
        # join keeps an absolute path as it is and puts a relative one under base
        base = os.path.dirname(os.path.abspath(source))
        paths = [os.path.join(base, line) for line in lines if line and not line.startswith("#")]
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


def _bench_rows(shared: dict, g: Graph, exact_seconds: float, args) -> list[dict]:
    """The CSV rows of one corpus graph, each the ``shared`` columns plus its
    own; a column that a row lacks is written empty."""
    t = shared["exact_trussness"]
    # A template with no field writes 0 whatever the time.
    seconds = "0" if args.no_timing else "{:.6f}"
    cells: list[tuple[str, dict, Fraction | int, bool, float]] = []
    if "exact" in args.estimators:
        cells.append(("exact", {}, t, True, exact_seconds))
    if "threshold" in args.estimators:
        for eps in args.epsilons:
            start = time.perf_counter()
            est = threshold_estimate(g, eps)
            cells.append(("threshold", {"epsilon": f"{eps:g}"}, est, _sandwiched(est, t, eps),
                          time.perf_counter() - start))
    rows: list[dict] = []
    for estimator, grid, est, within, secs in cells:
        row = {**shared, "estimator": estimator, **grid, "estimate": est,
               "ratio": f"{_ratio(est, t):.10g}", "within": f"{within:d}",
               "seconds": seconds.format(secs)}
        rows += [{"kind": "run", **row}, {"kind": "summary", **row}]
    if "approx" in args.estimators:
        for eps in args.epsilons:
            for zeta in args.zetas:
                cell = {**shared, "estimator": "approx", "epsilon": f"{eps:g}",
                        "zeta": f"{zeta:g}"}
                ratios: list[float] = []
                hits = 0
                for seed in args.seeds:
                    start = time.perf_counter()
                    result = estimate_trussness(g, eps, zeta=zeta, seed=seed)
                    secs = time.perf_counter() - start
                    ratio = _ratio(result.estimate, t)
                    within = _within(result.estimate, t, eps)
                    ratios.append(ratio)
                    hits += within
                    rows.append({"kind": "run", **cell, "seed": seed, "estimate": result.estimate,
                                 "ratio": f"{ratio:.10g}", "within": f"{within:d}",
                                 "fell_back": f"{result.all_rounds_fell_back:d}",
                                 "seconds": seconds.format(secs)})
                rows.append({"kind": "summary", **cell,
                             "ratio": f"{sum(ratios) / len(ratios):.10g}",
                             "within": f"{hits / len(args.seeds):.10g}"})
    return rows


def cmd_bench(args) -> None:
    paths = _corpus_paths(args.corpus)
    rows: list[dict] = []
    for path in paths:
        try:
            g = load_graph(path)[0]
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        start = time.perf_counter()
        supports = compute_supports(g)
        decomp = _trussness_from_supports(g, supports)
        secs = time.perf_counter() - start
        shared = {"graph": os.path.splitext(os.path.basename(path))[0], "n": g.n, "m": g.m,
                  "triangles": supports.triangle_count, "exact_trussness": decomp.trussness}
        rows += _bench_rows(shared, g, secs, args)

    with _open_out(args.out) as out:
        writer = csv.DictWriter(out, BENCH_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    _report("bench", result=f"{len(paths)} graphs", estimators=",".join(args.estimators))


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

    _command(truss_sub, "exact", _analysis("truss exact", _truss_exact),
             help="print the graph trussness")
    _command(truss_sub, "decompose", _analysis("truss decompose", _truss_decompose),
             help="print per-edge trussness")

    p = _command(truss_sub, "approx", _analysis("truss approx", _truss_approx),
                 help="randomized trussness estimate")
    p.add_argument("--epsilon", type=_unit_open_interval, default=0.5)
    p.add_argument("--zeta", type=_positive_float, default=110.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--pseudocode-growth",
        action="store_true",
        help="grow the marker size by (1+epsilon) instead of (1+epsilon/6)",
    )

    p = _command(truss_sub, "threshold", _analysis("truss threshold", _truss_threshold),
                 help="deterministic (3+eps) estimate")
    p.add_argument("--epsilon", type=_positive_float, default=0.1)

    triangles = sub.add_parser("triangles", help="triangle counting and listing")
    tri_sub = triangles.add_subparsers(dest="subcommand", required=True)
    _command(tri_sub, "count", _analysis("triangles count", _triangles_count))
    _command(tri_sub, "list", _analysis("triangles list", _triangles_list))

    p = _command(sub, "order", _analysis("order", _node_order),
                 help="degeneracy order (or exact truss order)")
    # --edges selects the computation, and with it the reported command;
    # without it, func keeps the default that _command set.
    p.add_argument(
        "--edges",
        dest="func",
        action="store_const",
        const=_analysis("order --edges", _edge_order),
        help="order edges by min-support peeling",
    )

    p = _command(sub, "sample", _analysis("sample", _sample),
                 help="sample the triangle hypergraph")
    p.add_argument("--epsilon", type=_unit_open_interval, default=0.5)
    p.add_argument("--zeta", type=_positive_float, default=110.0)
    p.add_argument("--seed", type=int, default=0)

    gadget = sub.add_parser("gadget", help="graph constructions")
    gadget_sub = gadget.add_subparsers(dest="subcommand", required=True)

    p = _command(gadget_sub, "blowup", _builder("gadget blowup", _gadget_blowup),
                 help="materialized q-fold blow-up")
    p.add_argument("-q", type=_positive_int, required=True)
    p.add_argument("--max-edges", type=_count, default=MATERIALIZE_CAP)

    p = _command(gadget_sub, "spurious", _builder("gadget spurious", _gadget_spurious),
                 help="append disjoint marker cliques")
    p.add_argument("-x", type=_count, required=True)

    p = _command(gadget_sub, "ladder", cmd_gadget_ladder, takes_input=False,
                 help="clique with graded pendants")
    p.add_argument("-x", type=_positive_int, required=True)

    p = _command(gadget_sub, "bipartite-apex",
                 _builder("gadget bipartite-apex", _gadget_bipartite_apex), takes_input=False,
                 help="complete bipartite plus apex")
    p.add_argument("-s", "--side", dest="side", type=_positive_int, required=True)

    gen = sub.add_parser("gen", help="graph generators")
    gen_sub = gen.add_subparsers(dest="subcommand", required=True)
    p = _command(gen_sub, "random", _builder("gen random", _gen_random), takes_input=False,
                 help="Erdos-Renyi G(n, p)")
    p.add_argument("n", type=_count)
    p.add_argument("p", type=_probability)
    p.add_argument("--seed", type=int, default=0)

    p = _command(sub, "bench", cmd_bench, takes_input=False,
                 help="accuracy/runtime table over a corpus")
    p.add_argument("--corpus", required=True, help="directory of .edges files or a manifest")
    p.add_argument("--estimators", type=_estimator_list, default="exact,approx,threshold")
    p.add_argument("--epsilons", type=_comma_list(_unit_open_interval, "float"), default=(0.3,))
    p.add_argument("--zetas", type=_comma_list(_positive_float, "float"), default=(110.0,))
    p.add_argument("--seeds", type=_seed_list, default=(0,))
    p.add_argument("--no-timing", action="store_true", help="zero the seconds column")

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
