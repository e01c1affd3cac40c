"""Seeded end-to-end benchmark of trusslab, with an optional traced run.

Usage (from the repository root):

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

One closed-loop client: a single process and thread runs the workload's
fixed list of operations back to back, one pass after another, until
``--seconds`` have passed (the pass under way is finished).  CLI operations
go through ``trusslab.cli.main(argv)`` in-process with ``--out`` set to a
file, so argument parsing and output are measured; the order reduction has
no CLI and is called as a library function.  Every output is checked by the
benchmark's own code (``checks.py``); an operation that raises, exits
non-zero or fails its check counts as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports per-layer
self seconds and counts per pass (see ``spans.py``) plus the tracing
overhead.  See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_SETUPS = 3

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import COUNTER_NAMES, SPAN_NAMES, Tracer, self_metric  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import trusslab from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import trusslab.cli
    import trusslab.gadgets
    import trusslab.truss

    origin = Path(trusslab.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"trusslab imported from {origin}, not from {src}")
    return trusslab


# ---------------------------------------------------------------- ops ----


@dataclass
class Op:
    """One operation of a pass: a timed call and the check of its output.

    ``call`` runs the program, ``output`` turns its result into a hashable
    value (outside the timed region), and ``check`` raises
    ``checks.CheckFailed`` or returns whether an estimate was within
    (1 +- eps) (None for non-estimates).  ``outputs`` counts each distinct
    output seen; they are checked once each, after the passes.
    """

    kind: str
    label: str
    call: Callable[[], object]
    output: Callable[[object], Hashable]
    check: Callable[[Hashable], bool | None]
    outputs: Counter = field(default_factory=Counter)


class CliFailed(Exception):
    pass


def cli_op(program, kind: str, label: str, argv: list[str], out_path: str,
           check: Callable[[str], bool | None]) -> Op:
    argv = [*argv, "--out", out_path]

    def call():
        rc = program.cli.main(argv)
        if rc != 0:
            raise CliFailed(f"exit code {rc}")
        return rc

    def output(_):
        with open(out_path, encoding="utf-8") as fh:
            return fh.read()

    return Op(kind, label, call, output, check)


# ----------------------------------------------------------- workloads ----

# Sizes per workload; "tiny" exists for the self-tests only.
SIZES = {
    "full": {
        "cl": dict(n=20_000, m=100_000, alpha=0.75, cliques=[40, 25, 15]),
        "dense": dict(n=250, m=15_000),
        "reduction": dict(n=120, m=1_100),
        "fallback_gnm": dict(n=14, m=50, trussness=3),
        "ladder": 6,
        "apex": 6,
        "sample_gnm": dict(n=300, m=13_500),
        "sample_seeds": 3,
        "sampled_gnm": dict(n=12, m=40, trussness=3),
    },
    "tiny": {
        "cl": dict(n=300, m=1_200, alpha=0.8, cliques=[8, 6]),
        "dense": dict(n=30, m=200),
        "reduction": dict(n=20, m=60),
        "fallback_gnm": dict(n=8, m=16, trussness=2),
        "ladder": 3,
        "apex": 3,
        "sample_gnm": dict(n=60, m=900),
        "sample_seeds": 1,
        "sampled_gnm": dict(n=8, m=20, trussness=2),
    },
}

# (epsilon, zeta) of the approx operations.  Default zeta falls back in
# every round; the sampled zeta is small enough that marker rounds on the
# augmented graph reach their sample target before p reaches 1.
FALLBACK_EPSILONS = (0.3, 0.5)
SAMPLED_APPROX = (0.5, 0.001)
SAMPLE_ARGS = (0.5, 0.05)
THRESHOLD_EPSILON = 0.1


def gnm_with_trussness(n: int, m: int, trussness: int, rng: random.Random) -> inputs.EdgeGraph:
    """G(n, m) conditioned on its trussness, so every seed runs the same
    number of marker rounds (the count depends only on the trussness)."""
    for _ in range(10_000):
        g = inputs.gnm(n, m, rng)
        if checks.Reference(g).trussness == trussness:
            return g
    raise RuntimeError(f"no G({n}, {m}) with trussness {trussness} found")


def build_exact(program, size: dict, rng: random.Random, work: str) -> list[Op]:
    graphs = {
        "chung-lu": inputs.chung_lu(rng=rng, **size["cl"]),
        "dense": inputs.gnm(rng=rng, **size["dense"]),
    }
    red = inputs.gnm(rng=rng, **size["reduction"])
    out = os.path.join(work, "out.txt")
    ops: list[Op] = []
    refs = {name: checks.Reference(g) for name, g in graphs.items()}
    for name, g in graphs.items():
        inputs.write_edges(os.path.join(work, f"{name}.edges"), g)
    for kind, command, flags, check in (
        ("decompose", ["truss", "decompose"], [], checks.check_decompose),
        ("triangles", ["triangles", "count"], [], checks.check_triangle_count),
        ("threshold", ["truss", "threshold"], ["--epsilon", str(THRESHOLD_EPSILON)],
         functools.partial(checks.check_threshold, epsilon=THRESHOLD_EPSILON)),
    ):
        for name in graphs:
            argv = [*command, os.path.join(work, f"{name}.edges"), *flags]
            ops.append(cli_op(program, kind, name, argv, out, functools.partial(check, ref=refs[name])))
    red_graph = program.graph.build_graph(red.edges, node_count=red.n)
    red_ref = checks.Reference(red)

    def reduction():
        truss = program.truss
        return truss.decomposition_from_order(red_graph, lambda g: truss.truss_decomposition(g)[1])

    ops.append(Op("reduction", "gnm", reduction, lambda r: tuple(r.edge_trussness),
                  lambda t: checks.check_reduction(t, red_ref)))
    return ops


def _approx_ops(program, name: str, g: inputs.EdgeGraph, work: str, seed: int,
                settings, expect_fallback: bool) -> list[Op]:
    path = os.path.join(work, f"{name}.edges")
    inputs.write_edges(path, g)
    ref = checks.Reference(g)
    ops = []
    for eps, zeta in settings:
        argv = ["truss", "approx", path, "--epsilon", str(eps), "--zeta", str(zeta),
                "--seed", str(seed)]
        ops.append(cli_op(program, "approx", f"{name} eps={eps}", argv,
                          os.path.join(work, "out.txt"),
                          lambda text, ref=ref, eps=eps: checks.check_approx(
                              text, ref, eps, expect_fallback)))
    return ops


def build_approx_fallback(program, size: dict, rng: random.Random, work: str) -> list[Op]:
    ladder = program.gadgets.ladder_gadget(size["ladder"])
    apex = program.gadgets.bipartite_apex(size["apex"])
    graphs = {
        "gnm": gnm_with_trussness(rng=rng, **size["fallback_gnm"]),
        "ladder": inputs.relabel(ladder, rng),
        "apex": inputs.relabel(apex, rng),
    }
    seed = rng.randrange(2**31)
    settings = [(eps, 110.0) for eps in FALLBACK_EPSILONS]
    ops: list[Op] = []
    for name, g in graphs.items():
        ops.extend(_approx_ops(program, name, g, work, seed, settings, expect_fallback=True))
    return ops


def build_approx_sampled(program, size: dict, rng: random.Random, work: str) -> list[Op]:
    dense = inputs.gnm(rng=rng, **size["sample_gnm"])
    path = os.path.join(work, "dense.edges")
    inputs.write_edges(path, dense)
    dense_ref = checks.Reference(dense)
    eps, zeta = SAMPLE_ARGS
    ops = []
    for _ in range(size["sample_seeds"]):
        seed = rng.randrange(2**31)
        argv = ["sample", path, "--epsilon", str(eps), "--zeta", str(zeta), "--seed", str(seed)]
        ops.append(cli_op(program, "sample", f"dense seed={seed}", argv,
                          os.path.join(work, "out.txt"),
                          lambda text: checks.check_sample(text, dense_ref)))
    small = gnm_with_trussness(rng=rng, **size["sampled_gnm"])
    return ops + _approx_ops(program, "small", small, work, rng.randrange(2**31),
                             [SAMPLED_APPROX], expect_fallback=False)


WORKLOADS = {
    "exact": build_exact,
    "approx-fallback": build_approx_fallback,
    "approx-sampled": build_approx_sampled,
}


# -------------------------------------------------------------- running ----


def warm_up(program, work: str) -> None:
    """Run each CLI path once on K4 so lazy imports and caches are filled."""
    path = os.path.join(work, "warmup.edges")
    inputs.write_edges(path, inputs.EdgeGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    out = os.path.join(work, "warmup.out")
    for argv in (["truss", "decompose"], ["triangles", "count"], ["truss", "threshold"],
                 ["truss", "approx", "--epsilon", "0.5"], ["sample"]):
        if program.cli.main([*argv[:2], path, *argv[2:], "--out", out]) != 0:
            raise RuntimeError(f"warm-up {argv} failed")


@dataclass
class PassResult:
    """One pass: the id of its first operation, each operation's seconds."""

    first_op: int
    op_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    failed: int = 0


class Runner:
    """Runs passes over a workload's operations and checks what they output."""

    def __init__(self, ops: list[Op], tracer: Tracer | None = None):
        self.ops = ops
        self.tracer = tracer
        self.next_op_id = 0
        self.errors: list[str] = []

    def run_pass(self, traced: bool) -> PassResult:
        result = PassResult(self.next_op_id)
        # Start every pass from a collected heap, so a collection triggered by
        # the previous pass's garbage does not land at a random point of this one.
        gc.collect()
        tracing = self.tracer.installed() if traced else contextlib.nullcontext()
        with tracing:
            pass_start = time.perf_counter()
            for op in self.ops:
                if self.tracer is not None:
                    self.tracer.op = self.next_op_id
                self.next_op_id += 1
                start = time.perf_counter()
                try:
                    value = op.call()
                except Exception as exc:  # a failing operation is counted, not fatal
                    result.op_s.append(time.perf_counter() - start)
                    result.failed += 1
                    self.errors.append(f"{op.kind} {op.label}: {type(exc).__name__}: {exc}")
                    continue
                result.op_s.append(time.perf_counter() - start)
                try:
                    op.outputs[op.output(value)] += 1
                except OSError as exc:
                    result.failed += 1
                    self.errors.append(f"{op.kind} {op.label}: output: {exc}")
            result.wall_s = time.perf_counter() - pass_start
        return result

    def check_outputs(self) -> tuple[int, list[bool]]:
        """Check each distinct output once; return (failed operations, the
        within-(1 +- eps) flag of every estimate)."""
        failed = 0
        within: list[bool] = []
        for op in self.ops:
            for out, times in op.outputs.items():
                try:
                    flag = op.check(out)
                except (checks.CheckFailed, ValueError, LookupError, ArithmeticError) as exc:
                    failed += times
                    self.errors.append(f"{op.kind} {op.label}: check: {exc}")
                else:
                    if flag is not None:
                        within.extend([flag] * times)
        return failed, within


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def pass_seconds(passes: list[PassResult]) -> float:
    """Seconds per pass: the sum over the pass's operations of each one's
    median time, which keeps a stall that hits one operation in one pass out
    of the result."""
    return sum(median(times) for times in zip(*(p.op_s for p in passes)))


def kind_seconds(ops: list[Op], passes: list[PassResult]) -> dict[str, float]:
    """``pass_s`` split by operation kind."""
    out: dict[str, float] = {}
    for i, op in enumerate(ops):
        out[op.kind] = out.get(op.kind, 0.0) + median([p.op_s[i] for p in passes])
    return out


def commit_of(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The CLI's bench thread pool is not exercised; keep the run single-threaded.
    os.environ.pop("TRUSSLAB_THREADS", None)
    try:
        program = import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    build = WORKLOADS[args.workload]
    size = SIZES[args.size]
    scratch_root = ROOT / ".bench_work"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as work, \
            open(os.devnull, "w", encoding="utf-8") as devnull, \
            contextlib.redirect_stderr(devnull):
        setup_times: list[float] = []

        def set_up() -> list[Op]:
            start = time.perf_counter()
            ops = build(program, size, random.Random(args.seed), work)
            warm_up(program, work)
            setup_times.append(time.perf_counter() - start)
            return ops

        ops = set_up()
        tracer = Tracer() if args.trace else None
        runner = Runner(ops, tracer)
        untraced: list[PassResult] = []
        traced: list[PassResult] = []
        layer_samples: list[dict[str, float]] = []
        start = time.perf_counter()
        while (not untraced or (args.trace and not traced)
               or time.perf_counter() - start < args.seconds):
            if args.trace and len(traced) < len(untraced):
                counts_before = tracer.counts.copy()
                result = runner.run_pass(traced=True)
                traced.append(result)
                ids = range(result.first_op, result.first_op + len(result.op_s))
                layer_samples.append(layer_metrics(tracer, ids, tracer.counts - counts_before))
            else:
                untraced.append(runner.run_pass(traced=False))
            # Set up again after every pass (same seed, so the same files), so
            # that the setup samples are spread over the run like the passes.
            set_up()
        while len(setup_times) < MIN_SETUPS:
            set_up()
        # Before the references are built, so that it measures the program.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.write(str(scratch_root / f"trace-{args.workload}-seed{args.seed}.jsonl"))

        start = time.perf_counter()
        check_failed, within = runner.check_outputs()
        check_s = time.perf_counter() - start

    passes = untraced + traced
    attempted = sum(len(p.op_s) for p in passes)
    failed = sum(p.failed for p in passes) + check_failed
    if args.trace:
        metrics = {name: {"value": median([s[name] for s in layer_samples]), "unit": unit}
                   for name, unit in layer_units().items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {
            "value": pass_seconds(traced) - pass_seconds(untraced),
            "unit": "s",
        }
    else:
        values = {
            "setup_s": median(setup_times),
            "pass_s": pass_seconds(untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    meta = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "commit": commit_of(ROOT), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "passes_untraced": len(untraced), "passes_traced": len(traced),
        "setup_s_samples": [round(s, 6) for s in setup_times],
        "pass_s_samples": [round(p.wall_s, 6) for p in untraced],
        "op_s_samples": {f"{op.kind} {op.label}": [round(p.op_s[i], 6) for p in untraced]
                         for i, op in enumerate(ops)},
        "check_s": round(check_s, 6),
        "kind_s_median": kind_seconds(ops, untraced),
        "within_frac": sum(within) / len(within) if within else None,
        "failed_frac": failed / attempted,
    }
    for error in runner.errors[:20]:
        print(f"# error {error}")
    print("# meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_units() -> dict[str, str]:
    units = {self_metric(name): "s" for name in SPAN_NAMES}
    units.update({name: "count" for name in COUNTER_NAMES})
    units["sampling.useful_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(tracer: Tracer, ops, counts) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    selfs = tracer.self_seconds(set(ops))
    out = {self_metric(name): selfs.get(name, 0.0) for name in SPAN_NAMES}
    out.update({name: counts.get(name, 0) for name in COUNTER_NAMES})
    calls = counts.get("sampling.calls", 0)
    out["sampling.useful_ratio"] = (calls - counts.get("sampling.fell_back", 0)) / calls if calls else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
