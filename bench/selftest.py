"""Self-tests of the benchmark, on tiny inputs.

Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from spans import COUNTER_NAMES, Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PROGRAM = run.import_program()


def run_main(*argv: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv))
    assert code == 0, code
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def scratch_dir():
    run.ROOT.joinpath(".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as work, \
            contextlib.redirect_stderr(io.StringIO()):
        yield work


def build_tiny(name: str, seed: int, work: str) -> list[run.Op]:
    return run.WORKLOADS[name](PROGRAM, run.SIZES["tiny"], random.Random(seed), work)


@contextlib.contextmanager
def tiny_workload(name: str, seed: int = 3):
    with scratch_dir() as work:
        yield build_tiny(name, seed, work)


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = run_main("--workload", workload, "--seed", "5", "--seconds", "0.01",
                                   "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: v["unit"] for name, v in out["metrics"].items()}
                    self.assertEqual(got, expected)
                    if trace == 0:
                        for name, v in out["metrics"].items():
                            self.assertGreater(v["value"], 0, name)

    def test_inputs_and_outputs_depend_on_the_seed_only(self):
        for workload in run.WORKLOADS:
            seen = []
            for seed in (11, 11, 12):
                with scratch_dir() as work:
                    ops = build_tiny(workload, seed, work)
                    run.Runner(ops).run_pass(traced=False)
                    files = {p.name: p.read_text() for p in Path(work).glob("*.edges")}
                    seen.append(([list(op.outputs) for op in ops], files))
            self.assertEqual(seen[0], seen[1], workload)
            self.assertNotEqual(seen[0][1], seen[2][1], workload)

    def test_bare_directory_fails_without_result(self):
        with scratch_dir() as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH_DIR, Path(bare) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


def _append_last_line(out):
    if isinstance(out, str):
        return out + out.splitlines()[-1] + "\n"
    return (*out, out[-1])


class Checks(unittest.TestCase):
    def test_corrupted_outputs_count_as_failed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload), tiny_workload(workload) as ops:
                runner = run.Runner(ops)
                self.assertEqual(runner.run_pass(traced=False).failed, 0)
                self.assertEqual(runner.check_outputs()[0], 0, runner.errors)
                for op in ops:
                    op.outputs.clear()
                    op.output = lambda value, read=op.output: _append_last_line(read(value))
                self.assertEqual(runner.run_pass(traced=False).failed, 0)
                self.assertEqual(runner.check_outputs()[0], len(ops), runner.errors)

    def test_wrong_trussness_value_is_caught(self):
        with tiny_workload("exact") as ops:
            op = next(op for op in ops if op.kind == "decompose")
            text = op.output(op.call())
            op.check(text)
            lines = text.splitlines()
            u, v, t = lines[0].split()
            lines[0] = f"{u} {v} {int(t) + 1}"
            with self.assertRaises(run.checks.CheckFailed):
                op.check("\n".join(lines) + "\n")

    def test_a_failing_command_counts_as_failed(self):
        with tiny_workload("exact") as ops:
            missing = str(run.ROOT / ".bench_work" / "missing.edges")
            op = run.cli_op(PROGRAM, "triangles", "missing", ["triangles", "count", missing],
                            missing + ".out", lambda text: None)
            runner = run.Runner([op, *ops])
            result = runner.run_pass(traced=False)
        self.assertEqual((len(result.op_s), result.failed), (1 + len(ops), 1))
        self.assertIn("exit code 1", runner.errors[0])


class Tracing(unittest.TestCase):
    def test_layer_self_times_add_up_to_operation_wall_time(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload), tiny_workload(workload) as ops:
                tracer = Tracer()
                runner = run.Runner(ops, tracer)
                result = runner.run_pass(traced=True)
                self.assertEqual(result.failed, 0, runner.errors)
                for op_id, wall in enumerate(result.op_s, start=result.first_op):
                    total = sum(tracer.self_seconds({op_id}).values())
                    self.assertGreater(total, 0)
                    self.assertLessEqual(total, wall)
                    self.assertAlmostEqual(total, wall, delta=0.05 * wall + 0.002)

    def test_every_binding_is_wrapped_and_restored(self):
        approx, truss = PROGRAM.approx, PROGRAM.truss
        before = approx.compute_supports
        method = PROGRAM.gadgets.BlowupView.materialize
        with Tracer().installed():
            self.assertIsNot(approx.compute_supports, before)
            self.assertIs(approx.compute_supports, truss.compute_supports)
            self.assertIs(approx.compute_supports, PROGRAM.triangles.compute_supports)
            self.assertIsNot(PROGRAM.gadgets.BlowupView.materialize, method)
        self.assertIs(approx.compute_supports, before)
        self.assertIs(PROGRAM.gadgets.BlowupView.materialize, method)

    def test_counters_follow_the_path_taken(self):
        with tiny_workload("approx-fallback") as ops:
            tracer = Tracer()
            run.Runner(ops, tracer).run_pass(traced=True)
        self.assertEqual(tracer.counts["sampling.calls"], 0)
        self.assertGreater(tracer.counts["approx.rounds"], 0)
        self.assertEqual(tracer.counts["approx.rounds_sampled"], 0)
        with tiny_workload("approx-sampled") as ops:
            tracer = Tracer()
            run.Runner(ops, tracer).run_pass(traced=True)
        self.assertGreater(tracer.counts["approx.rounds_sampled"], 0)
        self.assertGreater(tracer.counts["sampling.calls"], 0)
        self.assertLessEqual(set(tracer.counts), set(COUNTER_NAMES))


if __name__ == "__main__":
    unittest.main()
