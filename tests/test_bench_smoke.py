"""Each bench workload runs end to end at its tiny size and its own checks
accept every output, so an output the bench rejects fails here too."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["exact", "approx-fallback", "approx-sampled"])
def test_tiny_bench_run_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout


def test_traced_bench_counts_every_marker_pass():
    """Traced, ``sampling.passes`` counts the marker rounds' passes too:
    every sampled round walks at least one, and the ``sample`` op its own."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "approx-sampled", "--seed", "1",
         "--seconds", "0", "--size", "tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    metrics = json.loads(run.stdout.splitlines()[-1])["metrics"]
    rounds = metrics["approx.rounds_sampled"]["value"]
    assert rounds > 0 and metrics["sampling.passes"]["value"] > rounds, metrics
