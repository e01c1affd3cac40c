"""CLI stdout on fixed small graphs, byte for byte.

The expected files under ``tests/golden`` were captured from the CLI before
the graph core moved to per-node edge-id maps; ``bench.out`` was recaptured
when the bench CSV dropped its ``reused`` column, and again when its
``within`` column began to judge the threshold estimator by its
t~ <= t <= (3+eps)·t~ sandwich (six fields went 0 -> 1).  The ``exact``,
``threshold``, ``triangles-count`` and ``order`` goldens were captured
before the loader began to check each node id on its line and to hold
ids in 4-byte columns, so they pin that change byte for byte.  The top-level
``sample`` goldens all fall back to p = 1, so ``sampled/gnp40`` pins a run
whose doubling passes really sample; its edge file sits in a subdirectory
because ``bench`` reads every ``*.edges`` file at the top level.
``help.out`` holds ``--help`` of every parser level at 100 columns, as
Python 3.11's argparse lays it out.  Regenerate them only for a deliberate
change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import redirect_stdout
from unittest import mock

import pytest

from trusslab.cli import build_parser, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# gnp_random_graph(9, 0.5, 4), bipartite_apex(3) and ladder_gadget(4)
GRAPHS = ["gnp9", "apex3", "ladder4"]
COMMANDS = {
    "exact": ["truss", "exact"],
    "decompose": ["truss", "decompose"],
    "threshold": ["truss", "threshold"],
    "triangles-count": ["triangles", "count"],
    "order": ["order"],
    "order-edges": ["order", "--edges"],
    "triangles-list": ["triangles", "list"],
    "sample": ["sample", "--zeta", "0.05", "--seed", "1"],
    "approx-zeta110": ["truss", "approx", "--zeta", "110"],
    "approx-zeta0.001": ["truss", "approx", "--zeta", "0.001"],
}
CASES = {
    f"{graph}.{name}": [*argv, os.path.join(GOLDEN, f"{graph}.edges")]
    for graph in GRAPHS
    for name, argv in COMMANDS.items()
}
# gnp_random_graph(40, 0.5, 3): m = 397, three passes, no fallback
CASES["sampled/gnp40.sample"] = [
    *COMMANDS["sample"], os.path.join(GOLDEN, "sampled", "gnp40.edges")
]
CASES["bench"] = [
    "bench", "--corpus", GOLDEN, "--no-timing", "--zetas", "110,0.01", "--seeds", "0:2"
]


def expected_path(case: str) -> str:
    return os.path.join(GOLDEN, f"{case}.out")


def parser_levels(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """The argv prefix of every parser level: the top, each group, each leaf."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parser_levels(sub, (*path, name))


def write_help() -> None:
    """Print ``--help`` of every parser level, each under a ``$`` line."""
    with mock.patch.dict(os.environ, {"COLUMNS": "100"}):
        for path in parser_levels(build_parser()):
            print("$ trusslab", *path, "--help", flush=True)
            assert main([*path, "--help"]) == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, capsys):
    assert main(CASES[case]) == 0
    with open(expected_path(case), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse layout varies by version")
def test_help_matches_golden(capsys):
    write_help()
    with open(expected_path("help"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


if __name__ == "__main__":
    for case, argv in CASES.items():
        with open(expected_path(case), "w", encoding="utf-8") as out, redirect_stdout(out):
            main(argv)
    with open(expected_path("help"), "w", encoding="utf-8") as out, redirect_stdout(out):
        write_help()
