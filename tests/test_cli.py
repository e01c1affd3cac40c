import csv
import io
import os
import random
import re
import subprocess
import sys
from itertools import combinations

import pytest

import oracles
import trusslab
from conftest import FIGURE_LEFT_EDGES, edge_list_text, traced_bytes
from trusslab import cli
from trusslab.cli import build_parser, main
from trusslab.gadgets import complete_graph
from trusslab.io import EdgeListError, _parse_columns, load_graph
from trusslab.sampling import gnp_random_graph
from trusslab.truss import trussness


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def k5_text():
    return edge_list_text(complete_graph(5))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_truss_exact_on_k5(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.edges", k5_text())
    code, out, err = run_cli(capsys, "truss", "exact", path)
    assert code == 0
    assert out == "3\n"
    assert err.startswith("# report command=truss exact")


# Every subcommand's stderr report, ``seconds=`` masked; the input is K5 and
# the bench corpus holds K5 and a path.
REPORTS = [
    (["truss", "exact", "{k5}"], "truss exact n=5 m=10 result=3 seconds=*"),
    (["truss", "decompose", "{k5}"], "truss decompose n=5 m=10 result=3 seconds=*"),
    (["truss", "approx", "--epsilon", "0.3", "--seed", "5", "{k5}"],
     "truss approx n=5 m=10 result=3 seed=5 epsilon=0.3 zeta=110.0 seconds=*"),
    (["truss", "threshold", "{k5}"], "truss threshold n=5 m=10 result=1 epsilon=0.1 seconds=*"),
    (["triangles", "count", "{k5}"], "triangles count n=5 m=10 triangles=10 seconds=*"),
    (["triangles", "list", "{k5}"], "triangles list n=5 m=10 triangles=10 seconds=*"),
    (["order", "{k5}"], "order n=5 m=10 result=4 seconds=*"),
    (["order", "--edges", "{k5}"], "order --edges n=5 m=10 result=3 seconds=*"),
    (["sample", "--zeta", "0.05", "--seed", "2", "{k5}"],
     "sample n=5 m=10 result=10 seed=2 epsilon=0.5 zeta=0.05 seconds=*"),
    (["gadget", "blowup", "-q", "2", "{k5}"], "gadget blowup n=10 m=40 q=2"),
    (["gadget", "spurious", "-x", "1", "{k5}"], "gadget spurious n=17 m=22 x=1 cliques=4"),
    (["gadget", "ladder", "-x", "4"], "gadget ladder n=8 m=16 x=4"),
    (["gadget", "bipartite-apex", "-s", "4"], "gadget bipartite-apex n=9 m=24 side=4"),
    (["gen", "random", "20", "0.3", "--seed", "9"], "gen random n=20 m=49 seed=9 p=0.3"),
    (["bench", "--corpus", "{corpus}", "--no-timing"],
     "bench result=2 graphs estimators=exact,approx,threshold"),
]


@pytest.mark.parametrize(
    "argv, report", REPORTS, ids=[" ".join(a for a in argv if "{" not in a) for argv, _ in REPORTS]
)
def test_report_line_of_every_subcommand(tmp_path, capsys, argv, report):
    paths = {"k5": write_graph(tmp_path, "k5.edges", k5_text()), "corpus": bench_corpus(tmp_path)}
    argv = [a.format(**paths) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    assert re.sub(r"seconds=\d+\.\d{6}", "seconds=*", err) == f"# report command={report}\n"


def test_truss_decompose_lines(tmp_path, capsys):
    text = "\n".join(f"{u} {v}" for u, v in FIGURE_LEFT_EDGES)
    path = write_graph(tmp_path, "fig.edges", text)
    code, out, _ = run_cli(capsys, "truss", "decompose", path)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(FIGURE_LEFT_EDGES)
    assert lines[0] == "0 1 2"
    assert all(len(line.split()) == 3 for line in lines)


def test_triangles_count_on_apex(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gadget", "bipartite-apex", "-s", "4")
    assert code == 0
    path = write_graph(tmp_path, "apex.edges", out)
    code, out, _ = run_cli(capsys, "triangles", "count", path)
    assert code == 0
    assert out == "16\n"


def test_triangles_list_sorted(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.edges", edge_list_text(complete_graph(4)))
    code, out, _ = run_cli(capsys, "triangles", "list", path)
    assert code == 0
    rows = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert rows == sorted(rows)
    assert len(rows) == 4


def messy_edge_text(n: int, p: float, seed: int) -> str:
    """A seeded G(n, p) edge list on every third node id, so the others are
    isolated, with each edge also repeated reversed, a self-loop per edge
    and the lines shuffled."""
    rng = random.Random(seed)
    lines = []
    for u, v in combinations(range(0, 3 * n, 3), 2):
        if rng.random() < p:
            lines += [f"{u} {v}\n", f"{v} {u}\n", f"{u} {u}\n"]
    rng.shuffle(lines)
    return "".join(lines)


@pytest.mark.parametrize("n, p, seed", [(6, 0.5, 1), (12, 0.6, 2), (20, 0.4, 3), (25, 0.8, 4)])
def test_triangles_list_is_the_sorted_brute_force_listing(tmp_path, capsys, n, p, seed):
    """Byte for byte, ``triangles list`` prints the brute-force node
    triples x < y < z in ascending order, on inputs with isolated nodes,
    duplicate edges and self-loops; its report counts them."""
    text = messy_edge_text(n, p, seed)
    g = load_graph(io.StringIO(text))[0]
    brute = sorted(oracles.brute_triangles(g))
    assert brute and g.n > n
    code, out, err = run_cli(capsys, "triangles", "list", write_graph(tmp_path, "g.edges", text))
    assert code == 0
    assert out == "".join(f"{x} {y} {z}\n" for x, y, z in brute)
    assert f" triangles={len(brute)} " in err


def test_triangles_list_holds_one_flat_column():
    """The listing's compute holds its node triples in one flat 4-byte
    column and no per-triangle key: on G(250, 0.48), 276 267 triangles, it
    peaks at ~3.4 MB, where sorting one int key per triangle peaked at
    ~14.6 MB (tracemalloc)."""
    g = gnp_random_graph(250, 0.48, 1)
    (lines, fields), _, peak = traced_bytes(lambda: cli._triangles_list(g, None))
    assert fields == {"triangles": 276_267}
    assert peak < 5_000_000
    assert sum(line.count("\n") for line in lines) == 276_267


def test_threshold_on_triangle_free(tmp_path, capsys):
    path = write_graph(tmp_path, "p.edges", "0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "truss", "threshold", "--epsilon", "0.1", path)
    assert code == 0
    assert out.splitlines()[0] == "estimate 0"


def test_order_subcommand(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.edges", edge_list_text(complete_graph(4)))
    code, out, _ = run_cli(capsys, "order", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degeneracy 3"
    assert lines[1].split() == ["0", "1", "2", "3"]
    code, out, _ = run_cli(capsys, "order", "--edges", path)
    assert out.splitlines()[0] == "trussness 2"


def test_approx_report_fields(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.edges", k5_text())
    code, out, _ = run_cli(
        capsys, "truss", "approx", "--epsilon", "0.3", "--seed", "5", path
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "estimate 3"
    assert lines[1] == "exact true"
    assert lines[3] == "fallback-only true"


def test_sample_header_and_triples(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.edges", k5_text())
    code, out, _ = run_cli(
        capsys, "sample", "--epsilon", "0.5", "--zeta", "0.05", "--seed", "2", path
    )
    assert code == 0
    header, *rows = out.splitlines()
    assert header.startswith("# m=10 wedges=10 p=")
    for row in rows:
        assert len(row.split()) == 3


def test_spurious_round_trip(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.edges", edge_list_text(complete_graph(3)))
    code, out, _ = run_cli(capsys, "gadget", "spurious", "-x", "1", path)
    assert code == 0
    reloaded = write_graph(tmp_path, "aug.edges", out)
    g, flags = load_graph(reloaded)
    assert g.m == 6
    assert flags == [False] * 3 + [True] * 3
    # round-trip again: identical bytes
    code, out2, _ = run_cli(capsys, "gadget", "spurious", "-x", "1", path)
    assert out2 == out


def test_spurious_flag_follows_first_surviving_occurrence(tmp_path):
    text = "0 1\n1 2\n0 2\n1 0 # spurious\n2 2 # spurious\n2 3 # spurious\n3 2\n"
    g, flags = load_graph(write_graph(tmp_path, "dup.edges", text))
    assert g.m == 4
    assert flags == [False, False, False, True]
    g, flags = load_graph(write_graph(tmp_path, "plain.edges", "0 1\n1 2\n1 0\n"))
    assert g.m == 2
    assert flags == [False, False]


# (edge-list text, pairs, spurious flags): the flag of each edge is that of
# its first line; reversed repeats count as repeats, self-loops never count.
FIRST_OCCURRENCE = [
    ("0 1 # spurious\n1 2\n0 1\n", [(0, 1), (1, 2)], [True, False]),
    ("0 1\n1 2\n0 1 # spurious\n", [(0, 1), (1, 2)], [False, False]),
    ("1 0 # spurious\n0 1\n", [(0, 1)], [True]),
    ("300 2\n2 300 # spurious\n300 2 # spurious\n", [(2, 300)], [False]),
    ("3 3 # spurious\n3 4\n4 4 # spurious\n4 3 # spurious\n", [(3, 4)], [False]),
    ("5 5 # spurious\n", [], []),
    ("0 1\n1 0\n", [(0, 1)], [False]),
]


@pytest.mark.parametrize("source", ["path", "stdin"])
@pytest.mark.parametrize("text, pairs, flags", FIRST_OCCURRENCE)
def test_load_flags_follow_first_occurrence(tmp_path, monkeypatch, source, text, pairs, flags):
    if source == "path":
        g, got = load_graph(write_graph(tmp_path, "g.edges", text))
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        g, got = load_graph("-")
    assert list(g.edges()) == pairs
    assert got == flags
    assert all(type(flag) is bool for flag in got)


def test_id_past_the_endpoint_column_is_a_line_error(tmp_path, capsys):
    path = write_graph(tmp_path, "huge.edges", "0 1\n0 9223372036854775808\n")
    with pytest.raises(EdgeListError) as err:
        load_graph(path)
    assert err.value.line_no == 2
    code, out, err = run_cli(capsys, "truss", "exact", path)
    assert (code, out) == (1, "")
    assert err == ("trusslab: error: line 2: node id 9223372036854775808"
                   " not below the node-id limit 10000000\n")


@pytest.mark.parametrize("source", ["path", "stdin"])
def test_id_at_the_node_limit_is_a_line_error(tmp_path, capsys, monkeypatch, source):
    """Under a node-id limit of 100 (the real limit would allocate millions
    of maps in a passing run), the first line with an id at or above it is
    named, comment and blank lines counted.  The parser reads the limit when
    it is called, so the same lines parse once the limit is restored."""
    monkeypatch.setattr(trusslab.graph, "NODE_ID_LIMIT", 100)
    text = "# header\n0 1\n\n1 2 # spurious\n99 3\n0 150\n150 0\n"
    path = write_graph(tmp_path, "big.edges", text)
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        path = "-"
    with pytest.raises(EdgeListError) as err:
        load_graph(path if source == "path" else io.StringIO(text))
    assert err.value.line_no == 6
    code, out, err = run_cli(capsys, "truss", "exact", path)
    assert (code, out) == (1, "")
    assert err == "trusslab: error: line 6: node id 150 not below the node-id limit 100\n"
    monkeypatch.undo()
    us, vs, _ = _parse_columns(text.splitlines())
    assert (us[-1], vs[-1]) == (150, 0)


@pytest.mark.parametrize(
    "line, parsed",
    [
        ("", ([], [])),
        ("  \n", ([], [])),
        ("# c", ([], [])),
        ("  # c", ([], [])),
        ("1 2#spurious", ([(1, 2)], [True])),
        ("1 2 #", ([(1, 2)], [False])),
        ("\t3\t4 ", ([(3, 4)], [False])),
        ("1 # 2", "line 2: expected two node ids, got '1'"),
        ("1", "line 2: expected two node ids, got '1'"),
        ("1 2 3", "line 2: expected two node ids, got '1 2 3'"),
        ("a b", "line 2: non-integer node id in 'a b'"),
        ("-1 2", "line 2: negative node id in '-1 2'"),
        ("1 0 # spurious", ([(1, 0)], [True])),
        ("2 2 # spurious", ([(2, 2)], [True])),
        ("0 9223372036854775807",
         "line 2: node id 9223372036854775807 not below the node-id limit 10000000"),
        ("0 9223372036854775808",
         "line 2: node id 9223372036854775808 not below the node-id limit 10000000"),
        ("9" * 30 + " 1", f"line 2: node id {'9' * 30} not below the node-id limit 10000000"),
        # the largest id below the limit, then the limit itself
        ("9999999 0", ([(9999999, 0)], [False])),
        ("0 10000000", "line 2: node id 10000000 not below the node-id limit 10000000"),
        # only a comment that is exactly "spurious", spaces aside, flags its edge
        ("0 1 #spurious", ([(0, 1)], [True])),
        ("0 1 # not spurious", ([(0, 1)], [False])),
        ("0 1 # spurious edge", ([(0, 1)], [False])),
    ],
)
def test_parse_edge_lines_table(line, parsed):
    lines = ["0 1\n", line]
    if isinstance(parsed, str):
        with pytest.raises(EdgeListError) as err:
            _parse_columns(lines)
        assert (str(err.value), err.value.line_no) == (parsed, 2)
    else:
        edges, flags = parsed
        us, vs, got = _parse_columns(lines)
        assert (list(zip(us, vs)), list(map(bool, got))) == ([(0, 1)] + edges, [False] + flags)


def test_gadget_blowup_quantities(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.edges", edge_list_text(complete_graph(3)))
    code, out, _ = run_cli(capsys, "gadget", "blowup", "-q", "2", path)
    assert code == 0
    aug = write_graph(tmp_path, "blown.edges", out)
    g, _ = load_graph(aug)
    assert (g.n, g.m) == (6, 12)
    assert trussness(g) == 2


def test_gadget_ladder_reports_values(capsys):
    code, out, _ = run_cli(capsys, "gadget", "ladder", "-x", "4")
    assert code == 0
    assert out.splitlines()[0] == "# trussness values achieved: 0,1,2,3"


def test_gen_random_round_trip(tmp_path, capsys):
    from trusslab.graph import degeneracy_order
    from trusslab.sampling import gnp_random_graph
    from trusslab.triangles import compute_supports

    code, out, _ = run_cli(capsys, "gen", "random", "20", "0.3", "--seed", "9")
    assert code == 0
    path = write_graph(tmp_path, "r.edges", out)
    reloaded, _ = load_graph(path)
    original = gnp_random_graph(20, 0.3, 9)
    for quantity in (
        trussness,
        lambda g: compute_supports(g).triangle_count,
        lambda g: degeneracy_order(g).degeneracy,
    ):
        assert quantity(reloaded) == quantity(original)
    code, out2, _ = run_cli(capsys, "truss", "exact", path)
    assert out2.strip() == str(trussness(original))


def test_approx_pseudocode_growth_flag(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.edges", k5_text())
    code, out, _ = run_cli(
        capsys, "truss", "approx", "--epsilon", "0.3", "--pseudocode-growth", path
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "estimate 3"
    # (1+eps) growth takes strictly fewer rounds than (1+eps/6) growth
    code, slow, _ = run_cli(capsys, "truss", "approx", "--epsilon", "0.3", path)
    assert int(lines[2].split()[1]) < int(slow.splitlines()[2].split()[1])


def test_usage_error_exit_code(capsys):
    assert main(["truss", "exact", "--bogus"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def fresh_process(*argv):
    """Run the CLI in a new interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(trusslab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "trusslab.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_flags_of_one_call_do_not_reach_the_next(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.edges", k5_text())
    code, _, err = run_cli(capsys, "truss", "approx", path, "--seed", "7", "--zeta", "0.5")
    assert code == 0
    assert " seed=7 epsilon=0.5 zeta=0.5 " in err
    code, _, err = run_cli(capsys, "truss", "approx", path)
    assert code == 0
    assert " seed=0 epsilon=0.5 zeta=110.0 " in err


def test_bench_grid_defaults_are_immutable():
    args = build_parser().parse_args(["bench", "--corpus", "c"])
    assert (args.epsilons, args.zetas, args.seeds) == ((0.3,), (110.0,), (0,))


@pytest.mark.parametrize("usage_first", [True, False])
def test_usage_error_and_valid_call_match_fresh_processes(tmp_path, capsys, usage_first):
    path = write_graph(tmp_path, "k5.edges", k5_text())
    usage = ["truss", "approx", "--epsilon", "1.5", path]
    valid = ["truss", "approx", "--seed", "3", path]
    for argv in ([usage, valid] if usage_first else [valid, usage]):
        code, out, err = run_cli(capsys, *argv)
        fresh_code, fresh_out, fresh_err = fresh_process(*argv)
        assert (code, out) == (fresh_code, fresh_out)
        if argv is usage:
            assert code == 2
            assert err == fresh_err
        else:
            assert code == 0


@pytest.mark.parametrize("argv", [["--help"], ["truss", "approx", "--help"]])
def test_help_is_identical_on_every_call(capsys, argv):
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first.startswith("usage: trusslab")
    assert run_cli(capsys, *argv) == (0, first, "")


def test_missing_file_exit_code(capsys):
    assert main(["truss", "exact", "/no/such/file.edges"]) == 1
    capsys.readouterr()


def test_malformed_line_reports_number(tmp_path, capsys):
    path = write_graph(tmp_path, "bad.edges", "0 1\nnot numbers\n")
    assert main(["truss", "exact", path]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_epsilon_validation_is_usage_error(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.edges", edge_list_text(complete_graph(3)))
    assert main(["truss", "approx", "--epsilon", "1.5", path]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["truss", "threshold", "--epsilon", "nan"],
        ["truss", "threshold", "--epsilon", "inf"],
        ["truss", "approx", "--zeta", "nan"],
        ["truss", "approx", "--zeta", "inf"],
        ["sample", "--zeta", "nan"],
    ],
)
def test_non_finite_flag_is_usage_error(tmp_path, capsys, argv):
    path = write_graph(tmp_path, "k3.edges", edge_list_text(complete_graph(3)))
    code, out, err = run_cli(capsys, *argv, path)
    assert code == 2
    assert out == ""
    assert f"got {argv[-1]}" in err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["truss", "approx", "--epsilon", "abc"], "float"),
        (["truss", "threshold", "--epsilon", "abc"], "float"),
        (["gadget", "blowup", "-q", "abc"], "int"),
    ],
)
def test_non_numeric_flag_is_usage_error(tmp_path, capsys, argv, kind):
    path = write_graph(tmp_path, "k3.edges", edge_list_text(complete_graph(3)))
    code, out, err = run_cli(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert err.endswith(f"invalid {kind} value: 'abc'\n")


@pytest.mark.parametrize(
    "argv, value",
    [
        (["gadget", "blowup", "-q", "0", "{k3}"], "0"),
        (["gadget", "spurious", "-x", "-1", "{k3}"], "-1"),
        (["gadget", "ladder", "-x", "0"], "0"),
        (["gadget", "bipartite-apex", "-s", "0"], "0"),
        (["gen", "random", "-3", "0.5"], "-3"),
        (["gadget", "blowup", "-q", "2", "--max-edges", "-1", "{k3}"], "-1"),
    ],
)
def test_integer_flag_out_of_range_is_usage_error(tmp_path, capsys, argv, value):
    k3 = write_graph(tmp_path, "k3.edges", edge_list_text(complete_graph(3)))
    code, out, err = run_cli(capsys, *(a.format(k3=k3) for a in argv))
    assert code == 2
    assert out == ""
    assert f"got {value}" in err


def test_spurious_x_over_the_input_cap_is_data_error(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.edges", k5_text())
    code, out, err = run_cli(capsys, "gadget", "spurious", "-x", "99", path)
    assert code == 1
    assert out == ""
    assert err == "trusslab: error: x=99 exceeds the sparsity cap 7 for m=10\n"


# The least positive float: the first sampling probability it yields is
# subnormal, or 0 on a wedge-rich graph.
TINY = "5e-324"


def test_sample_at_tiny_zeta(tmp_path, capsys):
    _, text, _ = run_cli(capsys, "gen", "random", "40", "0.5", "--seed", "3")
    path = write_graph(tmp_path, "g40.edges", text)
    code, out, err = run_cli(capsys, "sample", "--zeta", TINY, path)
    assert code == 0
    assert out.startswith("# m=397 wedges=2100 ")
    assert "Traceback" not in err


def test_approx_at_tiny_zeta(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.edges", k5_text())
    code, out, err = run_cli(capsys, "truss", "approx", "--zeta", TINY, path)
    assert code == 0
    assert out.startswith("estimate ")
    assert "Traceback" not in err


def test_gen_random_at_tiny_p(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "random", "50", TINY)
    assert code == 0
    g, _ = load_graph(write_graph(tmp_path, "empty.edges", out))
    assert g.m == 0


def test_zeta_whose_first_p_underflows_is_one_line_error(tmp_path, capsys):
    _, text, _ = run_cli(capsys, "gen", "random", "300", "0.3", "--seed", "2")
    path = write_graph(tmp_path, "g300.edges", text)
    code, out, err = run_cli(capsys, "sample", "--epsilon", "0.9", "--zeta", TINY, path)
    assert code == 1
    assert out == ""
    assert err.startswith(f"trusslab: error: zeta={TINY} ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, name", [(["gadget", "ladder", "-x", "5"], "ladder gadget x=5"),
                                        (["gadget", "bipartite-apex", "-s", "4"],
                                         "bipartite-apex gadget side=4")])
def test_gadget_past_the_edge_cap_is_one_line_error(capsys, monkeypatch, argv, name):
    """Above ``MATERIALIZE_CAP`` a gadget stops on one line naming it, exit 1."""
    monkeypatch.setattr(trusslab.gadgets, "MATERIALIZE_CAP", 20)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"trusslab: error: {name} would have ")
    assert err.endswith(" edges, above the edge cap 20\n") and err.count("\n") == 1


def test_working_graph_past_a_limit_is_one_line_error(tmp_path, capsys, monkeypatch):
    """A round that can sample needs the estimator's 6n+3-node, 36m+3-edge
    working graph; under a node-id limit of 100, or an edge cap one below
    36m+3, a 20-node input stops on one line that names the blow-up, while
    at zeta=110, where every round is decided in closed form, it runs."""
    _, text, _ = run_cli(capsys, "gen", "random", "20", "0.4", "--seed", "3")
    path = write_graph(tmp_path, "g20.edges", text)
    g, _ = load_graph(path)
    blown = ("trusslab: error: the estimator's working graph"
             " (6-fold blow-up of the input plus a triangle)")
    for module, name, limit, what in ((trusslab.graph, "NODE_ID_LIMIT", 100, "123 nodes"),
                                      (trusslab.gadgets, "MATERIALIZE_CAP", 36 * g.m + 2,
                                       f"{36 * g.m + 3} edges")):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, limit)
            code, out, err = run_cli(capsys, "truss", "approx", "--zeta", "0.001", path)
            assert (code, out) == (1, "")
            assert err.startswith(f"{blown} would have {what}, above ")
            assert "a larger zeta decides more rounds in closed form" in err
            assert err.count("\n") == 1
            code, out, _ = run_cli(capsys, "truss", "approx", "--zeta", "110", path)
            assert code == 0 and out.startswith("estimate ")
    monkeypatch.setattr(trusslab.gadgets, "MATERIALIZE_CAP", 36 * g.m + 3)
    code, _, err = run_cli(capsys, "truss", "approx", "--zeta", "0.001", path)
    assert code == 0, err


@pytest.mark.parametrize("rows", [0, 1, cli._CHUNK - 1, cli._CHUNK, cli._CHUNK + 1,
                                  3 * cli._CHUNK + 5])
def test_triple_lines_match_the_line_format_across_chunks(rows):
    """Chunked ``%d`` formatting of a flat int column gives the bytes of one
    f-string per row of three, at and around every chunk boundary, with no
    string holding more than a chunk of rows."""
    rng = random.Random(rows)
    triples = [(rng.randrange(10**9), rng.randrange(-5, 5), rng.randrange(2**40))
               for _ in range(rows)]
    parts = list(cli._triple_lines([i for row in triples for i in row]))
    assert "".join(parts) == "".join(f"{a} {b} {c}\n" for a, b, c in triples)
    assert all(part.count("\n") <= cli._CHUNK for part in parts)
    assert len(parts) == -(-rows // cli._CHUNK)


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.edges", k5_text())
    target = tmp_path / "result.txt"
    code, out, _ = run_cli(capsys, "truss", "exact", path, "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "3\n"


def seeded_commands(path):
    return [
        ["sample", "--epsilon", "0.5", "--zeta", "0.05", "--seed", "3", path],
        ["truss", "approx", "--epsilon", "0.5", "--zeta", "0.05", "--seed", "3", path],
        ["gen", "random", "25", "0.4", "--seed", "3"],
    ]


def test_seeded_commands_are_byte_identical(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.edges", k5_text())
    for argv in seeded_commands(path):
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        code, second, _ = run_cli(capsys, *argv)
        assert first == second


def bench_corpus(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "k5.edges").write_text(k5_text())
    (d / "path.edges").write_text("0 1\n1 2\n")
    return str(d)


def test_bench_csv_shape(tmp_path, capsys):
    corpus = bench_corpus(tmp_path)
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--corpus",
        corpus,
        "--epsilons",
        "0.3",
        "--zetas",
        "110",
        "--seeds",
        "0:2",
        "--no-timing",
    )
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    assert header[0] == "kind"
    assert "estimate" in header and "ratio" in header
    k5_exact = [l for l in lines if l.startswith("run,k5,exact")]
    assert len(k5_exact) == 1 and ",1,1," in k5_exact[0]
    approx_rows = [l for l in lines if l.startswith("run,k5,approx")]
    assert len(approx_rows) == 2


def test_bench_missing_corpus_is_io_error(capsys):
    assert main(["bench", "--corpus", "/no/such/corpus"]) == 1
    capsys.readouterr()


def test_bench_empty_manifest_is_io_error(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text("# no graphs\n\n")
    code, out, err = run_cli(capsys, "bench", "--corpus", str(manifest))
    assert code == 1
    assert out == ""
    assert err == f"trusslab: error: no paths in corpus manifest {manifest}\n"


def test_bench_malformed_corpus_file_is_named(tmp_path, capsys):
    """A malformed line of one corpus graph is an error that names the file
    before its line, with no CSV written."""
    corpus = bench_corpus(tmp_path)
    bad = os.path.join(corpus, "bad.edges")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("0 1 2\n")
    code, out, err = run_cli(capsys, "bench", "--corpus", corpus)
    assert (code, out) == (1, "")
    assert err == f"trusslab: error: {bad}: line 1: expected two node ids, got '0 1 2'\n"


def test_bench_manifest_resolves_relative_and_absolute_paths(tmp_path, capsys):
    """A manifest names graphs relative to its own directory or by absolute
    path, skipping comments and blank lines; its bench equals that of the
    directory holding the same graphs."""
    corpus = bench_corpus(tmp_path)
    lists = tmp_path / "lists"
    lists.mkdir()
    manifest = lists / "m.txt"
    manifest.write_text(f"# graphs\n\n../corpus/k5.edges\n{os.path.join(corpus, 'path.edges')}\n")
    grid = ["--no-timing", "--seeds", "0:2"]
    code, from_manifest, _ = run_cli(capsys, "bench", "--corpus", str(manifest), *grid)
    assert code == 0
    code, from_dir, _ = run_cli(capsys, "bench", "--corpus", corpus, *grid)
    assert code == 0
    assert {r["graph"] for r in csv.DictReader(io.StringIO(from_manifest))} == {"k5", "path"}
    assert from_manifest == from_dir


def test_bench_seed_list_and_bad_seed_range(tmp_path, capsys):
    corpus = bench_corpus(tmp_path)
    code, out, _ = run_cli(capsys, "bench", "--corpus", corpus, "--estimators", "approx",
                           "--seeds", "1,3", "--no-timing")
    assert code == 0
    runs = [r for r in csv.DictReader(io.StringIO(out)) if r["kind"] == "run"]
    assert [r["seed"] for r in runs] == ["1", "3", "1", "3"]
    code, out, err = run_cli(capsys, "bench", "--corpus", corpus, "--seeds", "x:2")
    assert (code, out) == (2, "")
    assert err.endswith("bad seed range: 'x:2'\n")


def test_bench_deterministic_without_timing(tmp_path, capsys):
    corpus = bench_corpus(tmp_path)
    argv = [
        "bench", "--corpus", corpus, "--epsilons", "0.3",
        "--seeds", "0:2", "--no-timing",
    ]
    code, first, _ = run_cli(capsys, *argv)
    code, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_bench_timed_rows(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", "--corpus", bench_corpus(tmp_path), "--seeds", "0:2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    runs = [r for r in rows if r["kind"] == "run"]
    assert runs and all(re.fullmatch(r"\d+\.\d{6}", r["seconds"]) for r in runs)
    summaries = 0
    for run, r in zip(rows, rows[1:]):
        if r["kind"] == "summary" and r["estimator"] != "approx":
            assert r == {**run, "kind": "summary"}  # the run's seconds included
            summaries += 1
    assert summaries == 4  # exact and threshold on each of the two graphs
    approx = [r for r in rows if r["kind"] == "summary" and r["estimator"] == "approx"]
    assert len(approx) == 2
    assert all(r["seconds"] == r["seed"] == "" for r in approx)


def test_bench_exact_computes_supports_once_per_graph(tmp_path, capsys, monkeypatch):
    import trusslab.cli as cli
    import trusslab.truss as truss

    d = tmp_path / "corpus"
    d.mkdir()
    (d / "k5.edges").write_text(k5_text())
    calls = []
    real = truss.compute_supports

    def counting(g):
        calls.append(g.m)
        return real(g)

    # The bench's exact cell counts the supports itself, for its triangle
    # count, and peels from them; a peel that counted them again is caught
    # through the truss module's binding.
    for module in (cli, truss):
        monkeypatch.setattr(module, "compute_supports", counting)
    code, out, _ = run_cli(capsys, "bench", "--corpus", str(d), "--estimators", "exact")
    assert code == 0
    assert calls == [10]
    assert any(l.startswith("run,k5,exact") for l in out.splitlines())


def test_bench_runs_every_seed(tmp_path, capsys, monkeypatch):
    import trusslab.cli as cli

    d = tmp_path / "corpus"
    d.mkdir()
    (d / "k5.edges").write_text(k5_text())
    calls = []
    real = cli.estimate_trussness

    def counting(g, epsilon, **kwargs):
        calls.append(kwargs["seed"])
        return real(g, epsilon, **kwargs)

    monkeypatch.setattr(cli, "estimate_trussness", counting)
    code, out, _ = run_cli(
        capsys, "bench", "--corpus", str(d), "--estimators", "approx",
        "--zetas", "110", "--seeds", "0:3", "--no-timing",
    )
    assert code == 0
    assert calls == [0, 1, 2]
    lines = out.splitlines()
    header = lines[0].split(",")
    assert "reused" not in header
    runs = [dict(zip(header, l.split(","))) for l in lines if l.startswith("run,")]
    assert [r["fell_back"] for r in runs] == ["1", "1", "1"]


@pytest.mark.parametrize("grid", [["--seeds", "3:1"], ["--epsilons", ""]])
def test_bench_empty_grid_is_usage_error(tmp_path, capsys, grid):
    corpus = bench_corpus(tmp_path)
    code, out, err = run_cli(capsys, "bench", "--corpus", corpus, *grid)
    assert code == 2
    assert out == ""
    assert "empty" in err


def test_bench_epsilon_out_of_range_is_usage_error(tmp_path, capsys):
    corpus = bench_corpus(tmp_path)
    code, out, err = run_cli(capsys, "bench", "--corpus", corpus, "--epsilons", "0.3,1.5")
    assert code == 2
    assert out == ""
    assert "must be in (0, 1), got 1.5" in err


def test_bench_zeta_out_of_range_is_usage_error(tmp_path, capsys):
    corpus = bench_corpus(tmp_path)
    code, out, err = run_cli(capsys, "bench", "--corpus", corpus, "--zetas", "110,0")
    assert code == 2
    assert out == ""
    assert "must be positive, got 0" in err


def test_directory_input_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "truss", "exact", str(tmp_path))
    assert code == 1
    assert err.startswith("trusslab: error:")


def test_bench_bad_estimator_list_is_usage_error(tmp_path, capsys):
    corpus = bench_corpus(tmp_path)
    unknown = "must be exact, approx or threshold, got bogus"
    for value, message in [
        ("bogus", unknown),
        ("exact,bogus", unknown),
        (",", "empty estimator list: ','"),
    ]:
        code, out, err = run_cli(capsys, "bench", "--corpus", corpus, "--estimators", value)
        assert code == 2
        assert out == ""
        assert f"argument --estimators: {message}" in err


def test_trussness_readers_run_without_the_ordered_peel(tmp_path, capsys, monkeypatch):
    """Callers that read only t(e) or the trussness never reach the
    (support, id) peel; the callers that read its order still do."""
    import trusslab.approx as approx
    import trusslab.truss as truss
    from trusslab.sampling import SamplerConfig, gnp_random_graph

    real = truss._peel_from_supports
    g = gnp_random_graph(9, 0.6, 4)
    path = write_graph(tmp_path, "g.edges", edge_list_text(g))
    want = real(g, trusslab.compute_supports(g))[0]

    def forbidden(*args):
        raise AssertionError("ordered peel reached")

    monkeypatch.setattr(truss, "_peel_from_supports", forbidden)
    assert run_cli(capsys, "truss", "exact", path)[:2] == (0, f"{want.trussness}\n")
    code, out, _ = run_cli(capsys, "truss", "decompose", path)
    assert code == 0 and [int(line.split()[2]) for line in out.splitlines()] == want.edge_trussness
    assert run_cli(capsys, "gadget", "ladder", "-x", "5")[0] == 0
    code, out, _ = run_cli(capsys, "bench", "--corpus", str(tmp_path), "--estimators", "exact")
    row = next(csv.DictReader(io.StringIO(out)))
    assert code == 0 and row["exact_trussness"] == str(want.trussness)
    assert row["triangles"] == str(trusslab.compute_supports(g).triangle_count)
    assert truss.trussness(g) == want.trussness
    assert truss.max_truss_subgraph(g, 2) == {e for e, t in enumerate(want.edge_trussness) if t >= 2}
    result = approx.estimate_trussness(g, 0.5, zeta=110.0, seed=1)
    assert result.exact and result.estimate == want.trussness

    calls = []

    def counting(*args):
        calls.append(args[0].m)
        return real(*args)

    monkeypatch.setattr(truss, "_peel_from_supports", counting)
    assert run_cli(capsys, "order", "--edges", path)[0] == 0
    assert calls == [g.m]
    order = approx.approx_truss_order(g, SamplerConfig(0.5, 110.0, 0))
    assert order.fell_back_to_exact and calls == [g.m, g.m]
