import io
import os
import re
import subprocess
import sys

import pytest

import trusslab
from conftest import FIGURE_LEFT_EDGES, edge_list_text
from trusslab.cli import build_parser, main
from trusslab.gadgets import complete_graph
from trusslab.io import EdgeListError, load_graph, parse_edge_lines
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
    assert err == "trusslab: error: line 2: node id too large in '0 9223372036854775808'\n"


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
        # the largest id the endpoint column holds; parsed only, never built
        ("0 9223372036854775807", ([(0, 9223372036854775807)], [False])),
        ("0 9223372036854775808", "line 2: node id too large in '0 9223372036854775808'"),
        ("9" * 30 + " 1", f"line 2: node id too large in '{'9' * 30} 1'"),
    ],
)
def test_parse_edge_lines_table(line, parsed):
    lines = ["0 1\n", line]
    if isinstance(parsed, str):
        with pytest.raises(EdgeListError) as err:
            parse_edge_lines(lines)
        assert (str(err.value), err.value.line_no) == (parsed, 2)
    else:
        edges, flags = parsed
        assert parse_edge_lines(lines) == ([(0, 1)] + edges, [False] + flags)


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


def test_bench_deterministic_without_timing(tmp_path, capsys):
    corpus = bench_corpus(tmp_path)
    argv = [
        "bench", "--corpus", corpus, "--epsilons", "0.3",
        "--seeds", "0:2", "--no-timing",
    ]
    code, first, _ = run_cli(capsys, *argv)
    code, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_bench_exact_computes_supports_once_per_graph(tmp_path, capsys, monkeypatch):
    import trusslab.cli as cli

    d = tmp_path / "corpus"
    d.mkdir()
    (d / "k5.edges").write_text(k5_text())
    calls = []
    real = cli.compute_supports

    def counting(g):
        calls.append(g.m)
        return real(g)

    monkeypatch.setattr(cli, "compute_supports", counting)
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
