import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from squarestable import cli, graphs, solvers, verify
from squarestable.errors import InternalCheckError
from squarestable.generate import (
    canonical_graph6,
    corona_with_k1,
    cycle_graph,
    named_fixture,
    random_connected_graph,
    random_tree,
)
from squarestable.graphs import Graph, format_edge_list, parse_edge_list, parse_graph6, to_graph6


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_c12(capsys, tmp_path):
    path = tmp_path / "c12.g6"
    path.write_text(to_graph6(cycle_graph(12)) + "\n")
    doc = analyze_json(capsys, "analyze", str(path))
    assert doc["schema"] == "squarestable/1"
    inv = doc["invariants"]
    assert inv["alpha"] == 6 and inv["alpha_sq"] == 4 and inv["idom"] == 4
    assert not doc["classification"]["square_stable"]


def test_analyze_fixture_edges(capsys, tmp_path):
    path = tmp_path / "k3e.edges"
    path.write_text(format_edge_list(named_fixture("k3_plus_e")))
    doc = analyze_json(capsys, "analyze", str(path), "--format", "edges")
    assert doc["classification"]["alpha_plus_class"] == "PLUS_1"
    assert doc["classification"]["koenig_egervary"] is True


def test_analyze_internal_check_failure_is_a_violation(capsys, tmp_path, monkeypatch):
    # exit 1 with the message, not a traceback
    def planted(g, cap=None):
        raise InternalCheckError("planted")

    monkeypatch.setattr(cli, "classify", planted)
    path = tmp_path / "g.g6"
    path.write_text("Dhc\n")
    assert run_cli(capsys, "analyze", str(path)) == (1, "", "error: planted\n")


def test_analyze_empty_input_is_an_error(capsys, tmp_path):
    path = tmp_path / "empty"
    path.write_text("")
    assert run_cli(capsys, "analyze", str(path)) == (2, "", "error: empty input\n")
    # comments and blank lines alone are empty too
    path.write_text("# nothing\n\n")
    assert run_cli(capsys, "analyze", str(path)) == (2, "", "error: empty input\n")


def test_analyze_unreadable_input_is_an_error(capsys, tmp_path):
    missing = tmp_path / "missing.g6"
    assert run_cli(capsys, "analyze", str(missing)) == (
        2, "", f"error: cannot read {missing}: [Errno 2] No such file or directory: "
               f"'{missing}'\n")


def test_analyze_bad_graph6_is_an_error(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("C\x01\n")
    assert run_cli(capsys, "analyze", str(path)) == (
        2, "", "error: line 1: invalid character in graph6 string\n")


def test_graph6_input_names_the_bad_line(capsys, tmp_path):
    path = tmp_path / "bad_second.g6"
    path.write_text("Dhc\nD??x\n")
    message = "line 2: graph6 payload has 3 sextets, expected 2 for n=5"
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and message in err
    assert json.loads(out)["graph"]["graph6"] == "Dhc"  # line 1 is still reported
    code, out, err = run_cli(capsys, "canonical", str(path))
    assert code == 2 and message in err
    assert out.splitlines() == [canonical_graph6(parse_graph6("Dhc"))]


def test_analyze_cap_refusal_names_the_cap(capsys, tmp_path):
    path = tmp_path / "c12.g6"
    path.write_text(to_graph6(cycle_graph(12)) + "\n")
    code, out, err = run_cli(capsys, "analyze", str(path), "--cap-n", "5")
    assert code == 3 and "cap" in err


def test_analyze_refuses_before_any_search(capsys, tmp_path):
    # n = 48 is over the solver cap given: the refusal comes before alpha,
    # theta and gamma are searched for
    g = corona_with_k1(random_connected_graph(24, 2))
    path = tmp_path / "corona.g6"
    path.write_text(to_graph6(g) + "\n")
    helpers = (graphs.square, solvers._maximum, solvers._least_maximum_stable_set, solvers._omega,
               solvers._gamma, solvers._idom, solvers._cover)
    misses = [h.cache_info().misses for h in helpers]
    code, out, err = run_cli(capsys, "analyze", "--cap-n", "47", str(path))
    assert (code, out, err) == (3, "", "error: exact solver cap exceeded (48 > 47)\n")
    assert [h.cache_info().misses for h in helpers] == misses


def test_analyze_refuses_a_large_edge_list_at_once(capsys, tmp_path):
    # a graph far over the solver cap is built and refused without a search,
    # in time linear in the vertex count
    path = tmp_path / "large.edges"
    for n in (5000, 1_000_000):
        path.write_text(f"n {n}\n0 1\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", "--format", "edges", str(path))
        assert time.perf_counter() - start < 10, n
        assert (code, out, err) == (3, "", f"error: exact solver cap exceeded ({n} > 64)\n")


def test_searches_deeper_than_the_recursion_limit_exit_3():
    # a refusal, not a traceback; the lines answered before it stay printed.
    # verify refuses only with --strict; without, it skips the graph
    src = Path(cli.__file__).resolve().parents[1]
    dhc = canonical_graph6(parse_graph6("Dhc")) + "\n"
    edgeless, cycle = to_graph6(Graph(1200, (0,) * 1200)), to_graph6(cycle_graph(2100))
    for argv, text, out in ((["canonical"], f"Dhc\n{edgeless}\n", dhc),
                            (["canonical"], f"Dhc\n{cycle}\n", dhc),
                            (["analyze"], cycle + "\n", ""),
                            (["verify", "--family", "cycle", "2100", "--suite", "chain",
                              "--strict"], "", "")):
        proc = subprocess.run(
            [sys.executable, "-m", "squarestable", *argv, "--cap-n", "3000"], input=text,
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert (proc.returncode, proc.stdout) == (3, out), argv
        assert re.fullmatch(r"error: search deeper than the recursion limit \(\d+\)\n",
                            proc.stderr), proc.stderr


def test_analyze_answers_above_the_enumeration_cap(capsys, tmp_path):
    # The enumeration cap guards only --omega: every number and class of a
    # graph over it is answered up to the solver cap.
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(cycle_graph(30)) + "\n")
    doc = analyze_json(capsys, "analyze", str(path))
    assert doc["invariants"] == {"n": 30, "alpha": 15, "alpha_sq": 10, "theta": 15,
                                 "theta_sq": 10, "gamma": 10, "idom": 10, "mu": 15}
    assert not doc["classification"]["well_covered"]
    assert not doc["classification"]["omega_matroid"]
    code, out, err = run_cli(capsys, "analyze", "--omega", str(path))
    assert (code, out, err) == (3, "", "error: stable-set enumeration cap exceeded (30 > 24)\n")

    path.write_text(to_graph6(Graph.from_edges(20, [])) + "\n")
    cls = analyze_json(capsys, "analyze", str(path))["classification"]
    assert cls["witnesses"]["well_covered_failure"] == {"isolated_vertex": 0}
    assert cls["omega_matroid"] and cls["square_stable"]

    for g in [cycle_graph(60), random_tree(40, 2)] + [random_connected_graph(40, s)
                                                        for s in range(4)]:
        path.write_text(to_graph6(g) + "\n")
        assert analyze_json(capsys, "analyze", str(path))["invariants"]["n"] == g.n


def test_analyze_answers_on_coronas(capsys, tmp_path):
    # The graphs of the paper's Koenig-Egervary theorem: a perfect matching
    # of pendant edges, alpha = mu = n/2 and a square-stable graph.  Their
    # alpha searches end by folding pendant vertices.
    path = tmp_path / "corona.g6"
    hosts = [cycle_graph(30)] + [random_connected_graph(24, s) for s in range(4)]
    for h in hosts:
        g = corona_with_k1(h)
        path.write_text(to_graph6(g) + "\n")
        doc = analyze_json(capsys, "analyze", str(path))
        inv, cls = doc["invariants"], doc["classification"]
        assert inv["alpha"] == inv["mu"] == h.n and inv["n"] == 2 * h.n
        assert cls["square_stable"] and cls["koenig_egervary"] and cls["very_well_covered"]
        assert cls["witnesses"]["pendant_perfect_matching"] == [[v, v + h.n] for v in range(h.n)]
        assert cls["alpha_plus_class"] == "PLUS_0" and cls["witnesses"]["omega_core"] == []


def test_analyze_env_cap(capsys, tmp_path, monkeypatch):
    # the solver cap comes from --cap-n alone: the environment is not read
    path = tmp_path / "c12.g6"
    path.write_text(to_graph6(cycle_graph(12)) + "\n")
    plain = run_cli(capsys, "analyze", str(path))
    assert plain[0] == 0
    monkeypatch.setenv("SQSTABLE_CAP_N", "5")
    assert run_cli(capsys, "analyze", str(path)) == plain
    assert run_cli(capsys, "analyze", "--cap-n", "5", str(path)) == (
        3, "", "error: exact solver cap exceeded (12 > 5)\n")


def test_every_searching_command_takes_cap_n():
    parser = cli._build_parser()
    for command in ("analyze", "verify", "canonical"):
        assert parser.parse_args([command, "--cap-n", "7"]).cap_n == 7, command


def test_negative_caps_are_input_errors(capsys, tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(to_graph6(cycle_graph(5)) + "\n")
    family = ("verify", "--family", "cycle", "5")
    cases = [
        (("analyze", "--cap-n", "-1", str(path)), "--cap-n must be at least 0, got -1"),
        (("analyze", "--omega", "--cap-omega", "-2", str(path)),
         "--cap-omega must be at least 0, got -2"),
        (family + ("--cap-n", "-3"), "--cap-n must be at least 0, got -3"),
        (family + ("--cap-omega", "-1"), "--cap-omega must be at least 0, got -1"),
        (("canonical", "--cap-n", "-1", str(path)), "--cap-n must be at least 0, got -1"),
    ]
    for argv, message in cases:
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    # a cap of 0 refuses every vertex
    assert run_cli(capsys, "analyze", "--cap-n", "0", str(path)) == (
        3, "", "error: exact solver cap exceeded (5 > 0)\n")


def test_analyze_omega_and_square(capsys, tmp_path):
    path = tmp_path / "c4.g6"
    path.write_text(to_graph6(cycle_graph(4)) + "\n")
    doc = analyze_json(capsys, "analyze", str(path), "--omega", "--square")
    assert doc["omega"]["sets"] == [[0, 2], [1, 3]]
    assert doc["square"]["invariants"]["alpha"] == 1


def test_analyze_multiple_graph6_lines(capsys, tmp_path):
    path = tmp_path / "two.g6"
    path.write_text(to_graph6(cycle_graph(4)) + "\n" + to_graph6(cycle_graph(5)) + "\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert out.count('"schema"') == 2


def test_analyze_text_mode(capsys, tmp_path):
    path = tmp_path / "c12.g6"
    path.write_text(to_graph6(cycle_graph(12)) + "\n")
    code, out, err = run_cli(capsys, "analyze", str(path), "--text")
    assert code == 0
    assert "alpha" in out and "square_stable" in out


def test_analyze_round_trips_emitted_graph6(capsys, tmp_path):
    g = named_fixture("fig_upm_not_pendant")
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(g) + "\n")
    doc = analyze_json(capsys, "analyze", str(path))
    assert parse_graph6(doc["graph"]["graph6"]) == g


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_fixtures(capsys):
    code, out, err = run_cli(capsys, "verify", "--fixtures")
    assert code == 0
    doc = json.loads(out)
    assert doc["corpus"]["mode"] == "fixtures"
    assert doc["violations_total"] == 0
    equiv = next(s for s in doc["suites"] if s["suite_name"] == "equivalences")
    assert equiv["graphs_checked"] == 5


def test_verify_family_cycle5_equivalences(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--family", "cycle", "5", "--suite", "equivalences")
    assert code == 0
    doc = json.loads(out)
    detail = doc["suites"][0]["details"][0]
    assert detail["agree"] is True
    assert all(v is False for v in detail["statements"].values())


def test_verify_exhaustive_small(capsys):
    code, out, err = run_cli(capsys, "verify", "--exhaustive", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations_total"] == 0
    assert doc["graphs_total"] == 10  # connected graphs with up to 4 vertices


def test_verify_sample(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--sample", "6", "--seed", "3", "--max-n", "8")
    assert code == 0
    assert json.loads(out)["corpus"]["seed"] == 3


def test_verify_sample_requires_seed(capsys):
    code, out, err = run_cli(capsys, "verify", "--sample", "6")
    assert code == 2


def test_verify_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--fixtures", "--suite", "bogus")
    assert code == 2


def test_verify_suite_list_naming_no_suite_is_an_error(capsys):
    assert run_cli(capsys, "verify", "--fixtures", "--suite", ",") == (
        2, "", "error: --suite names no suite: ','\n")


def test_verify_suite_named_twice_is_an_error(capsys):
    assert run_cli(capsys, "verify", "--fixtures", "--suite", "chain,chain") == (
        2, "", "error: suite 'chain' named twice\n")


def test_verify_negative_sample_is_an_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--sample", "-3", "--seed", "1")
    assert code == 2 and "--sample must be at least 1" in err and out == ""


def test_verify_sample_max_n_below_one_is_an_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--sample", "5", "--seed", "1", "--max-n", "0")
    assert code == 2 and "--max-n must be at least 1" in err and out == ""


def test_verify_exhaustive_below_one_is_an_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--exhaustive", "0")
    assert code == 2 and "--exhaustive must be at least 1" in err and out == ""


def test_verify_exhaustive_beyond_its_cap_points_to_sample(capsys):
    code, out, err = run_cli(capsys, "verify", "--exhaustive", "10")
    assert code == 2 and out == ""
    assert "--exhaustive is capped at 9 vertices" in err and "use --sample" in err


# verify options, beyond the corpus flag, and the error that refuses them:
# an option the chosen corpus does not read is refused, not dropped
CORPUS_OPTION_ERRORS = [
    (["--sample", "5", "--seed", "1", "--corona-base", "cycle", "5"],
     "--corona-base is used only by --family, not by --sample"),
    (["--exhaustive", "3", "--seed", "3"],
     "--seed is used only by --family and --sample, not by --exhaustive"),
    (["--family", "cycle", "5", "--max-n", "3"],
     "--max-n is used only by --sample, not by --family"),
    (["--exhaustive", "3", "--max-n", "12"],
     "--max-n is used only by --sample, not by --exhaustive"),
    (["--fixtures", "--seed", "0"],
     "--seed is used only by --family and --sample, not by --fixtures"),
    (["--fixtures", "--include-disconnected"],
     "--include-disconnected is used only by --exhaustive and --sample, not by --fixtures"),
    (["--family", "cycle", "5", "--include-disconnected"],
     "--include-disconnected is used only by --exhaustive and --sample, not by --family"),
    ([], "no corpus selected: use --exhaustive, --fixtures, --family or --sample"),
]


def test_verify_refuses_options_its_corpus_does_not_read(capsys):
    for options, message in CORPUS_OPTION_ERRORS:
        assert run_cli(capsys, "verify", *options, "--suite", "chain") == (
            2, "", f"error: {message}\n"), options
    # the options each corpus reads are still taken, and --max-n defaults to
    # 12 for --sample
    code, out, err = run_cli(capsys, "verify", "--sample", "3", "--seed", "2",
                             "--include-disconnected", "--suite", "chain")
    assert (code, err) == (0, "")
    assert json.loads(out)["corpus"] == {"mode": "sample", "count": 3, "max_n": 12, "seed": 2}
    code, out, err = run_cli(capsys, "verify", "--exhaustive", "3",
                             "--include-disconnected", "--suite", "chain")
    assert (code, err) == (0, "")
    assert json.loads(out)["corpus"]["connected_only"] is False


def test_verify_reports_violations_with_exit_1(capsys, monkeypatch):
    from squarestable.verify import RunReport, SuiteResult

    fake = RunReport(
        [SuiteResult("chain", 1, 0, [{"graph_id": "g", "clause": "c", "witness": ""}])],
        1,
    )
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
    code, out, err = run_cli(capsys, "verify", "--fixtures")
    assert code == 1
    assert json.loads(out)["violations_total"] == 1


def test_verify_strict_cap_exit_3(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--family", "cycle", "26", "--strict",
        "--suite", "matroid")
    assert code == 3 and "cap" in err
    # the equivalences and implications read a refused statement as null, so
    # strict refuses a graph above the solver cap before its suites
    for suite in ("equivalences", "implications"):
        assert run_cli(capsys, "verify", "--family", "path", "10", "--cap-n", "5",
                       "--strict", "--suite", suite) == (
            3, "", "error: exact solver cap exceeded (10 > 5)\n")


def test_verify_corona_family(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--family", "corona", "--corona-base", "cycle", "5",
        "--suite", "equivalences")
    assert code == 0
    detail = json.loads(out)["suites"][0]["details"][0]
    assert detail["graph_id"] == "corona(cycle 5)"
    assert all(v is True for v in detail["statements"].values())
    code, out, err = run_cli(capsys, "verify", "--family", "corona")
    assert code == 2 and "--family corona requires --corona-base FAMILY PARAMS..." in err


def test_verify_text_table(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "verify", "--fixtures", "--text")
    assert code == 0
    assert "suite" in out and "violations" in out and "equivalences" in out

    # each violation is listed under the table, in the report's order
    def planted(g, cap=None):
        raise InternalCheckError("planted")

    monkeypatch.setattr(verify, "invariant_chain", planted)
    code, out, err = run_cli(capsys, "verify", "--fixtures", "--text", "--suite", "chain")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("VIOLATION")] == [
        f"VIOLATION chain: {{'graph_id': '{gid}', 'clause': 'inequality_chain', "
        f"'witness': 'planted'}}"
        for gid in ("diamond", "k3_plus_e", "fig_ss_not_vwc", "fig_bip_vwc_not_ss",
                    "fig_upm_not_pendant")]


def test_verify_determinism(capsys):
    code1, out1, err1 = run_cli(capsys, "verify", "--exhaustive", "4")
    code2, out2, err2 = run_cli(capsys, "verify", "--exhaustive", "4")
    assert (code1, out1) == (code2, out2)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_cycle(capsys):
    code, out, err = run_cli(capsys, "generate", "cycle", "12")
    assert code == 0
    assert parse_graph6(out.strip()) == cycle_graph(12)


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "squarestable", "generate", "cycle", "5"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == to_graph6(cycle_graph(5)) + "\n"


def test_closed_stdout_exits_141_quietly():
    # The read end of the pipe is closed before the child starts, so its
    # first write to stdout fails whenever it comes: at the final flush of a
    # short report, or inside a print for a report longer than the buffer.
    src = Path(cli.__file__).resolve().parents[1]
    for argv in (["verify", "--sample", "5", "--seed", "1", "--suite", "chain"],
                 ["verify", "--exhaustive", "5", "--details", "--suite", "chain"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "squarestable", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=str(src)),
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, ""), argv


def test_one_parser_serves_every_command_of_a_process(capsys, tmp_path, monkeypatch):
    # The parser is built once per process; each command line must still see
    # only its own options and print what a fresh process prints.  COLUMNS
    # fixes the width argparse wraps its usage message to, in both.
    monkeypatch.setenv("COLUMNS", "80")
    src = Path(cli.__file__).resolve().parents[1]
    path = tmp_path / "c5.g6"
    path.write_text(to_graph6(cycle_graph(5)) + "\n")
    runs = [
        ("analyze", "--omega", "--square", str(path)),
        ("analyze", str(path)),
        ("analyze", "--no-such-flag", str(path)),
        ("verify", "--fixtures"),
    ]
    results = []
    for argv in runs:
        result = run_cli(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "squarestable", *argv],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert result == (proc.returncode, proc.stdout, proc.stderr), argv
        results.append(result)
    assert {"omega", "square"} <= json.loads(results[0][1]).keys()
    plain = json.loads(results[1][1])
    assert "omega" not in plain and "square" not in plain
    assert results[2][0] == 2 and "--no-such-flag" in results[2][2]
    assert results[3][0] == 0


def test_generate_named_and_corona(capsys):
    code, out, err = run_cli(capsys, "generate", "named", "diamond")
    assert code == 0
    g = parse_graph6(out.strip())
    assert (g.n, g.edge_count) == (4, 5)

    code, out, err = run_cli(capsys, "generate", "corona", "--base", "cycle", "5")
    assert code == 0
    assert parse_graph6(out.strip()).n == 10


def test_generate_edges_format(capsys):
    code, out, err = run_cli(capsys, "generate", "path", "4", "--format", "edges")
    assert code == 0
    assert parse_edge_list(out).edges() == [(0, 1), (1, 2), (2, 3)]


def test_generate_random_tree_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "generate", "random-tree", "10", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "generate", "random-tree", "10", "--seed", "7")
    assert code1 == code2 == 0 and out1 == out2


def test_generate_bad_spec(capsys):
    code, out, err = run_cli(capsys, "generate", "heptagon", "7")
    assert code == 2
    code, out, err = run_cli(capsys, "generate", "cycle", "two")
    assert code == 2
    code, out, err = run_cli(capsys, "generate", "cycle", "2")
    assert code == 2
    code, out, err = run_cli(capsys, "generate", "corona")
    assert code == 2 and "error: corona requires --base FAMILY PARAMS..." in err


# family, extra generate options, graph6 of the graph
FAMILY_SPECS = [
    (["path", "5"], [], "DhC"),
    (["cycle", "6"], [], "EhEG"),
    (["complete", "4"], [], "C~"),
    (["star", "3"], [], "Cs"),
    (["complete-bipartite", "2", "3"], [], "D]o"),
    (["random-tree", "9"], ["--seed", "4"], "HKS?HD?"),
    (["random-connected", "10"], ["--seed", "2"], "IsHa?O?AG"),
    (["named", "diamond"], [], "Cn"),
    (["corona"], ["--base", "cycle", "5"], "IheA@?OA?"),
]

# family, extra generate options, the error generate reports
FAMILY_ERRORS = [
    (["heptagon", "7"], [], "unknown family 'heptagon'"),
    (["cycle", "two"], [], "non-integer family parameter in ['two']"),
    (["complete-bipartite", "3"], [],
     "family 'complete_bipartite' expects 2 integer parameter(s)"),
    (["random-tree", "5"], [], "family 'random_tree' requires --seed"),
    (["random-connected", "5", "x"], [], "family 'random_connected' requires --seed"),
    (["named"], [], "named family expects exactly one fixture name"),
    (["named", "diamond", "k3_plus_e"], [], "named family expects exactly one fixture name"),
    (["corona"], ["--base", "random-tree", "4"], "family 'random_tree' requires --seed"),
    (["corona"], [], "corona requires --base FAMILY PARAMS..."),
    (["corona"], ["--base", "corona"], "corona requires --base FAMILY PARAMS..."),
    # what a family does not use is refused, not dropped
    (["corona", "7"], ["--base", "cycle", "5"], "family 'corona' takes no parameter, got ['7']"),
    (["cycle", "5"], ["--base", "path", "3"], "--base is used only by corona, not by family 'cycle'"),
    (["path", "3"], ["--seed", "5"], "family 'path' takes no --seed"),
    (["named", "diamond"], ["--seed", "5"], "named family takes no --seed"),
    (["corona"], ["--base", "cycle", "5", "--seed", "5"], "family 'cycle' takes no --seed"),
]


def _verify_argv(family, options):
    # generate's --base is verify's --corona-base
    options = ["--corona-base" if o == "--base" else o for o in options]
    return ["verify", "--family", *family, *options, "--suite", "chain"]


def test_family_specs_parse_to_their_graphs_or_errors(capsys):
    for family, options, graph6 in FAMILY_SPECS:
        assert run_cli(capsys, "generate", *family, *options) == (0, graph6 + "\n", ""), family
        code, out, err = run_cli(capsys, *_verify_argv(family, options))
        gid = "corona(cycle 5)" if family == ["corona"] else " ".join(family)
        assert (code, err) == (0, ""), family
        assert json.loads(out)["corpus"] == {"mode": "family", "spec": gid}
    for family, options, message in FAMILY_ERRORS:
        assert run_cli(capsys, "generate", *family, *options) == (
            2, "", f"error: {message}\n"), family
        message = message.replace("corona requires --base",
                                  "--family corona requires --corona-base")
        message = message.replace("--base is", "--corona-base is")
        assert run_cli(capsys, *_verify_argv(family, options)) == (
            2, "", f"error: {message}\n"), family


def test_canonical_command(capsys, tmp_path):
    from oracles import permuted

    g = cycle_graph(6)
    h = permuted(g, (3, 1, 5, 0, 4, 2))
    path = tmp_path / "in.g6"
    path.write_text(to_graph6(g) + "\n" + to_graph6(h) + "\n")
    code, out, err = run_cli(capsys, "canonical", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == lines[1]


def test_canonical_refuses_graphs_over_the_solver_cap(capsys, tmp_path):
    # the search recurses once per vertex; the lines before a refused one
    # are still answered
    path = tmp_path / "in.g6"
    path.write_text("Dhc\n" + to_graph6(Graph(1200, (0,) * 1200)) + "\n")
    assert run_cli(capsys, "canonical", str(path)) == (
        3, canonical_graph6(parse_graph6("Dhc")) + "\n",
        "error: exact solver cap exceeded (1200 > 64)\n")
    edgeless = to_graph6(Graph(64, (0,) * 64))
    path.write_text(edgeless + "\n")
    assert run_cli(capsys, "canonical", str(path)) == (0, edgeless + "\n", "")
    assert run_cli(capsys, "canonical", "--cap-n", "63", str(path)) == (
        3, "", "error: exact solver cap exceeded (64 > 63)\n")


def test_stdin_pipeline(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(cycle_graph(4)) + "\n"))
    code, out, err = run_cli(capsys, "analyze", "-")
    assert code == 0
    assert json.loads(out)["invariants"]["alpha"] == 2


# ---------------------------------------------------------------------------
# pinned reports
# ---------------------------------------------------------------------------


def test_verify_reports_are_pinned(capsys):
    import hashlib

    # Digests of the reports as first released (CPython 3.11).  The first
    # three corpora do not depend on canonical labelling, so only a change in
    # what the suites check or how they report it can move them; the
    # 20-vertex sample pins the families of maximum stable sets and the
    # induced subgraphs of graphs with 11 to 20 vertices.  The exhaustive one
    # also pins the enumerated graphs, their labelling and their IDs,
    # disconnected ones included.
    pinned = {
        ("verify", "--fixtures"):
            "a53e5848b4ad066fa69ec2bd0817aee7039573ec8030edbcb8633e4971265914",
        ("verify", "--sample", "200", "--max-n", "10", "--seed", "3", "--details"):
            "b5a84f060b9ab8d270e07e4919018b70abc86be6f947b10d5c65e517894d42c6",
        ("verify", "--sample", "100", "--max-n", "20", "--seed", "7", "--details"):
            "5e4eef4a10c0e9dfc1c29ce6751a71d0605fe7f21b897e14181fc195d37c4f85",
        ("verify", "--exhaustive", "6", "--include-disconnected", "--details"):
            "8236b66b5d8c186b8653138e16d0388cc78a3851432c73fe9faadaf2bbd78c83",
    }
    for argv, digest in pinned.items():
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_capped_verify_report_is_pinned(capsys):
    import hashlib

    # Many values of this corpus are refused by one cap or the other, so the
    # digest pins which predicates read which cap, and which refusals a
    # statement or clause turns into an unevaluated entry.  Graphs of 9
    # vertices go through the chain suite and the well-coveredness clauses,
    # which read only the solver cap, but not through the matroid suite or
    # the statements over the maximum stable sets.
    argv = ("verify", "--sample", "200", "--max-n", "12", "--seed", "4",
            "--cap-n", "9", "--cap-omega", "8", "--details")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4a45b5ca625603477e08172007352aca15d1fa7be1ed09797376579bb5fcc3e8")


def test_analyze_report_is_pinned(capsys, tmp_path):
    import hashlib

    # Every invariant, class and witness of nine seeded graphs and of their
    # squares, and the family of maximum stable sets of each graph.
    path = tmp_path / "seeded.g6"
    path.write_text("".join(
        to_graph6(random_connected_graph(n, s)) + "\n" for n in (12, 18, 24) for s in range(3)))
    code, out, err = run_cli(capsys, "analyze", "--omega", "--square", str(path))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d6a9240d1ce6837d3a6084d5481a762826dce60dfb2664ac61efc7775fe5e31a")


def test_larger_analyze_report_is_pinned(capsys, tmp_path):
    import hashlib

    # Every invariant, class and witness of six seeded graphs of 30 and 40
    # vertices and of their squares, where the core and edge-deletion
    # searches have the most room to differ.
    path = tmp_path / "larger.g6"
    path.write_text("".join(
        to_graph6(random_connected_graph(n, s)) + "\n" for n in (30, 40) for s in range(3)))
    code, out, err = run_cli(capsys, "analyze", "--square", str(path))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "905bfb6c60e6664d46e5eb7240ff8533e9fbe5d7cff1beb8c2beb5592e791c83")


def test_plain_and_text_analyze_reports_are_pinned(capsys, tmp_path):
    import hashlib

    # Random trees and random connected graphs, which report the least
    # maximal stable set below alpha as their well-coveredness failure, and
    # coronas of cycles, which are well-covered.
    graphs = ([random_tree(n, s) for n in (6, 12, 18, 24) for s in range(3)]
              + [corona_with_k1(cycle_graph(k)) for k in (3, 5, 8, 12)]
              + [random_connected_graph(n, s) for n in (8, 14, 20, 24) for s in range(3)])
    path = tmp_path / "mixed.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    # --cap-omega guards only --omega, so without it the report is unchanged
    plain = "2ab5ea31cc875fecb31a9ddfae13043c9cdc4ea0a4db2ca62a567671a16ce4fd"
    pinned = {
        (): plain,
        ("--cap-omega", "1"): plain,
        ("--text",): "5d9e9c08d90fcbf6fba69651ec14f78f7fcfb9e213cd330b64759fec93a3f411",
    }
    for flags, digest in pinned.items():
        code, out, err = run_cli(capsys, "analyze", *flags, str(path))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


def test_text_refuses_the_flags_whose_output_it_drops(capsys, tmp_path):
    import hashlib

    # --text prints the summary only, so a flag that asks for more is refused
    # before any search: here --omega would exceed the enumeration cap of 1
    path = tmp_path / "c5.g6"
    path.write_text(to_graph6(cycle_graph(5)) + "\n")
    for argv, flag in ((("analyze", "--text", "--square", "--omega"), "--square"),
                       (("analyze", "--text", "--omega", "--cap-omega", "1"), "--omega"),
                       (("verify", "--fixtures", "--text", "--details"), "--details")):
        args = (*argv, str(path)) if argv[0] == "analyze" else argv
        assert run_cli(capsys, *args) == (
            2, "", f"error: --text prints the summary only; drop {flag}\n"), argv
    code, out, err = run_cli(capsys, "verify", "--fixtures", "--text")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a83359b1be3598b64fc81e399acc8dea41ff0fd3d10b9ab87ca3c10b69f66606")


def test_reports_do_not_depend_on_the_hash_seed():
    src = Path(cli.__file__).resolve().parents[1]
    graphs = "".join(to_graph6(g) + "\n" for g in (
        random_connected_graph(12, 0), random_tree(10, 1), corona_with_k1(cycle_graph(5))))
    for argv, text in ((["verify", "--exhaustive", "6", "--include-disconnected", "--details"], ""),
                       (["analyze", "--square", "--omega"], graphs)):
        outs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "squarestable", *argv], input=text,
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv
