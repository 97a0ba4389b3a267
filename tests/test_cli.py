import json
import os
import subprocess
import sys
from pathlib import Path

from squarestable import cli, graphs, solvers
from squarestable.generate import (
    canonical_graph6,
    corona_with_k1,
    cycle_graph,
    named_fixture,
    random_connected_graph,
    random_tree,
)
from squarestable.graphs import format_edge_list, parse_edge_list, parse_graph6, to_graph6


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


def test_analyze_empty_input_is_an_error(capsys, tmp_path):
    path = tmp_path / "empty"
    path.write_text("")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and "empty" in err


def test_analyze_bad_graph6_is_an_error(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("C\x01\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2


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
    # n = 48 is under the solver cap and over the enumeration cap, which
    # independent domination keeps: the refusal comes before alpha, theta and
    # gamma are searched for
    g = corona_with_k1(random_connected_graph(24, 2))
    path = tmp_path / "corona.g6"
    path.write_text(to_graph6(g) + "\n")
    helpers = (graphs._square, solvers._alpha, solvers._least_maximum_stable_set, solvers._omega,
               solvers._maximal_stable_sets, solvers._gamma, solvers._idom, solvers._cover)
    misses = [h.cache_info().misses for h in helpers]
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out, err) == (3, "", "error: stable-set enumeration cap exceeded (48 > 24)\n")
    assert [h.cache_info().misses for h in helpers] == misses


def test_analyze_env_cap(capsys, tmp_path, monkeypatch):
    path = tmp_path / "c12.g6"
    path.write_text(to_graph6(cycle_graph(12)) + "\n")
    monkeypatch.setenv("SQSTABLE_CAP_N", "5")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 3


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
    code, out, err = run_cli(capsys, "verify", "--fixtures", "--suite", ",")
    assert code == 2 and "--suite" in err and out == ""


def test_verify_negative_sample_is_an_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--sample", "-3", "--seed", "1")
    assert code == 2 and "--sample must be at least 1" in err and out == ""


def test_verify_sample_max_n_below_one_is_an_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--sample", "5", "--seed", "1", "--max-n", "0")
    assert code == 2 and "--max-n must be at least 1" in err and out == ""


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


def test_verify_text_table(capsys):
    code, out, err = run_cli(capsys, "verify", "--fixtures", "--text")
    assert code == 0
    assert "suite" in out and "violations" in out and "equivalences" in out


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

    # Digests of the reports as first released (CPython 3.11).  The first two
    # corpora do not depend on canonical labelling, so only a change in what
    # the suites check or how they report it can move them; the exhaustive
    # one also pins the enumerated graphs, their labelling and their IDs,
    # disconnected ones included.
    pinned = {
        ("verify", "--fixtures"):
            "a53e5848b4ad066fa69ec2bd0817aee7039573ec8030edbcb8633e4971265914",
        ("verify", "--sample", "200", "--max-n", "10", "--seed", "3", "--details"):
            "b5a84f060b9ab8d270e07e4919018b70abc86be6f947b10d5c65e517894d42c6",
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
    # statement or clause turns into an unevaluated entry.
    argv = ("verify", "--sample", "200", "--max-n", "12", "--seed", "4",
            "--cap-n", "9", "--cap-omega", "8", "--details")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7ed8cc022a1d7e7d8884935d952d3eda9d981cd892b762cc1fe2d958183c9191")


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
    pinned = {
        (): "2ab5ea31cc875fecb31a9ddfae13043c9cdc4ea0a4db2ca62a567671a16ce4fd",
        ("--text",): "5d9e9c08d90fcbf6fba69651ec14f78f7fcfb9e213cd330b64759fec93a3f411",
    }
    for flags, digest in pinned.items():
        code, out, err = run_cli(capsys, "analyze", *flags, str(path))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags
