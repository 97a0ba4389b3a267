import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from squarestable.generate import (
    complete_graph,
    corona_with_k1,
    cycle_graph,
    enumerate_corpus,
    named_fixture,
    path_graph,
    sample_corpus,
    star_graph,
)
from squarestable.graphs import (
    INFINITE,
    Graph,
    bit_indices,
    induced_subgraph,
    square,
    stable_subsets,
    to_graph6,
)
from squarestable.classify import is_koenig_egervary
from squarestable.matchings import (
    count_perfect_matchings,
    has_induced_perfect_matching,
    matching_number,
)
from squarestable.solvers import enumerate_maximum_stable_sets, invariant_chain
from squarestable.verify import (
    STATEMENT_NAMES,
    SUITE_NAMES,
    _distance3_attained,
    _has_pm,
    _induced_pm,
    _unique_pm,
    girth6_applicable,
    implication_clauses,
    run_suite,
    verify_equivalences,
    verify_girth6,
    verify_tree_theorem,
)
from oracles import oracle_alpha, oracle_distances, oracle_omega
from strategies import graphs


# ---------------------------------------------------------------------------
# the thirteen-statement engine
# ---------------------------------------------------------------------------


def test_equivalences_all_true_on_square_stable_graphs():
    for g in (path_graph(4), complete_graph(5), complete_graph(1),
              corona_with_k1(cycle_graph(5)), named_fixture("fig_ss_not_vwc"),
              named_fixture("fig_upm_not_pendant")):
        report = verify_equivalences(g)
        assert report.statements == (True,) * 13
        assert report.agree and report.failing_pair is None


def test_equivalences_all_false_on_non_square_stable_graphs():
    for g in (cycle_graph(5), cycle_graph(6), star_graph(3),
              named_fixture("k3_plus_e"), named_fixture("fig_bip_vwc_not_ss")):
        report = verify_equivalences(g)
        assert report.statements == (False,) * 13
        assert report.agree


def test_equivalences_reduce_per_component():
    # a square-stable component next to a non-square-stable one
    p4_plus_c5 = Graph.from_edges(9, path_graph(4).edges() + [
        (u + 4, v + 4) for u, v in cycle_graph(5).edges()
    ])
    report = verify_equivalences(p4_plus_c5)
    assert report.statements == (False,) * 13
    two_p4 = Graph.from_edges(8, path_graph(4).edges() + [
        (u + 4, v + 4) for u, v in path_graph(4).edges()
    ])
    assert verify_equivalences(two_p4).statements == (True,) * 13


def test_equivalence_report_shape():
    report = verify_equivalences(cycle_graph(5), graph_id="cycle5")
    d = report.as_dict()
    assert d["graph_id"] == "cycle5"
    assert set(d["statements"]) == set(STATEMENT_NAMES)
    assert d["agree"] is True


def test_equivalences_mark_unevaluated_on_cap():
    report = verify_equivalences(path_graph(6), cap_omega=5)
    assert any(v is None for v in report.statements)
    # evaluable statements still agree among themselves
    assert report.agree


def test_family_searches_are_refused_above_the_solver_cap():
    # C10 lies within the enumeration cap but above the solver cap, which
    # guards every search over Omega as well
    g = cycle_graph(10)
    report = verify_equivalences(g, cap=5, cap_omega=24)
    assert dict(zip(STATEMENT_NAMES, report.statements)) == {
        name: False if name == "simplex_partition" else None for name in STATEMENT_NAMES}
    clauses = {name: value for name, value, _ in implication_clauses(g, cap=5, cap_omega=24)}
    assert clauses["square_omega_pairwise_distance3"] is None
    assert clauses["omega_equality_iff_complete"] is None
    # no pendant perfect matching: true without reading any cap
    assert clauses["pendant_matching_forces_square_omega"] is True
    suite = run_suite([("c10", g)], ("matroid",), cap=5, cap_omega=24).suites[0]
    assert (suite.graphs_checked, suite.skipped) == (0, 1)


def assert_mask_routes_match_the_subgraph(g, d):
    # each symmetric-difference route on the mask d against its definition
    # on the subgraph G[d], built
    h, _ = induced_subgraph(g, bit_indices(d))
    assert _unique_pm(g, d) == (count_perfect_matchings(h, 2) == 1), (g, d)
    assert _has_pm(g, d) == (2 * matching_number(h) == h.n), (g, d)
    assert _induced_pm(g, d) == has_induced_perfect_matching(h), (g, d)


@given(graphs(max_n=9), st.data())
def test_mask_routes_match_the_subgraph_on_any_two_stable_sets(g, data):
    stable = list(stable_subsets(g, g.full_mask()))
    d = data.draw(st.sampled_from(stable)) ^ data.draw(st.sampled_from(stable))
    assert_mask_routes_match_the_subgraph(g, d)


def test_mask_routes_match_the_subgraph_on_omega_pairs():
    for g in list(enumerate_corpus(7)) + list(sample_corpus(200, 14, 23)):
        omega_sq = enumerate_maximum_stable_sets(square(g)).sets
        for s1 in enumerate_maximum_stable_sets(g).sets:
            for s2 in omega_sq:
                assert_mask_routes_match_the_subgraph(g, sum(1 << v for v in s1 ^ s2))


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------


def test_chain_values():
    assert invariant_chain(cycle_graph(12)).chain() == (4, 4, 4, 4, 6, 6)
    assert invariant_chain(cycle_graph(6)).chain() == (2, 2, 2, 2, 3, 3)
    assert invariant_chain(complete_graph(4)).chain() == (1,) * 6


# ---------------------------------------------------------------------------
# implications
# ---------------------------------------------------------------------------


def test_implications_hold_on_named_graphs():
    for g in (path_graph(4), cycle_graph(5), cycle_graph(6), complete_graph(1),
              named_fixture("diamond"), named_fixture("fig_bip_vwc_not_ss"),
              corona_with_k1(cycle_graph(5))):
        for name, value, _ in implication_clauses(g):
            assert value is not False, name


def test_implication_clause_details():
    clauses = dict(
        (name, value) for name, value, _ in implication_clauses(corona_with_k1(cycle_graph(5)))
    )
    assert clauses["pendant_matching_forces_square_omega"] is True
    assert clauses["ke_pendant_characterisation"] is True
    # diamond is not square-stable: the square-stable implications hold vacuously
    clauses = dict((n, v) for n, v, _ in implication_clauses(named_fixture("diamond")))
    assert clauses["square_stable_not_alpha_minus"] is True


def _distance3_attained_by_definition(g: Graph):
    # Every member of every maximum stable set of the square has another
    # member at distance exactly 3; None unless g is connected, not complete
    # and square-stable.  The square, the sets and the distances come from
    # Floyd-Warshall and subset scans.
    n, d = g.n, oracle_distances(g)
    sq = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if d[u][v] <= 2])
    if (any(INFINITE in row for row in d) or g.edge_count == n * (n - 1) // 2
            or oracle_alpha(g) != oracle_alpha(sq)):
        return None
    return all(any(d[a][b] == 3 for b in s if b != a) for s in oracle_omega(sq) for a in s)


def test_distance3_clause_matches_its_definition():
    seen = set()
    for g in list(enumerate_corpus(7)) + list(sample_corpus(200, 12, 3)):
        value = _distance3_attained(g, None, None)
        assert value == _distance3_attained_by_definition(g), g
        seen.add(value)
    assert seen == {None, True}


def test_fig6_square_loses_koenig_egervary():
    g = named_fixture("fig_bip_vwc_not_ss")
    assert is_koenig_egervary(g)
    assert not is_koenig_egervary(square(g))


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def test_tree_theorem_p4():
    report = verify_tree_theorem(path_graph(4))
    assert report.statements == (True, True, True, True)
    assert report.agree
    assert report.recursion_edge == (1, 2)


def test_tree_theorem_negative_cases():
    assert verify_tree_theorem(path_graph(6)).statements == (False,) * 4
    assert verify_tree_theorem(star_graph(3)).statements == (False,) * 4
    assert verify_tree_theorem(complete_graph(2)).agree


def test_tree_theorem_rejects_bad_input():
    with pytest.raises(ValueError, match="^input must be a tree$"):
        verify_tree_theorem(cycle_graph(4))
    with pytest.raises(ValueError, match="^tree must have order at least 2$"):
        verify_tree_theorem(complete_graph(1))


def test_tree_recursion_edge_on_larger_tree():
    # two stars joined at their centres: a well-covered "double broom"
    t = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)])
    if verify_tree_theorem(t).statements[0]:
        assert verify_tree_theorem(t).recursion_ok


# ---------------------------------------------------------------------------
# girth >= 6
# ---------------------------------------------------------------------------


def test_girth6_skips():
    assert verify_girth6(cycle_graph(7)) is None  # the excluded 7-cycle
    assert verify_girth6(complete_graph(1)) is None
    assert verify_girth6(cycle_graph(5)) is None  # girth too small
    assert not girth6_applicable(Graph.from_edges(2, []))  # disconnected


def test_girth6_statements():
    report = verify_girth6(cycle_graph(6))
    assert report is not None
    assert report.statements == (False,) * 5 and report.agree

    report = verify_girth6(corona_with_k1(path_graph(3)))
    assert report.statements == (True,) * 5 and report.agree

    report = verify_girth6(path_graph(3))
    assert report.statements == (False,) * 5 and report.agree

    report = verify_girth6(complete_graph(2))
    assert report.statements == (True,) * 5 and report.agree


def test_girth6_on_seeded_trees_and_sparse_graphs():
    rng = random.Random(31337)
    from squarestable.generate import random_tree

    for i in range(40):
        t = random_tree(rng.randint(2, 11), seed=rng.randrange(10**6))
        report = verify_girth6(t)
        assert report is not None and report.agree


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def test_run_suite_on_fixtures():
    items = [(name, named_fixture(name)) for name in
             ("k3_plus_e", "diamond", "fig_ss_not_vwc",
              "fig_upm_not_pendant", "fig_bip_vwc_not_ss")]
    report = run_suite(items, SUITE_NAMES, keep_details=True)
    assert report.graphs_total == 5
    assert report.violations_total == 0
    equiv = next(s for s in report.suites if s.suite_name == "equivalences")
    assert equiv.graphs_checked == 5
    assert len(equiv.details) == 5


def test_run_suite_empty_corpus():
    report = run_suite([], ("chain",))
    assert report.graphs_total == 0 and report.violations_total == 0


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite([], ("nonesuch",))


def test_run_suite_rejects_a_suite_named_twice():
    # each name would get its own row of the report, and violations_total
    # would count the suite's violations once per row
    with pytest.raises(ValueError, match="suite 'chain' named twice"):
        run_suite([("k2", complete_graph(2))], ("chain", "tree", "chain"))


def test_run_suite_deterministic():
    items = [(to_graph6(g), g) for g in sample_corpus(15, 8, seed=5)]
    a = run_suite(items, SUITE_NAMES).as_dict(include_details=True)
    b = run_suite(items, SUITE_NAMES).as_dict(include_details=True)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_suite_strict_cap():
    from squarestable.errors import CapExceededError

    items = [("p6", path_graph(6))]
    report = run_suite(items, ("equivalences",), cap_omega=5)
    assert report.violations_total == 0  # unevaluated, not violated
    with pytest.raises(CapExceededError):
        run_suite(items, ("matroid",), cap_omega=5, strict=True)


def test_run_suite_skips_a_search_deeper_than_the_recursion_limit():
    items = [("c2100", cycle_graph(2100)), ("p4", path_graph(4))]
    report = run_suite(items, ("chain",), cap=3000)
    chain = report.suites[0]
    assert (chain.graphs_checked, chain.skipped, chain.violations) == (1, 1, [])
    with pytest.raises(RecursionError):
        run_suite(items, ("chain",), cap=3000, strict=True)


def test_run_suite_random_connected_sample_is_clean():
    items = [(to_graph6(g), g) for g in sample_corpus(40, 10, seed=97)]
    report = run_suite(items, SUITE_NAMES)
    assert report.violations_total == 0


def test_run_suite_records_violations(monkeypatch, capsys):
    from squarestable import cli, verify
    from squarestable.errors import InternalCheckError

    def broken(*args, **kwargs):
        raise InternalCheckError("routes disagree")

    def equivalences(g, cap=None, cap_omega=None, graph_id=""):
        values = (True,) * 12 + (False,)
        pair = {"statements": [STATEMENT_NAMES[0], STATEMENT_NAMES[12]],
                "values": [True, False]}
        return verify.EquivalenceReport(graph_id, values, False, pair)

    monkeypatch.setattr(verify, "invariant_chain", broken)
    monkeypatch.setattr(verify, "omega_is_matroid", broken)
    monkeypatch.setattr(verify, "verify_equivalences", equivalences)
    monkeypatch.setattr(verify, "verify_tree_theorem", lambda *a, **k: verify.TreeReport(
        (True, True, True, False), False, None, False))
    monkeypatch.setattr(verify, "verify_girth6", lambda g, *a, **k: None if g.n == 3
                        else verify.GirthReport((True, False), False))
    monkeypatch.setattr(verify, "implication_clauses", lambda *a, **k: [
        ("holds", True, ""), ("fails", False, ""), ("excluded", None, "")])

    items = [("c5", cycle_graph(5)), ("p4", path_graph(4)), ("k3", complete_graph(3))]
    report = run_suite(items, SUITE_NAMES).as_dict()

    def records(gid_clause_witness):
        return [{"graph_id": g, "clause": c, "witness": w} for g, c, w in gid_clause_witness]

    order = ("k3", "p4", "c5")
    pair = {"statements": [STATEMENT_NAMES[0], STATEMENT_NAMES[12]], "values": [True, False]}
    assert report == {
        "graphs_total": 3,
        "violations_total": 16,
        "suites": [
            {"suite_name": "equivalences", "graphs_checked": 3, "skipped": 0,
             "violations": records((gid, "equivalence_agreement", pair) for gid in order)},
            {"suite_name": "chain", "graphs_checked": 3, "skipped": 0,
             "violations": records((gid, "inequality_chain", "routes disagree")
                                   for gid in order)},
            {"suite_name": "implications", "graphs_checked": 3, "skipped": 0,
             "violations": records((gid, "fails", "") for gid in order)},
            {"suite_name": "tree", "graphs_checked": 1, "skipped": 2,
             "violations": records([("p4", "tree_equivalence", [True, True, True, False]),
                                    ("p4", "tree_recursion_edge", "no qualifying edge")])},
            {"suite_name": "girth6", "graphs_checked": 2, "skipped": 1,
             "violations": records((gid, "girth6_equivalence", [True, False])
                                   for gid in order[1:])},
            {"suite_name": "matroid", "graphs_checked": 3, "skipped": 0,
             "violations": records((gid, "matroid_routes", "routes disagree")
                                   for gid in order)},
        ],
    }

    assert cli.main(["verify", "--family", "path", "4"]) == 1
    assert json.loads(capsys.readouterr().out)["violations_total"] == 7
