import json
import random

import networkx
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
    components,
    induced_subgraph,
    square,
    stable_subsets,
    to_graph6,
)
from squarestable.classify import is_koenig_egervary
from squarestable.matchings import (
    count_perfect_matchings,
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
    run_suite,
)
from oracles import (
    induced_perfect_matching_by_enumeration,
    oracle_alpha,
    oracle_distances,
    oracle_maximal_stable_sets,
    oracle_omega,
)
from strategies import graphs


def one_graph(suite, g, cap=None, cap_omega=None, graph_id="g"):
    """One suite over one graph through ``run_suite``: the graph's detail
    record (``None`` when the suite skips it or keeps none) and its
    violations."""
    result = run_suite([(graph_id, g)], (suite,), cap, cap_omega, keep_details=True).suites[0]
    return (result.details or [None])[0], result.violations


def statements(g, **caps):
    """The thirteen statements' values on ``g``, in report order."""
    return tuple(one_graph("equivalences", g, **caps)[0]["statements"].values())


def clauses(g, **caps):
    """The implication clauses' values on ``g``, by name."""
    return one_graph("implications", g, **caps)[0]["clauses"]


# ---------------------------------------------------------------------------
# the thirteen-statement engine
# ---------------------------------------------------------------------------


def test_equivalences_all_true_on_square_stable_graphs():
    for g in (path_graph(4), complete_graph(5), complete_graph(1),
              corona_with_k1(cycle_graph(5)), named_fixture("fig_ss_not_vwc"),
              named_fixture("fig_upm_not_pendant")):
        detail, violations = one_graph("equivalences", g)
        assert tuple(detail["statements"].values()) == (True,) * 13
        assert detail["agree"] and detail["failing_pair"] is None and violations == []


def test_equivalences_all_false_on_non_square_stable_graphs():
    for g in (cycle_graph(5), cycle_graph(6), star_graph(3),
              named_fixture("k3_plus_e"), named_fixture("fig_bip_vwc_not_ss")):
        detail, violations = one_graph("equivalences", g)
        assert tuple(detail["statements"].values()) == (False,) * 13
        assert detail["agree"] and violations == []


def test_equivalences_reduce_per_component():
    # a square-stable component next to a non-square-stable one
    p4_plus_c5 = Graph.from_edges(9, path_graph(4).edges() + [
        (u + 4, v + 4) for u, v in cycle_graph(5).edges()
    ])
    assert statements(p4_plus_c5) == (False,) * 13
    two_p4 = Graph.from_edges(8, path_graph(4).edges() + [
        (u + 4, v + 4) for u, v in path_graph(4).edges()
    ])
    assert statements(two_p4) == (True,) * 13


def test_equivalence_report_shape():
    d, _ = one_graph("equivalences", cycle_graph(5), graph_id="cycle5")
    assert list(d) == ["graph_id", "statements", "agree", "failing_pair"]
    assert d["graph_id"] == "cycle5"
    assert set(d["statements"]) == set(STATEMENT_NAMES)
    assert d["agree"] is True


def test_equivalences_mark_unevaluated_on_cap():
    detail, violations = one_graph("equivalences", path_graph(6), cap_omega=5)
    assert any(v is None for v in detail["statements"].values())
    # evaluable statements still agree among themselves
    assert detail["agree"] and violations == []


def test_family_searches_are_refused_above_the_solver_cap():
    # C10 lies within the enumeration cap but above the solver cap, which
    # guards every search over Omega as well
    g = cycle_graph(10)
    assert one_graph("equivalences", g, cap=5, cap_omega=24)[0]["statements"] == {
        name: False if name == "simplex_partition" else None for name in STATEMENT_NAMES}
    values = clauses(g, cap=5, cap_omega=24)
    assert values["square_omega_pairwise_distance3"] is None
    assert values["omega_equality_iff_complete"] is None
    # no pendant perfect matching: true without reading any cap
    assert values["pendant_matching_forces_square_omega"] is True
    suite = run_suite([("c10", g)], ("matroid",), cap=5, cap_omega=24).suites[0]
    assert (suite.graphs_checked, suite.skipped) == (0, 1)


def assert_mask_routes_match_the_subgraph(g, d):
    # each symmetric-difference route on the mask d against its definition
    # on the subgraph G[d], built
    h, _ = induced_subgraph(g, bit_indices(d))
    assert _unique_pm(g, d) == (count_perfect_matchings(h, 2) == 1), (g, d)
    assert _has_pm(g, d) == (2 * matching_number(h) == h.n), (g, d)
    assert _induced_pm(g, d) == induced_perfect_matching_by_enumeration(h), (g, d)


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
        for name, value in clauses(g).items():
            assert value is not False, name


def test_implication_clause_details():
    values = clauses(corona_with_k1(cycle_graph(5)))
    assert values["pendant_matching_forces_square_omega"] is True
    assert values["ke_pendant_characterisation"] is True
    # diamond is not square-stable: the square-stable implications hold vacuously
    values = clauses(named_fixture("diamond"))
    assert values["square_stable_not_alpha_minus"] is True


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
    detail, violations = one_graph("tree", path_graph(4))
    assert detail["statements"] == [True, True, True, True]
    assert violations == []
    assert detail["recursion_edge"] == (1, 2)


def test_tree_theorem_negative_cases():
    assert one_graph("tree", path_graph(6))[0]["statements"] == [False] * 4
    assert one_graph("tree", star_graph(3))[0]["statements"] == [False] * 4
    assert one_graph("tree", complete_graph(2))[1] == []


def test_suite_hypotheses_skip_rather_than_raise():
    # a graph outside a suite's hypotheses is counted as skipped, with no
    # detail record and no violation
    empty2 = Graph.from_edges(2, [])
    for suite, excluded in (
        ("tree", [cycle_graph(4), complete_graph(1), empty2]),
        # the excluded 7-cycle, one vertex, girth too small, disconnected
        ("girth6", [cycle_graph(7), complete_graph(1), cycle_graph(5), empty2]),
    ):
        items = [(f"g{i}", g) for i, g in enumerate(excluded)]
        result = run_suite(items, (suite,), keep_details=True).suites[0]
        assert (result.graphs_checked, result.skipped) == (0, len(excluded)), suite
        assert result.details == [] and result.violations == [], suite


def _well_covered_by_oracle(g: Graph) -> bool:
    # every maximal stable set has one size, and there is one
    return len({len(s) for s in oracle_maximal_stable_sets(g)}) == 1


def test_recursion_edge_matches_its_definition_on_every_free_tree():
    # every free tree on 2 to 10 vertices, from networkx as an oracle
    trees = [Graph.from_edges(t.number_of_nodes(), list(t.edges()))
             for n in range(2, 11) for t in networkx.nonisomorphic_trees(n)]
    assert len(trees) == 200
    items = [(f"{i:03d}", t) for i, t in enumerate(trees)]
    suite = run_suite(items, ("tree",), keep_details=True).suites[0]
    assert suite.graphs_checked == len(trees) and suite.violations == []
    by_id = dict(items)
    edges = 0
    for detail in suite.details:
        t, edge = by_id[detail["graph_id"]], detail["recursion_edge"]
        if t.n == 2 or not _well_covered_by_oracle(t):
            assert edge is None, detail
            continue
        assert edge is not None, detail
        edges += 1
        u, v = edge
        assert t.has_edge(u, v) and t.degree(u) >= 2 and t.degree(v) >= 2, detail
        pruned = t.remove_edge(u, v)
        parts = sorted(components(pruned), key=len)
        assert len(parts) == 2 and len(parts[0]) == 2, detail
        assert _well_covered_by_oracle(induced_subgraph(pruned, parts[1])[0]), detail
    assert edges > 0


def test_tree_recursion_edge_on_larger_tree():
    # two stars joined at their centres: a well-covered "double broom"
    t = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)])
    detail, violations = one_graph("tree", t)
    if detail["statements"][0]:
        assert violations == []


# ---------------------------------------------------------------------------
# girth >= 6
# ---------------------------------------------------------------------------


def test_girth6_statements():
    detail, violations = one_graph("girth6", cycle_graph(6))
    assert detail is not None
    assert detail["statements"] == [False] * 5 and violations == []

    detail, violations = one_graph("girth6", corona_with_k1(path_graph(3)))
    assert detail["statements"] == [True] * 5 and violations == []

    detail, violations = one_graph("girth6", path_graph(3))
    assert detail["statements"] == [False] * 5 and violations == []

    detail, violations = one_graph("girth6", complete_graph(2))
    assert detail["statements"] == [True] * 5 and violations == []


def test_girth6_on_seeded_trees_and_sparse_graphs():
    rng = random.Random(31337)
    from squarestable.generate import random_tree

    for i in range(40):
        t = random_tree(rng.randint(2, 11), seed=rng.randrange(10**6))
        detail, violations = one_graph("girth6", t)
        assert detail is not None and violations == []


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
    corpus = iter([("k2", complete_graph(2))])
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(corpus, ("nonesuch",))
    assert next(corpus)[0] == "k2"  # not drawn


def test_run_suite_rejects_a_suite_named_twice():
    # each name would get its own row of the report, and violations_total
    # would count the suite's violations once per row
    corpus = iter([("k2", complete_graph(2))])
    with pytest.raises(ValueError, match="suite 'chain' named twice"):
        run_suite(corpus, ("chain", "tree", "chain"))
    assert next(corpus)[0] == "k2"  # not drawn


def test_run_suite_deterministic():
    items = [(to_graph6(g), g) for g in sample_corpus(15, 8, seed=5)]
    a = run_suite(items, SUITE_NAMES).as_dict(include_details=True)
    b = run_suite(items, SUITE_NAMES).as_dict(include_details=True)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_suite_draws_each_pair_after_the_last_went_through_its_suites(monkeypatch):
    # a generator corpus is streamed: nothing is drawn ahead of the suites
    from squarestable import verify

    log = []
    for name in ("chain", "tree"):
        monkeypatch.setitem(
            verify._SUITES, name,
            lambda g, cap, cap_omega, name=name, suite=verify._SUITES[name]:
            log.append((name, to_graph6(g))) or suite(g, cap, cap_omega))
    graphs = (complete_graph(3), path_graph(4), cycle_graph(5))

    def corpus():
        for g in graphs:
            log.append(("draw", to_graph6(g)))
            yield to_graph6(g), g

    report = run_suite(corpus(), ("tree", "chain"))
    assert log == [(step, to_graph6(g)) for g in graphs for step in ("draw", "chain", "tree")]
    assert report.graphs_total == 3


def test_run_suite_reports_in_the_order_given(monkeypatch):
    from squarestable import verify
    from squarestable.errors import InternalCheckError

    def broken(*args, **kwargs):
        raise InternalCheckError("routes disagree")

    monkeypatch.setattr(verify, "invariant_chain", broken)
    # sorted by (order, graph_id) it would read a, k3, p4, c5
    items = [("p4", path_graph(4)), ("k3", complete_graph(3)), ("c5", cycle_graph(5)),
             ("a", complete_graph(3))]
    equivalences, chain = run_suite(items, ("equivalences", "chain"), keep_details=True).suites
    given = [gid for gid, _ in items]
    assert [d["graph_id"] for d in equivalences.details] == given
    assert [v["graph_id"] for v in chain.violations] == given


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

    def constant(value):
        return lambda g, cap, cap_omega: value

    monkeypatch.setattr(verify, "invariant_chain", broken)
    monkeypatch.setattr(verify, "omega_is_matroid", broken)
    # the last statement disagrees with the other twelve
    monkeypatch.setattr(verify, "_STATEMENTS", {
        name: constant(name != STATEMENT_NAMES[12]) for name in STATEMENT_NAMES})
    monkeypatch.setattr(verify, "_CLAUSES", {
        "holds": constant(True), "fails": constant(False), "excluded": constant(None)})
    # the tree and girth-6 statements read square-stability last; P4, the one
    # graph here in both suites' hypotheses, is square-stable
    monkeypatch.setattr(verify, "is_square_stable", lambda g, cap=None: False)
    monkeypatch.setattr(verify, "_recursion_edge", lambda t, cap: None)

    items = [("k3", complete_graph(3)), ("p4", path_graph(4)), ("c5", cycle_graph(5))]
    report = run_suite(items, SUITE_NAMES).as_dict()

    def records(gid_clause_witness):
        return [{"graph_id": g, "clause": c, "witness": w} for g, c, w in gid_clause_witness]

    order = ("k3", "p4", "c5")
    pair = {"statements": [STATEMENT_NAMES[0], STATEMENT_NAMES[12]], "values": [True, False]}
    assert report == {
        "graphs_total": 3,
        "violations_total": 15,
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
            {"suite_name": "girth6", "graphs_checked": 1, "skipped": 2,
             "violations": records([("p4", "girth6_equivalence",
                                     [True, True, True, True, False])])},
            {"suite_name": "matroid", "graphs_checked": 3, "skipped": 0,
             "violations": records((gid, "matroid_routes", "routes disagree")
                                   for gid in order)},
        ],
    }

    assert cli.main(["verify", "--family", "path", "4"]) == 1
    assert json.loads(capsys.readouterr().out)["violations_total"] == 7
