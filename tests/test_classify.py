import importlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarestable.classify import (
    AlphaPlusClass,
    _CLASS_BY_CORE_SIZE,
    _core,
    _p1,
    _p2,
    alpha_minus_stable,
    alpha_plus_class,
    classify,
    is_koenig_egervary,
    is_simplicial_graph,
    is_square_stable,
    is_very_well_covered,
    is_well_covered,
    omega_is_matroid,
    pendants_contain_maximum_stable_set,
    property_p1,
    property_p2,
    simplex_partition_check,
    simplexes,
    simplicial_vertices,
    square_stable_witness,
    well_covered_counterexample,
)
from squarestable.errors import CapExceededError
from squarestable.generate import (
    complete_graph,
    corona_with_k1,
    cycle_graph,
    enumerate_corpus,
    named_fixture,
    path_graph,
    random_connected_graph,
    random_tree,
    sample_corpus,
    star_graph,
)
from squarestable.graphs import (
    Graph,
    bit_indices,
    distance_matrix,
    pendant_vertices,
    set_of,
    square,
    stable_subsets,
)
from squarestable.solvers import (
    _alpha_mask,
    enumerate_maximum_stable_sets,
    independent_domination_number,
    maximum_stable_set,
    stability_number,
)
from oracles import (
    alpha_minus_by_edge_deletion,
    alpha_minus_by_omega_neighbourhoods,
    alpha_plus_by_edge_addition,
    maximal_stable_sets,
    omega_core_by_intersection,
    oracle_alpha,
    oracle_idom,
    oracle_induced_subgraph,
    oracle_omega,
    oracle_simplicial_vertices,
    p1_by_stable_subsets,
    p2_by_stable_subsets,
    simplexes_by_maximal_cliques,
    simplicial_graph_by_vertex_pairs,
)
from strategies import chordal_graphs, graphs, graphs_with_pendants, sparse_graphs

classify_module = importlib.import_module("squarestable.classify")

DIAMOND = named_fixture("diamond")


# ---------------------------------------------------------------------------
# square-stability
# ---------------------------------------------------------------------------


def test_square_stable_examples():
    assert is_square_stable(path_graph(4))
    assert not is_square_stable(cycle_graph(5))
    for leaves in (2, 3, 6):
        assert not is_square_stable(star_graph(leaves))
    for n in (1, 2, 5):
        assert is_square_stable(complete_graph(n))
    assert not is_square_stable(cycle_graph(6))
    assert is_square_stable(corona_with_k1(cycle_graph(5)))


def test_square_stability_is_refused_above_the_cap_once_stored():
    g = corona_with_k1(cycle_graph(6))
    assert is_square_stable(g) is True
    with pytest.raises(CapExceededError, match=r"exact solver cap exceeded \(12 > 11\)"):
        is_square_stable(g, cap=11)
    assert is_square_stable(g, cap=12) is True


def test_square_stable_witness_has_pairwise_distance_3():
    g = corona_with_k1(cycle_graph(5))
    w = square_stable_witness(g)
    d = distance_matrix(g)
    assert w is not None and len(w) == 5
    assert all(d[a][b] >= 3 for a in w for b in w if a != b)
    assert square_stable_witness(cycle_graph(5)) is None


# ---------------------------------------------------------------------------
# covered classes
# ---------------------------------------------------------------------------


def test_well_covered_examples():
    assert is_well_covered(cycle_graph(5))
    assert is_well_covered(cycle_graph(4))
    assert not is_well_covered(path_graph(3))
    assert well_covered_counterexample(path_graph(3)) == {"non_maximum_maximal": [1]}


def test_well_covered_isolated_vertex_reported_distinctly():
    g = Graph.from_edges(3, [(0, 1)])
    assert not is_well_covered(g)
    assert well_covered_counterexample(g) == {"isolated_vertex": 2}
    assert not is_well_covered(complete_graph(1))


def _counterexample_by_enumeration(g):
    # the route the search replaced: the first maximal stable set, in sorted
    # order, that is smaller than the largest
    iso = [v for v in range(g.n) if not g.adj[v]]
    if iso:
        return {"isolated_vertex": min(iso)}
    sets = maximal_stable_sets(g)
    alpha = max(len(s) for s in sets)
    return next(({"non_maximum_maximal": sorted(s)} for s in sets if len(s) < alpha), None)


def test_well_covered_counterexample_matches_the_enumeration_route():
    corpus = list(enumerate_corpus(7, connected_only=False)) + list(sample_corpus(300, 14, 6))
    kinds = {}
    for g in corpus:
        for h in (g, square(g), corona_with_k1(g)):
            expected = _counterexample_by_enumeration(h)
            assert well_covered_counterexample(h, 28) == expected, h
            assert is_well_covered(h, 28) == (expected is None), h
            kind = expected and next(iter(expected))
            kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) > 100, kinds  # each outcome is well represented


def test_well_covered_checks_the_solver_cap_after_isolated_vertices():
    # 30 vertices: over the enumeration cap, which well-coveredness does not read
    g = cycle_graph(30)
    assert is_well_covered(g) is False
    evidence = well_covered_counterexample(g)["non_maximum_maximal"]
    assert len(evidence) < 15
    assert frozenset(evidence) in maximal_stable_sets(g)
    for predicate in (is_well_covered, well_covered_counterexample):
        with pytest.raises(CapExceededError, match=r"exact solver cap exceeded \(30 > 29\)"):
            predicate(g, cap=29)
    isolated = Graph.from_edges(30, [(u, u + 1) for u in range(28)])
    assert is_well_covered(isolated, cap=29) is False
    assert well_covered_counterexample(isolated, cap=29) == {"isolated_vertex": 29}


def test_very_well_covered_examples():
    assert is_very_well_covered(cycle_graph(4))
    assert not is_very_well_covered(named_fixture("fig_ss_not_vwc"))
    assert not is_very_well_covered(cycle_graph(5))
    assert is_very_well_covered(path_graph(4))
    # the solver cap passed in covers the alpha solve, not only the enumeration
    assert not is_very_well_covered(complete_graph(65), cap=100)


def test_koenig_egervary_examples():
    assert not is_koenig_egervary(cycle_graph(7))
    assert is_koenig_egervary(named_fixture("k3_plus_e"))
    assert is_koenig_egervary(cycle_graph(6))
    assert not is_koenig_egervary(cycle_graph(5))


def test_pendants_contain_maximum_stable_set():
    assert pendants_contain_maximum_stable_set(complete_graph(2))
    assert pendants_contain_maximum_stable_set(path_graph(3))
    assert pendants_contain_maximum_stable_set(corona_with_k1(cycle_graph(4)))
    assert not pendants_contain_maximum_stable_set(cycle_graph(4))
    assert not pendants_contain_maximum_stable_set(path_graph(6))


# ---------------------------------------------------------------------------
# simplicial structure
# ---------------------------------------------------------------------------


def test_simplicial_vertices_examples():
    assert simplicial_vertices(path_graph(4)) == {0, 3}
    assert simplicial_vertices(cycle_graph(4)) == frozenset()
    assert simplicial_vertices(complete_graph(4)) == frozenset(range(4))
    assert simplicial_vertices(Graph.from_edges(1, [])) == {0}


@given(st.one_of(graphs(), sparse_graphs(), chordal_graphs()))
def test_simplicial_vertices_match_the_pairwise_oracle(g):
    assert simplicial_vertices(g) == oracle_simplicial_vertices(g)


def test_simplexes_examples():
    p4 = simplexes(path_graph(4))
    assert [(sorted(s.clique), sorted(s.simplicial_members)) for s in p4] == [
        ([0, 1], [0]), ([2, 3], [3]),
    ]
    kn = simplexes(complete_graph(5))
    assert len(kn) == 1 and kn[0].clique == frozenset(range(5))
    assert simplexes(cycle_graph(5)) == []


def test_simplexes_match_maximal_cliques():
    corpus = list(enumerate_corpus(7, connected_only=False)) + list(sample_corpus(300, 14, 7, False))
    for g in corpus:
        expected = simplexes_by_maximal_cliques(g)
        assert [(s.clique, s.simplicial_members) for s in simplexes(g)] == expected, g
        # a partition: every vertex in exactly one simplex
        members = sorted(v for clique, _ in expected for v in clique)
        assert simplex_partition_check(g) == (members == list(range(g.n))), g


def test_simplex_partition_examples():
    assert simplex_partition_check(path_graph(4))
    assert not simplex_partition_check(cycle_graph(4))
    assert not simplex_partition_check(path_graph(3))  # simplexes overlap at centre
    assert simplex_partition_check(complete_graph(3))
    # the simplexes {0,5}, {1,5}, {2,4} have 6 vertices in all, but 5 lies in
    # two of them and 3 in none
    assert not simplex_partition_check(
        Graph.from_edges(6, [(0, 5), (1, 5), (2, 4), (3, 4), (3, 5)]))


def test_is_simplicial_graph_examples():
    assert is_simplicial_graph(path_graph(4))
    assert not is_simplicial_graph(cycle_graph(5))
    assert is_simplicial_graph(complete_graph(4))


@given(st.one_of(graphs(), sparse_graphs()))
def test_is_simplicial_graph_matches_its_definition(g):
    assert is_simplicial_graph(g) == simplicial_graph_by_vertex_pairs(g)


# ---------------------------------------------------------------------------
# stability of alpha under edits
# ---------------------------------------------------------------------------


def test_alpha_minus_examples():
    assert alpha_minus_stable(DIAMOND)
    assert alpha_minus_stable(cycle_graph(6))
    assert not alpha_minus_stable(path_graph(4))
    assert not alpha_minus_stable(named_fixture("k3_plus_e"))


def test_alpha_plus_examples():
    assert alpha_plus_class(named_fixture("k3_plus_e")) is AlphaPlusClass.PLUS_1
    assert alpha_plus_class(star_graph(3)) is AlphaPlusClass.NOT_PLUS
    for n in (2, 4):
        assert alpha_plus_class(complete_graph(n)) is AlphaPlusClass.PLUS_0
    assert alpha_plus_class(complete_graph(1)) is AlphaPlusClass.PLUS_1
    assert alpha_plus_class(cycle_graph(6)) is AlphaPlusClass.PLUS_0


def test_edge_edit_classes_are_answered_above_the_enumeration_cap():
    # 30 vertices: more than the stable-set enumeration cap of 24 allows
    c30 = cycle_graph(30)
    assert alpha_plus_class(c30) is AlphaPlusClass.PLUS_0
    assert alpha_minus_stable(c30) is True
    g = random_connected_graph(30, 1)
    assert alpha_plus_class(g) is AlphaPlusClass.NOT_PLUS
    assert alpha_minus_stable(g) is False


def test_one_route_predicates_match_their_definitions():
    # Each predicate against the definitions and characterisations it no
    # longer computes, on every graph to 7 vertices and a seeded sample.
    by_core_size = {0: AlphaPlusClass.PLUS_0, 1: AlphaPlusClass.PLUS_1}
    corpus = list(enumerate_corpus(7, connected_only=False)) + list(sample_corpus(300, 12, 5))
    for g in corpus:
        core = omega_core_by_intersection(g)
        assert set_of(_core(g)) == core, g
        plus = alpha_plus_class(g)
        assert plus is by_core_size.get(len(core), AlphaPlusClass.NOT_PLUS), g
        assert (plus is not AlphaPlusClass.NOT_PLUS) == alpha_plus_by_edge_addition(g), g
        assert alpha_minus_stable(g) == alpha_minus_by_edge_deletion(g), g
        assert alpha_minus_stable(g) == alpha_minus_by_omega_neighbourhoods(g), g
        family = set(enumerate_maximum_stable_sets(g).sets)
        for s in family | set(enumerate_maximum_stable_sets(square(g)).sets):
            m = sum(1 << v for v in s)
            assert _p1(g, m) == p1_by_stable_subsets(g, s), (g, s)
            assert _p2(g, m, None) == p2_by_stable_subsets(g, s), (g, s)
        assert classify(g).omega_matroid == omega_is_matroid(g), g


@given(graphs_with_pendants(max_n=7, max_pendants=5))
@settings(max_examples=150)
def test_decision_searches_match_their_definitions(g):
    # The searches that stop at a known bound, on graphs with pendant
    # vertices to fold: the core, edge deletion, idom, the least maximum
    # stable set and the pendant test.
    for h in (g, square(g)):
        assert set_of(_core(h)) == omega_core_by_intersection(h), h
        assert alpha_minus_stable(h) == alpha_minus_by_edge_deletion(h), h
        assert independent_domination_number(h) == oracle_idom(h), h
        assert sorted(maximum_stable_set(h)) == min(sorted(s) for s in oracle_omega(h)), h
        pendants = oracle_induced_subgraph(h, pendant_vertices(h))[0]
        assert pendants_contain_maximum_stable_set(h) == (
            oracle_alpha(pendants) == oracle_alpha(h)), h


def _spider(legs: int) -> Graph:
    # a centre with legs of two edges each: the centre and the leg ends are
    # the one maximum stable set
    return Graph.from_edges(2 * legs + 1, [e for i in range(legs)
                                           for e in ((0, 2 * i + 1), (2 * i + 1, 2 * i + 2))])


def _assert_edge_edit_classes_match_the_oracles(g: Graph) -> frozenset:
    core = omega_core_by_intersection(g)
    assert classify(g).witnesses["omega_core"] == sorted(core), g
    assert alpha_plus_class(g) is _CLASS_BY_CORE_SIZE[min(len(core), 2)], g
    aminus = alpha_minus_stable(g)
    assert aminus == alpha_minus_by_edge_deletion(g), g
    assert aminus == alpha_minus_by_omega_neighbourhoods(g), g
    return core


def test_core_and_edge_deletion_match_the_oracles_on_non_empty_cores():
    # Trees, stars, spiders and random connected graphs, many of them with a
    # core, so the core search narrows to G - N[F] and only the edges
    # outside N[K] are searched: 103 of the 132 trees and random graphs have
    # one.  A star or spider has one maximum stable set, so |K| = alpha and
    # no edge is searched.
    cored = 0
    for n in range(2, 19):
        for s in range(4):
            cored += bool(_assert_edge_edit_classes_match_the_oracles(random_tree(n, s)))
    for k in range(1, 9):
        for g in (star_graph(k + 1), _spider(k)):
            assert len(_assert_edge_edit_classes_match_the_oracles(g)) == stability_number(g), g
    for n in range(13, 21):
        for s in range(8):
            cored += bool(_assert_edge_edit_classes_match_the_oracles(random_connected_graph(n, s)))
    assert cored == 103, cored


def test_edge_deletion_when_the_core_is_one_short_of_alpha():
    # In the paw, K = {0} and alpha = 2, and the edge 23 lies outside N[K]:
    # K alone is the alpha - 1 set that deleting 23 extends, so the search
    # for alpha - 1 - |K| = 0 more vertices must find the empty set.  Here,
    # as whenever |K| = alpha - 1, the one-neighbour shortcut decides first:
    # every vertex of G - N[K] outside a maximum stable set S = K + x is
    # adjacent to x, and so has one neighbour in S.
    paw = named_fixture("k3_plus_e")
    assert paw.edges() == [(0, 1), (1, 2), (1, 3), (2, 3)]
    assert _assert_edge_edit_classes_match_the_oracles(paw) == {0}
    assert not alpha_minus_stable(paw)
    assert _alpha_mask(paw.adj, 0b1100 & ~(paw.adj[2] | paw.adj[3]), -1, 0) == 0


def test_critical_edge_outside_the_cores_neighbourhood():
    # Graphs with a core where every vertex outside the least maximum stable
    # set has two neighbours in it, so the shortcut misses, and an edge
    # outside N[K] is critical; none of the connected graphs to 7 vertices
    # is one.  random_connected_graph(8, 145) has K = {2} and alpha = 3,
    # random_connected_graph(10, 20) K = {3, 8} and alpha = 5.
    for n, s, core in ((8, 145, {2}), (10, 20, {3, 8})):
        g = random_connected_graph(n, s)
        sset = maximum_stable_set(g)
        assert all(len(sset & set(bit_indices(g.adj[v]))) >= 2 for v in range(n) if v not in sset)
        assert _assert_edge_edit_classes_match_the_oracles(g) == core
        assert not alpha_minus_stable(g)


def test_capped_edge_edit_classes_are_refused_after_the_core_is_stored():
    g = random_connected_graph(20, 3)
    assert set_of(_core(g)) == omega_core_by_intersection(g)
    for _ in range(2):
        for f in (classify, alpha_plus_class, alpha_minus_stable):
            with pytest.raises(CapExceededError):
                f(g, 19)


def test_core_and_edge_deletion_search_fewer_vertices(monkeypatch):
    # The vertices handed to the alpha search by the core and by
    # alpha_minus_stable over these 30 graphs.  Searching G - N[F] for the
    # core and only the edges outside N[K], with the core computed once,
    # hands it 1,942 vertices; searching the whole graph each time handed it
    # 4,235.
    searched = 0
    search = classify_module._alpha_mask

    def counted(adj, mask, floor, stop):
        nonlocal searched
        searched += mask.bit_count()
        return search(adj, mask, floor, stop)

    monkeypatch.setattr(classify_module, "_alpha_mask", counted)
    classify_module._core.cache_clear()
    for n in (12, 18, 24):
        for s in range(10):
            g = random_connected_graph(n, s)
            _core(g)
            alpha_minus_stable(g)
    assert searched <= 1942, searched


# ---------------------------------------------------------------------------
# the unique-matching and exchange properties
# ---------------------------------------------------------------------------


def test_property_p1_examples():
    assert property_p1(path_graph(4), {0, 3})
    assert not property_p1(path_graph(4), {0, 2})
    assert not property_p1(cycle_graph(4), {0, 2})
    assert property_p1(complete_graph(4), {2})


def test_property_p1_precondition():
    for prop in (property_p1, property_p2):
        with pytest.raises(ValueError, match="^s0 must be a maximum stable set$"):
            prop(path_graph(4), {1})
        with pytest.raises(ValueError, match="^s0 must be a stable set$"):
            prop(path_graph(4), {0, 1})


def test_the_witness_and_the_exchange_properties_honour_the_solver_cap():
    # the corona of C5 is square-stable, and its pendants are a maximum stable set
    g, pendants = corona_with_k1(cycle_graph(5)), {5, 6, 7, 8, 9}
    mask = sum(1 << v for v in pendants)
    message = r"^exact solver cap exceeded \(10 > 9\)$"
    with pytest.raises(CapExceededError, match=message):
        square_stable_witness(g, cap=9)
    with pytest.raises(CapExceededError, match=message):
        property_p1(g, pendants, cap=9)
    with pytest.raises(CapExceededError, match=message):
        property_p2(g, pendants, cap=9)
    with pytest.raises(CapExceededError, match=message):
        _p2(g, mask, 9)
    assert len(square_stable_witness(g, cap=10)) == 5
    assert property_p1(g, pendants, cap=10) and property_p2(g, pendants, cap=10)
    assert _p2(g, mask, 10)


def test_property_p2_examples():
    assert property_p2(path_graph(4), {0, 3})
    # {0,2} is maximum but the middle vertex has both its neighbours in it
    assert not property_p2(path_graph(4), {0, 2})
    assert not property_p2(cycle_graph(4), {0, 2})
    assert property_p2(complete_graph(3), {1})


def test_p2_matches_the_stable_set_scan_on_every_stable_set():
    for g in enumerate_corpus(6, connected_only=False):
        for m in stable_subsets(g, g.full_mask()):
            s = bit_indices(m)
            assert _p2(g, m, None) == p2_by_stable_subsets(g, s), (g, s)


@given(graphs(max_n=8), st.data())
def test_p2_matches_the_stable_set_scan_on_drawn_stable_sets(g, data):
    m = data.draw(st.sampled_from(list(stable_subsets(g, g.full_mask()))))
    s = bit_indices(m)
    assert _p2(g, m, None) == p2_by_stable_subsets(g, s), (g, s)


def test_p2_refuses_a_non_stable_set():
    # with more than alpha vertices, the per-vertex count (True) and the
    # extension formula (False) part ways on this set
    g = Graph.from_edges(6, [(0, 5), (1, 5), (2, 3), (2, 4), (3, 4)])
    with pytest.raises(ValueError, match="s must be a stable set"):
        _p2(g, 0b1111, None)  # {0, 1, 2, 3}


def test_property_p2_answers_a_64_vertex_corona_at_once():
    # 2^32 stable sets lie outside the pendants, too many to scan
    g = corona_with_k1(Graph.from_edges(32, []))
    start = time.perf_counter()
    assert property_p2(g, range(32, 64))
    assert time.perf_counter() - start < 1


def test_raw_p_properties_allow_non_maximum_sets():
    # singletons of the 5-cycle are maximum in its square but not in it
    assert not _p1(cycle_graph(5), 1 << 0)
    assert not _p2(cycle_graph(5), 1 << 0, None)
    assert _p1(complete_graph(1), 1 << 0)


# ---------------------------------------------------------------------------
# matroid structure
# ---------------------------------------------------------------------------


def test_omega_matroid_examples():
    assert omega_is_matroid(complete_graph(5))
    assert omega_is_matroid(Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)]))
    assert not omega_is_matroid(path_graph(4))
    assert not omega_is_matroid(named_fixture("k3_plus_e"))
    assert omega_is_matroid(Graph.from_edges(3, []))


@given(graphs(max_n=7))
@settings(max_examples=80)
def test_omega_matroid_routes_never_disagree(g):
    omega_is_matroid(g)  # raises InternalCheckError on route disagreement


def test_omega_matroid_refuses_a_scan_beyond_its_budget():
    # the edgeless graph is a matroid, so its scan never stops early, and it
    # has 2^18 stable sets
    with pytest.raises(CapExceededError,
                       match=r"^matroid stable-set budget exceeded \(200001 > 200000\)$"):
        omega_is_matroid(Graph(18, (0,) * 18))


def _union_of_cliques(sizes: list[int]) -> Graph:
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    return Graph.from_edges(sum(sizes), [
        (s + a, s + b) for s, k in zip(starts, sizes) for a in range(k) for b in range(a + 1, k)])


@given(st.one_of(
    graphs(max_n=7), sparse_graphs(), chordal_graphs(),
    st.lists(st.integers(1, 4), max_size=4).map(_union_of_cliques)))
@settings(max_examples=150)
def test_omega_matroid_reads_complete_components(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    complete = all(
        h.subgraph(c).number_of_edges() == len(c) * (len(c) - 1) // 2
        for c in nx.connected_components(h))
    assert classify(g).omega_matroid == complete


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------


def test_classify_p4():
    r = classify(path_graph(4))
    assert r.square_stable and r.well_covered and r.very_well_covered
    assert r.koenig_egervary and r.simplicial_graph and r.chordal
    assert r.simplex_partition and not r.alpha_minus
    assert r.alpha_plus_class is AlphaPlusClass.PLUS_0
    assert not r.omega_matroid
    assert r.witnesses["square_stable_distance3_set"] == [0, 3]


def test_classify_c5():
    r = classify(cycle_graph(5))
    assert not r.square_stable and r.well_covered
    assert not r.koenig_egervary and not r.very_well_covered


def test_classify_diamond():
    r = classify(DIAMOND)
    assert r.alpha_minus and not r.square_stable
    assert r.chordal and not r.well_covered


def test_classify_report_serialises():
    d = classify(named_fixture("fig_bip_vwc_not_ss")).as_dict()
    assert d["very_well_covered"] and not d["square_stable"]
    assert d["alpha_plus_class"] in ("NOT_PLUS", "PLUS_0", "PLUS_1")
    assert "witnesses" in d


@given(graphs(max_n=6))
@settings(max_examples=60)
def test_classify_never_breaks_consistency(g):
    classify(g)  # internal consistency assertions must hold on any input
