import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarestable.generate import (
    complete_bipartite_graph,
    complete_graph,
    corona_with_k1,
    cycle_graph,
    enumerate_corpus,
    named_fixture,
    path_graph,
    star_graph,
)
from squarestable.graphs import Graph, is_bipartite
from squarestable.matchings import (
    PerfectMatchingStatus,
    count_perfect_matchings,
    is_induced_matching,
    is_valid_matching,
    match_into,
    matching_number,
    maximum_matching,
    pendant_perfect_matching,
    unique_perfect_matching,
)
from squarestable.verify import _induced_pm
from oracles import (
    enumerate_perfect_matchings,
    induced_perfect_matching_by_enumeration,
    oracle_alpha,
    oracle_count_matchings_into,
    oracle_count_perfect_matchings,
    oracle_mu,
    random_graph,
)
from strategies import graphs, graphs_with_pendants

PETERSEN = Graph.from_edges(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
])




def is_perfect_matching(g: Graph, m) -> bool:
    edges = list(m)
    return is_valid_matching(g, edges) and 2 * len(edges) == g.n


# ---------------------------------------------------------------------------
# maximum matching
# ---------------------------------------------------------------------------


def test_matching_number_examples():
    assert matching_number(cycle_graph(6)) == 3
    assert matching_number(star_graph(5)) == 1
    assert matching_number(path_graph(6)) == 3
    assert matching_number(PETERSEN) == 5


def test_maximum_matching_is_valid():
    m = maximum_matching(cycle_graph(7))
    assert len(m) == 3
    used = set()
    for u, v in m:
        assert cycle_graph(7).has_edge(u, v)
        assert u not in used and v not in used
        used |= {u, v}


@given(graphs(max_n=9))
def test_matching_number_matches_oracle(g):
    assert matching_number(g) == oracle_mu(g)


def test_matching_number_matches_oracle_seeded_sample():
    rng = random.Random(987)
    for _ in range(120):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        assert matching_number(g) == oracle_mu(g)
    # a few larger ones, where blossom contraction actually earns its keep
    for _ in range(40):
        g = random_graph(rng, rng.randint(13, 16),
                         rng.choice([0.08, 0.15, 0.3, 0.6, 0.9]))
        assert matching_number(g) == oracle_mu(g)


def test_koenig_on_bipartite_random_graphs():
    rng = random.Random(55)
    count = 0
    while count < 60:
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        if not is_bipartite(g):
            continue
        count += 1
        assert oracle_alpha(g) + matching_number(g) == g.n


# ---------------------------------------------------------------------------
# perfect matchings
# ---------------------------------------------------------------------------


def test_unique_perfect_matching_examples():
    status, m = unique_perfect_matching(named_fixture("k3_plus_e"))
    assert status is PerfectMatchingStatus.UNIQUE
    assert m == {(0, 1), (2, 3)}

    status, m = unique_perfect_matching(path_graph(6))
    assert status is PerfectMatchingStatus.UNIQUE
    assert m == {(0, 1), (2, 3), (4, 5)}

    assert unique_perfect_matching(cycle_graph(4))[0] is PerfectMatchingStatus.MULTIPLE
    assert unique_perfect_matching(path_graph(5))[0] is PerfectMatchingStatus.NONE
    assert unique_perfect_matching(star_graph(3))[0] is PerfectMatchingStatus.NONE


@given(graphs(max_n=8))
@settings(max_examples=80)
def test_unique_perfect_matching_agrees_with_counting(g):
    status, m = unique_perfect_matching(g)
    count = oracle_count_perfect_matchings(g)
    if status is PerfectMatchingStatus.NONE:
        assert count == 0
    elif status is PerfectMatchingStatus.UNIQUE:
        assert count == 1 and is_perfect_matching(g, m)
    else:
        assert count >= 2
    for cap in (1, 2, 3):
        assert count_perfect_matchings(g, cap=cap) == min(count, cap)


def test_enumerate_perfect_matchings():
    ms = list(enumerate_perfect_matchings(cycle_graph(4)))
    assert sorted(sorted(m) for m in ms) == [
        [(0, 1), (2, 3)], [(0, 3), (1, 2)],
    ]


def test_fig5_fixture_has_unique_pm_with_non_pendant_edge():
    g = named_fixture("fig_upm_not_pendant")
    status, m = unique_perfect_matching(g)
    assert status is PerfectMatchingStatus.UNIQUE
    non_pendant = {(u, v) for u, v in m
                   if g.degree(u) > 1 and g.degree(v) > 1}
    assert non_pendant  # not only pendant edges
    assert (2, 3) in non_pendant


# ---------------------------------------------------------------------------
# pendant matchings
# ---------------------------------------------------------------------------


def test_pendant_perfect_matching_examples():
    corona = corona_with_k1(cycle_graph(3))
    assert pendant_perfect_matching(corona) == {(0, 3), (1, 4), (2, 5)}
    assert pendant_perfect_matching(cycle_graph(6)) is None
    assert pendant_perfect_matching(path_graph(4)) == {(0, 1), (2, 3)}
    assert pendant_perfect_matching(complete_graph(2)) == {(0, 1)}
    assert pendant_perfect_matching(star_graph(3)) is None
    assert pendant_perfect_matching(path_graph(3)) is None


@given(graphs(max_n=8))
@settings(max_examples=80)
def test_pendant_pm_implies_unique_pm_with_same_edges(g):
    ppm = pendant_perfect_matching(g)
    if ppm is not None:
        status, m = unique_perfect_matching(g)
        assert status is PerfectMatchingStatus.UNIQUE
        assert m == ppm


@given(st.one_of(
    graphs_with_pendants(max_n=6, max_pendants=6), graphs(max_n=6).map(corona_with_k1)))
@settings(max_examples=150)
def test_pendant_perfect_matching_matches_enumeration(g):
    # the perfect matchings with a degree-1 endpoint on every edge: at most
    # one, since each pendant vertex forces its edge
    pendant = [m for m in enumerate_perfect_matchings(g)
               if all(g.degree(u) == 1 or g.degree(v) == 1 for u, v in m)]
    assert len(pendant) <= 1
    assert pendant_perfect_matching(g) == (pendant[0] if pendant else None)


# ---------------------------------------------------------------------------
# induced matchings
# ---------------------------------------------------------------------------


def test_is_induced_matching_examples():
    p6 = path_graph(6)
    assert is_induced_matching(p6, {(0, 1), (4, 5)})
    assert not is_induced_matching(p6, {(0, 1), (2, 3)})
    assert is_induced_matching(p6, {(2, 3)})
    assert is_induced_matching(p6, set())


def test_is_induced_matching_rejects_invalid():
    with pytest.raises(ValueError, match="^not a valid matching of this graph$"):
        is_induced_matching(path_graph(4), {(0, 2)})
    with pytest.raises(ValueError, match="^not a valid matching of this graph$"):
        is_induced_matching(path_graph(4), {(0, 1), (1, 2)})


def test_has_induced_perfect_matching():
    # the degree rule of the symmetric-difference statement, on the whole graph
    def has_induced_perfect_matching(g):
        return _induced_pm(g, g.full_mask())

    assert has_induced_perfect_matching(path_graph(2))
    assert has_induced_perfect_matching(Graph.from_edges(4, [(0, 1), (2, 3)]))
    # C6 has perfect matchings but none induced
    assert not has_induced_perfect_matching(cycle_graph(6))
    assert has_induced_perfect_matching(Graph.from_edges(0, []))
    assert not has_induced_perfect_matching(complete_bipartite_graph(6, 6))
    # the degree test against the enumeration of every perfect matching
    corpus = list(enumerate_corpus(7, connected_only=False))
    corpus += [Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]) for k in range(5)]
    corpus += [corona_with_k1(cycle_graph(4)), complete_bipartite_graph(3, 3)]
    for g in corpus:
        assert has_induced_perfect_matching(g) == induced_perfect_matching_by_enumeration(g), g


# ---------------------------------------------------------------------------
# matching into a set
# ---------------------------------------------------------------------------


def test_match_into_examples():
    count, witness = match_into(cycle_graph(6), {1}, {0, 2, 4})
    assert count == 2
    count, witness = match_into(path_graph(4), {3}, {0, 2})
    assert count == 1 and witness == {(2, 3)}
    count, witness = match_into(path_graph(4), set(), {0, 2})
    assert count == 1 and witness == frozenset()
    with pytest.raises(ValueError, match="^the two vertex sets must be disjoint$"):
        match_into(path_graph(4), {0, 1}, {1, 3})


@pytest.mark.parametrize("cap", [0, -1])
def test_matching_counters_refuse_caps_below_one(cap):
    # a cap below 1 could only report a count of 0 beside a witness, or a
    # count above the cap
    message = f"^cap must be at least 1, got {cap}$"
    for n in (3, 4):
        with pytest.raises(ValueError, match=message):
            count_perfect_matchings(cycle_graph(n), cap=cap)
    for a in ([0], []):
        with pytest.raises(ValueError, match=message):
            match_into(path_graph(2), a, [1], cap=cap)


@given(graphs(max_n=8), st.data())
@settings(max_examples=150)
def test_match_into_matches_the_injective_maps(g, data):
    # each vertex lies in A, in S or in neither
    side = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    a = {v for v in range(g.n) if side[v] == 1}
    s = {v for v in range(g.n) if side[v] == 2}
    expected = oracle_count_matchings_into(g, a, s)
    for cap in (1, 2, 5):
        count, witness = match_into(g, a, s, cap)
        assert count == min(expected, cap), (g, a, s, cap)
        assert (witness is None) == (count == 0)
        if witness is not None:
            assert is_valid_matching(g, witness)
            assert len(witness) == len(a)
            assert all((u in a and v in s) or (v in a and u in s) for u, v in witness)


def test_match_into_cap_saturates():
    g = complete_graph(6)
    count, _ = match_into(g, {0, 1}, {2, 3, 4}, cap=2)
    assert count == 2
    count, _ = match_into(g, {0, 1}, {2, 3, 4}, cap=5)
    assert count == 5
