import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarestable.errors import ParseError
from squarestable.generate import (
    canonical_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from squarestable.graphs import (
    INFINITE,
    Graph,
    complement,
    components,
    distance_matrix,
    format_edge_list,
    girth,
    induced_subgraph,
    is_bipartite,
    is_chordal,
    is_connected,
    is_tree,
    parse_edge_list,
    parse_graph6,
    perfect_elimination_ordering,
    square,
    symmetric_difference_subgraph,
    to_graph6,
)
from squarestable.matchings import is_valid_matching
from oracles import (
    oracle_distances,
    oracle_girth,
    oracle_induced_subgraph,
    oracle_is_chordal,
    permuted,
    reference_parse_graph6,
)
from strategies import graphs

DIAMOND = Graph.from_edges(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)])


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------


def test_parse_edge_list_path():
    g = parse_edge_list("0 1\n1 2\n2 3")
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_parse_edge_list_header_only():
    g = parse_edge_list("n 3\n")
    assert g.n == 3
    assert g.edge_count == 0


def test_parse_edge_list_rejects_self_loop():
    with pytest.raises(ParseError, match="line 1.*self-loop"):
        parse_edge_list("0 0")


def test_parse_edge_list_rejects_non_integer():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("0 1\n1 x")


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# a path\n\nn 4\n0 1  # first\n1 2\n2 3\n")
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_parse_edge_list_range_check_against_header():
    with pytest.raises(ParseError, match="out of range"):
        parse_edge_list("n 2\n0 5")


def test_parse_edge_list_empty_text_gives_empty_graph():
    g = parse_edge_list("")
    assert g.n == 0


@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def test_parse_graph6_known_vectors():
    # expected graphs derived with the independent reference decoder
    for text in ("C~", "A_", "@", "DQc"):
        assert parse_graph6(text) == reference_parse_graph6(text)
    assert parse_graph6("C~") == complete_graph(4)
    assert parse_graph6("A_") == complete_graph(2)
    assert parse_graph6("@") == complete_graph(1)


def test_parse_graph6_header_allowed():
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)


@pytest.mark.parametrize("bad", ["", "C", "C~~", "C\x01", "~~??", "B~"])
def test_parse_graph6_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_graph6(bad)


@given(graphs())
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


def test_graph6_long_form_round_trip():
    g = path_graph(70)
    s = to_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


# ---------------------------------------------------------------------------
# square
# ---------------------------------------------------------------------------


def test_square_of_complete_graph_is_itself():
    for n in (1, 2, 5):
        g = complete_graph(n)
        assert square(g) == g


def test_square_of_star_is_complete():
    g = star_graph(4)
    assert square(g) == complete_graph(5)


def test_square_of_p4_adds_two_chords():
    sq = square(path_graph(4))
    assert sq.edges() == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


@given(graphs())
def test_square_grows_edges_and_keeps_components(g):
    sq = square(g)
    for u, v in g.edges():
        assert sq.has_edge(u, v)
    assert components(sq) == components(g)


@given(graphs())
def test_square_adjacency_matches_distance(g):
    d = distance_matrix(g)
    sq = square(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert sq.has_edge(u, v) == (d[u][v] in (1, 2))


# ---------------------------------------------------------------------------
# distances, components, complement
# ---------------------------------------------------------------------------


def test_distance_matrix_examples():
    assert distance_matrix(path_graph(4))[0][3] == 3
    assert distance_matrix(cycle_graph(6))[0][3] == 3
    disconnected = Graph.from_edges(3, [(0, 1)])
    assert distance_matrix(disconnected)[0][2] == INFINITE


@given(graphs(max_n=7))
def test_distance_matrix_matches_floyd_warshall(g):
    assert distance_matrix(g) == oracle_distances(g)


def test_components_examples():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert components(g) == [frozenset({0, 1, 2}), frozenset({3, 4})]
    assert components(cycle_graph(5)) == [frozenset(range(5))]
    assert components(Graph.from_edges(3, [])) == [
        frozenset({0}), frozenset({1}), frozenset({2}),
    ]


def test_complement_examples():
    assert complement(complete_graph(4)).edge_count == 0
    co_c5 = complement(cycle_graph(5))
    assert canonical_graph(co_c5) == canonical_graph(cycle_graph(5))


@given(graphs())
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


# ---------------------------------------------------------------------------
# induced subgraphs
# ---------------------------------------------------------------------------


def test_induced_subgraph_examples():
    empty, remap = induced_subgraph(cycle_graph(6), [])
    assert empty.n == 0 and remap == ()
    p3, remap = induced_subgraph(cycle_graph(6), [0, 1, 2])
    assert p3.edges() == [(0, 1), (1, 2)]
    assert remap == (0, 1, 2)
    g = DIAMOND
    same, remap = induced_subgraph(g, [3, 1, 2, 0, 1])
    assert same is g and remap == (0, 1, 2, 3)


@given(graphs(max_n=9), st.data())
def test_induced_subgraph_matches_the_pairwise_oracle(g, data):
    everything = list(range(g.n))
    some = st.lists(st.sampled_from(everything), max_size=2 * g.n) if g.n else st.just([])
    vertices = data.draw(st.one_of(st.just([]), st.just(everything[::-1]), some))
    assert induced_subgraph(g, vertices) == oracle_induced_subgraph(g, vertices)
    for bad in (g.n, -1):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            induced_subgraph(g, vertices + [bad])


def test_symmetric_difference_subgraph():
    p4 = path_graph(4)
    assert symmetric_difference_subgraph(p4, {0, 3}, {0, 3}).n == 0
    h = symmetric_difference_subgraph(p4, {0, 3}, {0, 2})
    assert h.n == 2 and h.edges() == [(0, 1)]  # spanned by {2, 3}
    h2 = symmetric_difference_subgraph(p4, {0}, {3})
    assert h2.n == 2 and h2.edge_count == 0


# ---------------------------------------------------------------------------
# girth, chordality, trees
# ---------------------------------------------------------------------------


def test_girth_examples():
    assert girth(cycle_graph(6)) == 6
    assert girth(path_graph(5)) == INFINITE
    assert girth(DIAMOND) == 3
    assert girth(cycle_graph(12)) == 12


@given(graphs(max_n=7))
@settings(max_examples=60)
def test_girth_matches_oracle(g):
    assert girth(g) == oracle_girth(g)


def test_chordal_examples():
    assert is_chordal(path_graph(6))
    assert not is_chordal(cycle_graph(4))
    assert is_chordal(DIAMOND)
    assert not is_chordal(cycle_graph(5))
    assert is_chordal(complete_graph(5))


def test_perfect_elimination_ordering_is_certified():
    order = perfect_elimination_ordering(DIAMOND)
    assert order is not None and sorted(order) == [0, 1, 2, 3]
    assert perfect_elimination_ordering(cycle_graph(4)) is None


@given(graphs(max_n=7))
@settings(max_examples=60)
def test_chordal_matches_oracle(g):
    assert is_chordal(g) == oracle_is_chordal(g)


def test_is_tree_examples():
    assert is_tree(path_graph(4))
    assert not is_tree(cycle_graph(4))
    assert is_tree(complete_graph(1))
    assert not is_tree(Graph.from_edges(2, []))


def test_is_connected_and_bipartite():
    assert is_connected(complete_graph(1))
    assert is_connected(Graph(0, ()))
    assert not is_connected(Graph.from_edges(2, []))
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------


def test_graph_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError, match="asymmetric adjacency between 1 and 0"):
        Graph(2, (2, 0))
    # seen only from the lower triangle: the degree sum must catch it
    with pytest.raises(ValueError, match="asymmetric adjacency between 0 and 1"):
        Graph(2, (0, 1))
    with pytest.raises(ValueError, match="asymmetric adjacency between 0 and 2"):
        Graph(3, (0b010, 0b101, 0b011))
    with pytest.raises(ValueError):
        Graph(1, (1,))
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


@pytest.mark.parametrize("n, adj, message", [
    (2, (0b100, 0), "neighbour of 0 out of range"),
    (3, (0, 0b10000, 0), "neighbour of 1 out of range"),
    (2, (-2, 0), "neighbour of 0 out of range"),
    (3, (0, 0b010, 0), "self-loop at vertex 1"),
    (2, (0,), "adjacency length does not match vertex count"),
    (-1, (), "vertex count must be non-negative"),
])
def test_graph_rejects_loops_stray_bits_and_bad_sizes(n, adj, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, adj)


def test_has_edge_is_false_unless_both_endpoints_are_vertices():
    p3 = path_graph(3)
    assert p3.has_edge(0, 1) and p3.has_edge(1, 0) and not p3.has_edge(0, 2)
    for u, v in [(-1, 1), (1, -1), (5, 1), (1, 5), (3, 0)]:
        assert not p3.has_edge(u, v), (u, v)
    assert not is_valid_matching(p3, [(-1, 1)])
    assert not is_valid_matching(p3, [(2, 3)])


@given(graphs(max_n=6), st.randoms(use_true_random=False))
def test_canonical_form_is_isomorphism_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_graph(permuted(g, tuple(perm))) == canonical_graph(g)
