import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squarestable.graphs as graphs_module
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
    _is_clique_mask,
    bit_indices,
    complement,
    components,
    distance_matrix,
    format_edge_list,
    girth,
    induced_subgraph,
    is_bipartite,
    is_chordal,
    is_connected,
    is_stable_set,
    is_tree,
    parse_edge_list,
    parse_graph6,
    perfect_elimination_ordering,
    set_of,
    square,
    to_graph6,
)
from squarestable.matchings import is_valid_matching, match_into
from oracles import (
    oracle_bits,
    oracle_distances,
    oracle_girth,
    oracle_graph_fault,
    oracle_induced_subgraph,
    oracle_is_chordal,
    oracle_is_clique,
    oracle_is_elimination_ordering,
    oracle_is_stable_set,
    permuted,
    reference_parse_graph6,
)
from strategies import chordal_graphs, graphs, sparse_graphs

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


@pytest.mark.parametrize("text, message", [
    ("n 3 4\n0 1", "line 1: malformed header, expected 'n <count>'"),
    ("n x\n0 1", "line 1: non-integer vertex count 'x'"),
    ("n -2", "line 1: negative vertex count"),
    ("0 1\n1 2 3", "line 2: expected 'u v', got '1 2 3'"),
    ("0 1\n-1 2", "line 2: negative vertex index"),
], ids=["header", "count_not_integer", "count_negative", "not_a_pair", "index_negative"])
def test_parse_edge_list_names_each_fault(text, message):
    with pytest.raises(ParseError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


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


GRAPH6_FAULTS = {
    "": "empty graph6 string",
    "C": "graph6 payload has 0 sextets, expected 1 for n=4",
    "C~~": "graph6 payload has 2 sextets, expected 1 for n=4",
    "C\x01": "invalid character in graph6 string",
    "~??": "truncated graph6 long-form header",
    "~~??": "graph6 8-byte order encoding not supported",
    "B~": "nonzero padding bits in graph6 payload",
}


@pytest.mark.parametrize("bad", list(GRAPH6_FAULTS))
def test_parse_graph6_rejects_malformed(bad):
    with pytest.raises(ParseError) as info:
        parse_graph6(bad)
    assert str(info.value) == GRAPH6_FAULTS[bad]


def test_to_graph6_refuses_orders_beyond_the_long_form():
    n = 258048
    with pytest.raises(ValueError, match="^graph too large for supported graph6 forms$"):
        to_graph6(Graph(n, (0,) * n))


@given(graphs())
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


def test_graph6_long_form_round_trip():
    g = path_graph(70)
    s = to_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def _graph6_both_ways(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    text = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert to_graph6(g) == text
    assert parse_graph6(text) == g


@pytest.mark.parametrize("n", [0, 1, 2, 61, 62, 63, 64, 100])
def test_graph6_matches_networkx_both_ways(n):
    # 63 and up take the long form, which round trips alone would not pin
    nx = pytest.importorskip("networkx")
    for seed, p in enumerate((0.1, 0.5, 0.9)):
        h = nx.gnp_random_graph(n, p, seed=seed)
        _graph6_both_ways(nx, Graph.from_edges(n, h.edges()))


@given(graphs(max_n=12))
def test_graph6_matches_networkx_on_small_graphs(g):
    _graph6_both_ways(pytest.importorskip("networkx"), g)


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


@given(st.one_of(graphs(), sparse_graphs()))
def test_square_adjacency_matches_the_floyd_warshall_distances(g):
    d = oracle_distances(g)
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


@given(st.one_of(graphs(max_n=10), sparse_graphs()))
def test_components_and_connectivity_match_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    expected = sorted((frozenset(c) for c in nx.connected_components(h)), key=min)
    assert components(g) == expected
    assert is_connected(g) == (len(expected) <= 1)


@given(st.one_of(graphs(max_n=10), sparse_graphs()))
@settings(max_examples=300)
def test_is_bipartite_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    assert is_bipartite(g) == nx.is_bipartite(h), g


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


@given(st.one_of(graphs(max_n=12), sparse_graphs(max_n=12)))
@settings(max_examples=300)
def test_girth_matches_networkx_up_to_12_vertices(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    assert girth(g) == nx.girth(h)


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


@given(st.one_of(sparse_graphs(), chordal_graphs()))
@settings(max_examples=300)
def test_chordality_matches_networkx_up_to_14_vertices(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    chordal = nx.is_chordal(h)
    assert is_chordal(g) == chordal
    order = perfect_elimination_ordering(g)
    assert (order is not None) == chordal
    if chordal:
        assert oracle_is_elimination_ordering(g, order), order


def test_is_tree_examples():
    assert is_tree(path_graph(4))
    assert not is_tree(cycle_graph(4))
    assert is_tree(complete_graph(1))
    assert not is_tree(Graph.from_edges(2, []))


def test_bit_kernel_matches_its_definition(monkeypatch):
    # from empty byte tables, so that each is built as a mask first reaches
    # its offset; masks of 65 bits and more take the bit-at-a-time loop
    monkeypatch.setattr(graphs_module, "_BYTE_BITS", [])
    rng = random.Random(24)
    masks = [0] + [1 << v for v in range(130)]
    masks += [rng.getrandbits(k) | 1 << (k - 1) for k in range(1, 131) for _ in range(20)]
    rng.shuffle(masks)
    for m in masks:
        indices = oracle_bits(m)
        assert bit_indices(m) == indices, m
        assert set_of(m) == frozenset(indices), m
        assert sum(1 << v for v in indices) == m, m
    assert len(graphs_module._BYTE_BITS) == 8


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
    with pytest.raises(ValueError, match=r"^edge \(0, 2\) out of range for n=2$"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="^cannot add a self-loop$"):
        Graph(2, (0, 0)).add_edge(1, 1)


@pytest.mark.parametrize("n, adj, message", [
    (2, (0b100, 0), "neighbour of 0 out of range"),
    (3, (0, 0b10000, 0), "neighbour of 1 out of range"),
    (2, (-2, 0), "neighbour of 0 out of range"),
    (3, (0, 0b010, 0), "self-loop at vertex 1"),
    (2, (0,), "adjacency length does not match vertex count"),
    (-1, (), "vertex count must be non-negative"),
    (2, [0, 0], "adjacency must be a tuple of ints"),
    (2, (0.0, 0), "adjacency must be a tuple of ints"),
    (2, ("0", "0"), "adjacency must be a tuple of ints"),
    (2, "00", "adjacency must be a tuple of ints"),
])
def test_graph_rejects_loops_stray_bits_and_bad_sizes(n, adj, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, adj)


@st.composite
def adjacency_rows(draw):
    # a symmetric loopless matrix of 0..70 vertices, then at most one
    # corruption: a flipped bit above or below the diagonal, a bit on it, a
    # bit at n..n+3, or a negative row
    n = draw(st.integers(0, 70))
    upper = draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)) if n > 1 else 0
    rows = [0] * n
    for v in range(n):
        for u in range(v + 1, n):
            if upper & 1:
                rows[v] |= 1 << u
                rows[u] |= 1 << v
            upper >>= 1
    fault = draw(st.sampled_from(["none", "upper", "lower", "diagonal", "stray", "negative"]))
    if n and fault != "none":
        v = draw(st.integers(0, n - 1))
        if fault in ("upper", "lower") and n > 1:
            u = draw(st.integers(0, n - 2))
            u += u >= v
            lo, hi = sorted((u, v))
            if fault == "upper":
                rows[lo] ^= 1 << hi
            else:
                rows[hi] ^= 1 << lo
        elif fault == "diagonal":
            rows[v] ^= 1 << v
        elif fault == "stray":
            rows[v] ^= 1 << (n + draw(st.integers(0, 3)))
        elif fault == "negative":
            rows[v] = draw(st.integers(-(1 << n + 4), -1))
    return n, tuple(rows)


@given(adjacency_rows())
@settings(max_examples=300)
def test_graph_accepts_exactly_the_rows_the_walk_accepts(case):
    n, rows = case
    message = oracle_graph_fault(n, rows)
    if message is None:
        assert Graph(n, rows).adj == rows
    else:
        with pytest.raises(ValueError) as info:
            Graph(n, rows)
        assert str(info.value) == message


def test_large_graphs_validate_in_time_linear_in_their_rows():
    # validation walks the set bits of each row, so thousands of vertices
    # with few edges cost milliseconds, whatever the vertex count
    start = time.perf_counter()
    empty = Graph.from_edges(5000, [])
    path = Graph.from_edges(5000, [(v, v + 1) for v in range(4999)])
    assert time.perf_counter() - start < 2
    assert empty.edge_count == 0 and path.edge_count == 4999


def test_has_edge_is_false_unless_both_endpoints_are_vertices():
    p3 = path_graph(3)
    assert p3.has_edge(0, 1) and p3.has_edge(1, 0) and not p3.has_edge(0, 2)
    for u, v in [(-1, 1), (1, -1), (5, 1), (1, 5), (3, 0)]:
        assert not p3.has_edge(u, v), (u, v)
    assert not is_valid_matching(p3, [(-1, 1)])
    assert not is_valid_matching(p3, [(2, 3)])


@pytest.mark.parametrize("call, bad", [
    pytest.param(lambda g: is_stable_set(g, [0, 3]), 3, id="is_stable_set"),
    pytest.param(lambda g: is_stable_set(g, [-2]), -2, id="is_stable_set-negative"),
    pytest.param(lambda g: g.add_edge(0, 5), 5, id="add_edge"),
    pytest.param(lambda g: g.add_edge(-1, 0), -1, id="add_edge-negative"),
    pytest.param(lambda g: g.remove_edge(0, 5), 5, id="remove_edge"),
    pytest.param(lambda g: g.remove_edge(-1, 0), -1, id="remove_edge-negative"),
    pytest.param(lambda g: g.degree(5), 5, id="degree"),
    pytest.param(lambda g: g.degree(-1), -1, id="degree-negative"),
    pytest.param(lambda g: match_into(g, {5}, {0}), 5, id="match_into"),
    pytest.param(lambda g: match_into(g, {-1}, {0}), -1, id="match_into-negative"),
    pytest.param(lambda g: match_into(g, {0}, {5}), 5, id="match_into-into"),
])
def test_out_of_range_vertices_are_refused_by_name(call, bad):
    with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
        call(path_graph(3))


@given(st.one_of(
    graphs(max_n=10), sparse_graphs(), chordal_graphs(), sparse_graphs().map(complement)),
    st.data())
def test_is_clique_matches_the_pairwise_oracle(g, data):
    # parts of a closed neighbourhood, and of a dense graph, miss few pairs
    if g.n and data.draw(st.booleans()):
        v = data.draw(st.integers(0, g.n - 1))
        within = [v] + [u for u in range(g.n) if g.has_edge(u, v)]
    else:
        within = list(range(g.n))
    pick = data.draw(st.integers(0, (1 << len(within)) - 1))
    vertices = [w for i, w in enumerate(within) if pick >> i & 1]
    mask = sum(1 << w for w in vertices)
    assert _is_clique_mask(g.adj, mask) == oracle_is_clique(g, vertices)


def test_is_clique_sees_any_one_missing_pair():
    for n in range(2, 7):
        full = (1 << n) - 1
        assert _is_clique_mask(complete_graph(n).adj, full)
        for u in range(n):
            for v in range(u + 1, n):
                assert not _is_clique_mask(complete_graph(n).remove_edge(u, v).adj, full), (n, u, v)


@given(st.one_of(graphs(max_n=10), sparse_graphs()), st.data())
def test_is_stable_set_matches_the_pairwise_oracle(g, data):
    vertices = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n)) if g.n else []
    assert is_stable_set(g, vertices) == oracle_is_stable_set(g, vertices)


@given(graphs(max_n=6), st.randoms(use_true_random=False))
def test_canonical_form_is_isomorphism_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_graph(permuted(g, tuple(perm))) == canonical_graph(g)
