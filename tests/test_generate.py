from collections import Counter

import pytest

from squarestable.classify import is_square_stable
from squarestable.generate import (
    FIXTURE_NAMES,
    Family,
    FamilySpec,
    canonical_graph,
    canonical_graph6,
    complete_bipartite_graph,
    complete_graph,
    corona_with_k1,
    cycle_graph,
    enumerate_corpus,
    make_family,
    named_fixture,
    path_graph,
    prufer_to_tree,
    random_connected_graph,
    random_tree,
    sample_corpus,
    star_graph,
)
from squarestable.graphs import Graph, is_connected, is_tree, to_graph6
from squarestable.matchings import pendant_perfect_matching
from oracles import all_isomorphism_classes, permuted

# graphs up to isomorphism on 1..7 vertices, and connected ones
ALL_COUNTS = [1, 2, 4, 11, 34, 156, 1044]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_basic_families():
    assert cycle_graph(12).edge_count == 12
    assert path_graph(1).n == 1
    assert star_graph(4) == complete_bipartite_graph(1, 4)
    assert complete_bipartite_graph(2, 3).edge_count == 6
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(0)


def test_corona_attaches_one_pendant_per_vertex():
    g = corona_with_k1(cycle_graph(5))
    assert g.n == 10 and g.edge_count == 10
    assert pendant_perfect_matching(g) is not None
    assert is_square_stable(g)


def test_corona_over_k1_is_single_edge():
    assert corona_with_k1(complete_graph(1)) == path_graph(2)


def test_random_tree_is_deterministic_and_a_tree():
    t1 = random_tree(10, seed=7)
    t2 = random_tree(10, seed=7)
    assert t1 == t2 and is_tree(t1)
    assert random_tree(10, seed=8) != t1


def test_random_connected_graph():
    g = random_connected_graph(9, seed=3)
    assert is_connected(g)
    assert g == random_connected_graph(9, seed=3)


def test_prufer_decoding():
    # sequence (1, 1) encodes the star with centre 1 on four vertices
    assert prufer_to_tree((1, 1), 4).edges() == [(0, 1), (1, 2), (1, 3)]
    assert prufer_to_tree((), 2) == path_graph(2)
    assert prufer_to_tree((), 1).n == 1


def test_make_family_dispatch():
    assert make_family(FamilySpec(Family.CYCLE, n=12)) == cycle_graph(12)
    corona = FamilySpec(Family.CORONA_K1, base=FamilySpec(Family.CYCLE, n=5))
    assert make_family(corona).n == 10
    assert make_family(FamilySpec(Family.NAMED, name="diamond")).edge_count == 5
    with pytest.raises(ValueError):
        make_family(FamilySpec(Family.PATH))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def test_fixture_shapes():
    shapes = {
        "k3_plus_e": (4, 4),
        "diamond": (4, 5),
        "fig_ss_not_vwc": (5, 5),
        "fig_upm_not_pendant": (10, 11),
        "fig_bip_vwc_not_ss": (6, 6),
    }
    assert set(shapes) == set(FIXTURE_NAMES)
    for name, (n, m) in shapes.items():
        g = named_fixture(name)
        assert (g.n, g.edge_count) == (n, m)


def test_unknown_fixture_rejected():
    with pytest.raises(ValueError, match="unknown fixture"):
        named_fixture("petersen")


# ---------------------------------------------------------------------------
# canonical forms and corpora
# ---------------------------------------------------------------------------


def test_canonical_graph_fixes_a_representative():
    g = cycle_graph(5)
    h = permuted(g, (2, 4, 0, 3, 1))
    assert canonical_graph(g) == canonical_graph(h)
    assert canonical_graph6(g) == canonical_graph6(h)


def test_canonical_graph_is_the_minimum_over_relabellings():
    # explicit minimisation over all permutations, in the same column order
    import random
    from itertools import permutations

    from oracles import random_graph

    def column_key(g):
        cols = []
        for k in range(1, g.n):
            col = 0
            for i in range(k):
                col = (col << 1) | (g.adj[k] >> i & 1)
            cols.append(col)
        return tuple(cols)

    rng = random.Random(161803)
    graphs = [random_graph(rng, rng.randint(1, 6), rng.random()) for _ in range(120)]
    # twin-rich graphs, where the search skips all but the least of each
    # unused set of twins
    graphs += [
        Graph(7, (0,) * 7),
        complete_graph(7),
        star_graph(6),
        star_graph(3),
        complete_bipartite_graph(3, 4),
        complete_bipartite_graph(2, 2),
        Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),
        Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)]),
        Graph.from_edges(5, [(3, 4), (0, 3), (1, 4), (2, 4)]),
    ]
    for g in graphs:
        want = min(
            (permuted(g, perm) for perm in permutations(range(g.n))),
            key=column_key,
        )
        assert canonical_graph(g) == want


def test_canonical_graph_of_large_twin_classes_is_fast():
    # n! relabellings each, but all vertices (or all leaves, or each side)
    # are twins, so the search visits a handful of prefixes per position
    assert canonical_graph(Graph(16, (0,) * 16)) == Graph(16, (0,) * 16)
    assert canonical_graph(complete_graph(16)) == complete_graph(16)
    # the sparse columns come first, so the centre goes last
    assert canonical_graph(star_graph(15)) == Graph.from_edges(
        16, [(leaf, 15) for leaf in range(15)])
    sides_interleaved = permuted(complete_bipartite_graph(6, 6),
                                 (0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11))
    assert canonical_graph(sides_interleaved) == complete_bipartite_graph(6, 6)


def test_corpus_counts_match_known_values():
    for max_n in (4, 5):
        per_n = Counter(g.n for g in enumerate_corpus(max_n, connected_only=False))
        assert [per_n[i] for i in range(1, max_n + 1)] == ALL_COUNTS[:max_n]
        per_n = Counter(g.n for g in enumerate_corpus(max_n, connected_only=True))
        assert [per_n[i] for i in range(1, max_n + 1)] == CONNECTED_COUNTS[:max_n]


def test_corpus_matches_naive_permutation_scan():
    # independent dedup: minimise over all 4! relabellings of all 64 graphs
    corpus4 = [g for g in enumerate_corpus(4, connected_only=False) if g.n == 4]
    assert len(corpus4) == len(all_isomorphism_classes(4)) == 11


def test_corpus_matches_extension_and_dedup():
    # the generation it replaced: canonicalise every one-vertex extension of
    # every graph of the level below, and deduplicate by graph6
    level = {to_graph6(Graph(1, (0,))): Graph(1, (0,))}
    want = sorted(level)
    for k in range(1, 6):
        nxt = {}
        for g in level.values():
            for mask in range(1 << k):
                edges = g.edges() + [(i, k) for i in range(k) if mask >> i & 1]
                h = canonical_graph(Graph.from_edges(k + 1, edges))
                nxt.setdefault(to_graph6(h), h)
        level = nxt
        want += sorted(level)
    assert [to_graph6(g) for g in enumerate_corpus(6, connected_only=False)] == want


def test_corpus_matches_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = Counter()
    keys = set()
    for h in nx.graph_atlas_g()[1:]:  # the atlas starts with the null graph
        index = {v: i for i, v in enumerate(h.nodes)}
        g = Graph.from_edges(len(index), [(index[u], index[v]) for u, v in h.edges])
        atlas[g.n] += 1
        keys.add(canonical_graph6(g))
    assert [atlas[n] for n in range(1, 8)] == ALL_COUNTS
    assert len(keys) == sum(ALL_COUNTS)
    assert keys == {to_graph6(g) for g in enumerate_corpus(7, connected_only=False)}


def test_corpus_has_no_isomorphic_duplicates():
    seen = set()
    for g in enumerate_corpus(5, connected_only=False):
        key = canonical_graph6(g)
        assert key not in seen
        seen.add(key)
        assert to_graph6(g) == key  # corpus graphs come out canonical


def test_corpus_ordering_is_deterministic():
    a = [(g.n, to_graph6(g)) for g in enumerate_corpus(5)]
    b = [(g.n, to_graph6(g)) for g in enumerate_corpus(5)]
    assert a == b
    assert a == sorted(a)  # by order, then canonical key


def test_corpus_cap():
    with pytest.raises(ValueError, match="capped"):
        list(enumerate_corpus(10))


def test_corpora_need_at_least_one_vertex():
    for corpus in (enumerate_corpus(0), sample_corpus(5, 0, seed=1)):
        with pytest.raises(ValueError, match="max_n must be at least 1"):
            list(corpus)


def test_sample_corpus_is_deterministic():
    a = [to_graph6(g) for g in sample_corpus(25, 9, seed=11)]
    b = [to_graph6(g) for g in sample_corpus(25, 9, seed=11)]
    assert a == b and len(a) == 25
    for g in sample_corpus(10, 8, seed=2):
        assert is_connected(g)
    disconnected_ok = sample_corpus(10, 8, seed=2, connected_only=False)
    assert len(list(disconnected_ok)) == 10
