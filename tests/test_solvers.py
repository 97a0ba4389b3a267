import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squarestable.errors import CapExceededError
from squarestable.generate import (
    complete_graph,
    corona_with_k1,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)
from squarestable import solvers
from squarestable.graphs import Graph, bit_indices, induced_subgraph, is_stable_set, square
from squarestable.matchings import matching_number
from squarestable.solvers import (
    _alpha_mask,
    _clique_partition,
    _counted,
    clique_cover,
    clique_cover_number,
    domination_number,
    enumerate_maximum_stable_sets,
    independent_domination_number,
    invariant_chain,
    maximum_stable_set,
    stability_number,
)
from oracles import (
    maximal_stable_sets,
    oracle_alpha,
    oracle_gamma,
    oracle_idom,
    oracle_is_clique,
    oracle_maximal_stable_sets,
    oracle_omega,
    oracle_theta,
    random_graph,
)
from strategies import graphs, graphs_with_pendants


# ---------------------------------------------------------------------------
# stability number and witnesses
# ---------------------------------------------------------------------------


def test_stability_number_examples():
    assert stability_number(cycle_graph(12)) == 6
    assert stability_number(square(cycle_graph(12))) == 4
    for n in (1, 2, 6):
        assert stability_number(complete_graph(n)) == 1
    assert stability_number(star_graph(5)) == 5


def test_maximum_stable_set_is_lex_smallest():
    assert maximum_stable_set(path_graph(4)) == {0, 2}
    assert maximum_stable_set(cycle_graph(4)) == {0, 2}
    assert maximum_stable_set(complete_graph(3)) == {0}


def test_least_set_walk_starts_from_the_alpha_search_witness(monkeypatch):
    # The decision searches the walk for the least maximum stable set makes
    # over 60 seeded graphs and their squares, once alpha is stored, and the
    # vertices they are handed.  Starting from the set the alpha search
    # found, it makes 261 and hands them 1,243; starting from no witness,
    # it made 352 and handed them 1,981.
    searches = handed = 0
    search = solvers._alpha_mask

    def counted(adj, mask, floor, stop):
        nonlocal searches, handed
        searches += 1
        handed += mask.bit_count()
        return search(adj, mask, floor, stop)

    graphs = [random_connected_graph(n, s) for n in (12, 18, 24) for s in range(20)]
    for g in graphs + [square(g) for g in graphs]:
        solvers._maximum(g)
        monkeypatch.setattr(solvers, "_alpha_mask", counted)
        least = solvers._least_maximum_stable_set.__wrapped__(g)
        monkeypatch.setattr(solvers, "_alpha_mask", search)
        assert least == solvers._least_maximum_stable_set(g)
    assert searches <= 261 and handed <= 1243, (searches, handed)


@given(graphs())
def test_stability_number_matches_oracle(g):
    assert stability_number(g) == oracle_alpha(g)


@given(graphs(max_n=7))
def test_witness_is_stable_maximum_and_lex_minimal(g):
    w = maximum_stable_set(g)
    assert is_stable_set(g, w)
    assert len(w) == stability_number(g)
    assert sorted(w) == min((sorted(s) for s in oracle_omega(g)), default=[])


def test_stability_number_matches_networkx_at_scale():
    # alpha(G) is the clique number of the complement; networkx's own
    # branch-and-bound shares no code with the package
    nx = pytest.importorskip("networkx")
    inputs = [cycle_graph(50), random_tree(64, 1), corona_with_k1(random_connected_graph(24, 0))]
    for n in (24, 36, 48):
        for s in range(10):
            g = random_connected_graph(n, s)
            inputs += [g, square(g)]
    for g in inputs:
        co = _complement(g)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(co.edges())
        assert stability_number(g) == nx.max_weight_clique(h, weight=None)[1]


def test_masked_stability_number_matches_oracle():
    # the masked calls of classify: alpha of G - v, of G - N[u] - N[v], and
    # of random induced subgraphs
    rng = random.Random(7)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        for h in (g, square(g)):
            full = h.full_mask()
            masks = [full & ~(1 << rng.randrange(h.n))] + [rng.getrandbits(h.n) for _ in range(3)]
            masks += [full & ~(h.adj[u] | h.adj[v]) for u, v in list(h.edges())[:2]]
            for m in masks:
                sub, _ = induced_subgraph(h, bit_indices(m))
                alpha = oracle_alpha(sub)
                assert _alpha_mask(h.adj, m, -1, h.n).bit_count() == alpha
                # the decisions: every floor and stop around alpha
                for floor in range(alpha - 2, alpha + 2):
                    for stop in (floor + 1, alpha, alpha + 1, h.n):
                        if stop > max(floor, -1):
                            _check_decision(h.adj, m, floor, stop, alpha)


def _check_decision(adj: tuple[int, ...], mask: int, floor: int, stop: int, alpha: int) -> None:
    # the contract of _alpha_mask: no witness when alpha is at most the floor,
    # and otherwise a stable witness inside the mask of min(alpha, stop)
    # vertices
    witness = _alpha_mask(adj, mask, floor, stop)
    assert (witness is None) == (alpha <= floor)
    if witness is not None:
        assert witness & ~mask == 0 and witness.bit_count() == min(alpha, stop)
        assert all(adj[v] & witness == 0 for v in bit_indices(witness))


@given(st.one_of(graphs(max_n=10), graphs_with_pendants()), st.data())
@settings(max_examples=300)
def test_alpha_mask_stops_at_the_bound_it_is_given(g, data):
    mask = data.draw(st.integers(0, g.full_mask()))
    floor = data.draw(st.integers(-2, g.n))
    stop = data.draw(st.integers(max(floor + 1, 0), g.n + 2))
    sub, _ = induced_subgraph(g, bit_indices(mask))
    _check_decision(g.adj, mask, floor, stop, oracle_alpha(sub))


def test_folding_alone_solves_forests_and_isolated_vertices(monkeypatch):
    # Every vertex of a forest folds away, so the branch-and-bound partitions
    # only the empty set; alpha = n - mu by Koenig's theorem.
    seen = []
    partition = solvers._clique_partition

    def recording_partition(adj, cand):
        seen.append(cand)
        return partition(adj, cand)

    monkeypatch.setattr(solvers, "_clique_partition", recording_partition)
    rng = random.Random(64)
    forests = [Graph.from_edges(12, []), star_graph(20), path_graph(33)]
    forests += [random_tree(n, n) for n in range(1, 13)]
    for n in (16, 40, 64):
        for s in range(3):
            t = random_tree(n, s)
            forests.append(t)
            kept = [e for e in t.edges() if rng.random() < 0.7]
            forests.append(Graph.from_edges(n, kept))
    for f in forests:
        witness = _alpha_mask(f.adj, f.full_mask(), -1, f.n)
        assert witness.bit_count() == f.n - matching_number(f)
        assert is_stable_set(f, bit_indices(witness))
        if f.n <= 12:
            assert witness.bit_count() == oracle_alpha(f)
    assert set(seen) == {0}


def _degree_branching_alpha(adj: tuple[int, ...], mask: int) -> int:
    # the search it replaced: two-way branching on a vertex of maximum degree
    # among the candidates, bounded by a greedy clique partition rebuilt at
    # every node
    best = 0

    def rec(cand: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        if not cand or size + _first_fit_clique_count(adj, cand) <= best:
            return
        v = max(bit_indices(cand), key=lambda w: ((adj[w] & cand).bit_count(), -w))
        rec(cand & ~adj[v] & ~(1 << v), size + 1)
        rec(cand & ~(1 << v), size)

    rec(mask, 0)
    return best


def _first_fit_clique_count(adj: tuple[int, ...], cand: int) -> int:
    # the bound it replaced: each vertex in turn joins the first clique that
    # it is adjacent to throughout
    cliques: list[int] = []
    for v in bit_indices(cand):
        for i, cl in enumerate(cliques):
            if cl & ~adj[v] == 0:
                cliques[i] = cl | 1 << v
                break
        else:
            cliques.append(1 << v)
    return len(cliques)


def test_stability_number_matches_the_search_it_replaced():
    # the class count is also Omega's bound, so its counts must equal the
    # first-fit bound's for Omega's order and cost to stay as they were
    rng = random.Random(2003)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 16), rng.random())
        for h in (g, square(g)):
            for m in (h.full_mask(), rng.getrandbits(h.n)):
                assert (_alpha_mask(h.adj, m, -1, h.n).bit_count()
                        == _degree_branching_alpha(h.adj, m))
                assert len(_clique_partition(h.adj, m)) == _first_fit_clique_count(h.adj, m)


# ---------------------------------------------------------------------------
# stable-set families
# ---------------------------------------------------------------------------


def test_omega_examples():
    kn = enumerate_maximum_stable_sets(complete_graph(4))
    assert kn.sets == tuple(frozenset({v}) for v in range(4))
    assert kn.core == frozenset()

    c4 = enumerate_maximum_stable_sets(cycle_graph(4))
    assert c4.sets == (frozenset({0, 2}), frozenset({1, 3}))

    p4 = enumerate_maximum_stable_sets(path_graph(4))
    assert [sorted(s) for s in p4.sets] == [[0, 2], [0, 3], [1, 3]]
    assert p4.core == frozenset()


def test_omega_core_of_star():
    fam = enumerate_maximum_stable_sets(star_graph(4))
    assert fam.sets == (frozenset({1, 2, 3, 4}),)
    assert fam.core == frozenset({1, 2, 3, 4})


@given(graphs(max_n=7))
def test_omega_matches_oracle_and_is_sorted(g):
    fam = enumerate_maximum_stable_sets(g)
    assert list(fam.sets) == oracle_omega(g)
    assert fam.core == frozenset.intersection(*oracle_omega(g))
    assert [sorted(s) for s in fam.sets] == sorted([sorted(s) for s in fam.sets])


@given(graphs(max_n=7))
def test_maximal_stable_sets_match_oracle(g):
    # the Bron-Kerbosch reference of the larger tests against the subset scan
    assert maximal_stable_sets(g) == oracle_maximal_stable_sets(g)


@given(graphs(max_n=7))
def test_square_omega_members_are_stable_in_base(g):
    for s in enumerate_maximum_stable_sets(square(g)).sets:
        assert is_stable_set(g, s)


# ---------------------------------------------------------------------------
# domination and clique cover
# ---------------------------------------------------------------------------


def test_domination_examples():
    assert domination_number(complete_graph(5)) == 1
    assert domination_number(cycle_graph(12)) == 4
    assert domination_number(Graph.from_edges(5, [])) == 5


def test_independent_domination_examples():
    assert independent_domination_number(cycle_graph(12)) == 4
    assert independent_domination_number(complete_graph(7)) == 1
    assert independent_domination_number(path_graph(4)) == 2


def test_independent_domination_matches_oracle_on_graphs_and_squares():
    rng = random.Random(8128)
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        for h in (g, square(g)):
            assert independent_domination_number(h) == oracle_idom(h), h


def test_independent_domination_is_the_smallest_maximal_stable_set():
    # the restricted domination search against the enumeration it replaced
    rng = random.Random(496)
    inputs = [random_connected_graph(n, s) for n in range(1, 21) for s in range(4)]
    inputs += [random_tree(n, s) for n in range(2, 21) for s in range(2)]
    inputs += [random_graph(rng, rng.randint(0, 20), rng.random()) for _ in range(60)]
    for g in inputs:
        for h in (g, square(g)):
            smallest = min(len(s) for s in maximal_stable_sets(h))
            assert independent_domination_number(h) == smallest, h


def test_clique_cover_examples():
    assert clique_cover_number(complete_graph(6)) == 1
    assert clique_cover_number(cycle_graph(5)) == 3
    assert clique_cover_number(path_graph(4)) == 2


@given(graphs(max_n=7))
@settings(max_examples=60)
def test_clique_cover_witness_partitions_into_cliques(g):
    cover = clique_cover(g)
    seen = set()
    for cl in cover:
        assert oracle_is_clique(g, cl)
        assert not (cl & seen)
        seen |= cl
    assert seen == set(range(g.n))


@given(graphs(max_n=7))
@settings(max_examples=60)
def test_solvers_match_oracles(g):
    assert domination_number(g) == oracle_gamma(g)
    assert independent_domination_number(g) == oracle_idom(g)
    assert clique_cover_number(g) == oracle_theta(g)


def test_solvers_match_oracles_seeded_sample():
    rng = random.Random(424242)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        assert stability_number(g) == oracle_alpha(g)
        assert domination_number(g) == oracle_gamma(g)
        assert clique_cover_number(g) == oracle_theta(g)


def _complement(g: Graph) -> Graph:
    full = g.full_mask()
    return Graph(g.n, tuple(full & ~m & ~(1 << v) for v, m in enumerate(g.adj)))


def _grotzsch_graph() -> Graph:
    # the Mycielskian of C5: triangle-free with chromatic number 4
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    edges += [(10, 5 + i) for i in range(5)]
    return Graph.from_edges(11, edges)


def _assert_clique_partition(g: Graph, cover) -> None:
    assert sorted(v for cl in cover for v in cl) == list(range(g.n))
    assert all(oracle_is_clique(g, cl) for cl in cover)


def test_clique_cover_above_stability_number():
    # theta > alpha: odd holes, an odd antihole, the Grotzsch complement
    cases = [
        (cycle_graph(5), 2, 3),
        (cycle_graph(7), 3, 4),
        (_complement(cycle_graph(7)), 2, 3),
        (_complement(_grotzsch_graph()), 2, 4),
    ]
    for g, alpha, theta in cases:
        assert stability_number(g) == oracle_alpha(g) == alpha
        assert clique_cover_number(g) == oracle_theta(g) == theta
        _assert_clique_partition(g, clique_cover(g))


def test_clique_cover_and_domination_match_oracles_on_graphs_and_squares():
    rng = random.Random(20240601)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        for h in (g, square(g)):
            cover = clique_cover(h)
            _assert_clique_partition(h, cover)
            assert len(cover) == oracle_theta(h)
            assert domination_number(h) == oracle_gamma(h)


def _fixed_order_coloring(adj: tuple[int, ...], n: int) -> int:
    # the colouring it replaced: vertices in a fixed order (greedy clique
    # first, then by degree), greedy-clique lower bound, no colour-degree rule
    if n == 0:
        return 0
    order_by_degree = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    clique, cmask = [], 0
    for v in order_by_degree:
        if cmask & ~adj[v] == 0:
            clique.append(v)
            cmask |= 1 << v
    order = clique + [v for v in order_by_degree if not cmask >> v & 1]
    lower = len(clique)
    greedy: list[int] = []
    for v in order:
        for i, cl in enumerate(greedy):
            if cl & adj[v] == 0:
                greedy[i] = cl | (1 << v)
                break
        else:
            greedy.append(1 << v)
    best_k = len(greedy)
    classes: list[int] = []

    def rec(idx: int) -> None:
        nonlocal best_k
        if len(classes) >= best_k:
            return
        if idx == n:
            best_k = len(classes)
            return
        v = order[idx]
        bit = 1 << v
        for i, cl in enumerate(classes):
            if cl & adj[v] == 0:
                classes[i] = cl | bit
                rec(idx + 1)
                classes[i] = cl
                if best_k == lower:
                    return
        if len(classes) + 1 < best_k:
            classes.append(bit)
            rec(idx + 1)
            classes.pop()

    if best_k > lower:
        rec(0)
    return best_k


def _first_uncovered_domination(g: Graph) -> int:
    # the domination search it replaced: branch over the closed
    # neighbourhood of the first uncovered vertex, bound by
    # ceil(uncovered / largest gain)
    n = g.n
    if n == 0:
        return 0
    closed = tuple(m | (1 << v) for v, m in enumerate(g.adj))
    best = n

    def rec(uncovered: int, size: int) -> None:
        nonlocal best
        if not uncovered:
            best = min(best, size)
            return
        max_cover = max((closed[v] & uncovered).bit_count() for v in range(n))
        if size + -(-uncovered.bit_count() // max_cover) >= best:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        for u in bit_indices(closed[v]):
            rec(uncovered & ~closed[u], size + 1)

    rec(g.full_mask(), 0)
    return best


def _dsatur_cover(g: Graph) -> list[frozenset[int]]:
    # the DSATUR search before its node was made cheaper: levels keep the
    # coloured vertices, the top level is found by a generator, the tie-break
    # is a max over the top level, and every raise builds a new list
    n = g.n
    if n == 0:
        return []
    full = g.full_mask()
    adj = tuple(full & ~m & ~(1 << v) for v, m in enumerate(g.adj))
    lower = stability_number(g)
    best: list[int] = []
    for v in sorted(range(n), key=lambda v: (-adj[v].bit_count(), v)):
        for i, cl in enumerate(best):
            if cl & adj[v] == 0:
                best[i] = cl | (1 << v)
                break
        else:
            best.append(1 << v)
    best_k = len(best)
    classes: list[int] = []
    reach: list[int] = []

    def raised(levels: list[int], inc: int) -> list[int]:
        return [levels[0] & ~inc] + [hi & ~inc | lo & inc for lo, hi in zip(levels, levels[1:])]

    def rec(uncoloured: int, levels: list[int]) -> None:
        nonlocal best, best_k
        if len(classes) >= best_k:
            return
        if not uncoloured:
            best = classes.copy()
            best_k = len(classes)
            return
        top = next(m & uncoloured for m in reversed(levels) if m & uncoloured)
        v = max(bit_indices(top), key=lambda w: ((adj[w] & uncoloured).bit_count(), -w))
        bit = 1 << v
        rest = uncoloured & ~bit
        av = adj[v]
        for i, cl in enumerate(classes):
            if cl & av == 0:
                r = reach[i]
                classes[i], reach[i] = cl | bit, r | av
                rec(rest, raised(levels, av & rest & ~r))
                classes[i], reach[i] = cl, r
                if best_k == lower:
                    return
        if len(classes) + 1 < best_k:
            classes.append(bit)
            reach.append(av)
            rec(rest, raised(levels + [0], av & rest))
            classes.pop()
            reach.pop()

    if best_k > lower:
        rec(full, [full])
    return sorted((frozenset(bit_indices(c)) for c in best), key=sorted)


def _unpruned_domination(g: Graph) -> int:
    # the domination search before it skipped dominated dominators: every
    # dominator of the branching vertex is tried, in decreasing gain
    n = g.n
    if n == 0:
        return 0
    closed = tuple(m | (1 << v) for v, m in enumerate(g.adj))
    branch_order = sorted(range(n), key=lambda v: (closed[v].bit_count(), v))
    best = n

    def rec(uncovered: int, size: int) -> None:
        nonlocal best
        if not uncovered:
            best = min(best, size)
            return
        left, need = uncovered.bit_count(), size
        for c in sorted(((closed[v] & uncovered).bit_count() for v in range(n)), reverse=True):
            need += 1
            left -= c
            if left <= 0 or need >= best:
                break
        if need >= best:
            return
        v = next(v for v in branch_order if uncovered >> v & 1)
        for u in sorted(bit_indices(closed[v]), key=lambda u: -(closed[u] & uncovered).bit_count()):
            rec(uncovered & ~closed[u], size + 1)

    rec(g.full_mask(), 0)
    return best


def _full_node_domination(g: Graph, independent: bool, lower: int = 0) -> int:
    # the domination search before it decided the last member at once: every
    # node that passes the bound sorts its gains and branches, and idom takes
    # its branching vertex from the static fewest-dominator order
    n = g.n
    if n == 0:
        return 0
    closed = tuple(m | (1 << v) for v, m in enumerate(g.adj))
    full = g.full_mask()
    vertices = range(n)
    branch_order = sorted(vertices, key=lambda v: (closed[v].bit_count(), v))
    best = 0
    uncovered = full
    while uncovered:
        gain, pick = -1, 0
        for v in bit_indices(uncovered) if independent else vertices:
            c = (closed[v] & uncovered).bit_count()
            if c > gain:
                gain, pick = c, v
        uncovered &= ~closed[pick]
        best += 1

    def rec(uncovered: int, size: int) -> None:
        nonlocal best
        if best <= lower:
            return
        if not uncovered:
            if size < best:
                best = size
            return
        pool = bit_indices(uncovered) if independent else vertices
        left = uncovered.bit_count()
        need = size
        for c in sorted([(closed[v] & uncovered).bit_count() for v in pool], reverse=True):
            need += 1
            left -= c
            if left <= 0 or need >= best:
                break
        if need >= best:
            return
        v = next(v for v in branch_order if uncovered >> v & 1)
        choices = closed[v] & uncovered if independent else closed[v]
        kept: list[int] = []
        for m in sorted((closed[u] & uncovered for u in bit_indices(choices)),
                        key=lambda m: -m.bit_count()):
            if independent or all(m & ~k for k in kept):
                kept.append(m)
                rec(uncovered & ~m, size + 1)

    rec(full, 0)
    return best


def _assert_domination_matches_the_full_node_search(h: Graph) -> None:
    gamma = _full_node_domination(h, False)
    assert domination_number(h) == gamma, h
    assert independent_domination_number(h) == _full_node_domination(h, True, gamma), h


def test_domination_matches_the_search_before_the_last_member_decision():
    rng = random.Random(1606)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 16), rng.random())
        for h in (g, square(g)):
            _assert_domination_matches_the_full_node_search(h)
    for s in range(20):
        g = random_connected_graph(36, s)
        for h in (g, square(g)):
            _assert_domination_matches_the_full_node_search(h)
    for s in range(4):
        _assert_domination_matches_the_full_node_search(corona_with_k1(random_connected_graph(12, s)))
    for s in range(2):
        g = random_connected_graph(60, s)
        gamma = domination_number(g)
        assert independent_domination_number(g) == _full_node_domination(g, True, gamma), s


def _domination_nodes(h: Graph, independent: bool, lower: int = 0) -> int:
    # the calls of the search's node function, counted by a profile hook
    rec = next(c for c in solvers._domination_search.__code__.co_consts
               if getattr(c, "co_name", None) == "rec")
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is rec:
            count += 1

    sys.setprofile(hook)
    try:
        solvers._domination_search(h, independent, lower)
    finally:
        sys.setprofile(None)
    return count


def test_domination_decides_the_last_member_and_idom_branches_on_fewest_choices():
    # A node one member short of the best decides that member with one
    # intersection, without calling children, and idom branches on the
    # uncovered vertex with the fewest choices.  Over these 40 graphs gamma
    # visits 1,532 and idom 1,695 nodes; deciding the last member by
    # branching, or taking idom's vertex from the static order, visits more.
    gamma_nodes = idom_nodes = 0
    for s in range(20):
        g = random_connected_graph(36, s)
        for h in (g, square(g)):
            gamma_nodes += _domination_nodes(h, False)
            idom_nodes += _domination_nodes(h, True, domination_number(h))
    assert gamma_nodes <= 1532 and idom_nodes <= 1695, (gamma_nodes, idom_nodes)


def test_clique_cover_and_domination_match_the_searches_they_replaced():
    # the cheaper DSATUR node visits the same tree, so the cover is the same
    # list; skipping dominated dominators keeps gamma
    rng = random.Random(16)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 16), rng.random())
        for h in (g, square(g)):
            assert clique_cover_number(h) == _fixed_order_coloring(_complement(h).adj, h.n)
            assert clique_cover(h) == _dsatur_cover(h), h
            assert domination_number(h) == _first_uncovered_domination(h)
            assert domination_number(h) == _unpruned_domination(h), h
    # 55, 5, 28, 51 and 19 grow the five largest trees of the first hundred
    # seeds (2,678 to 1,114 nodes over G and its square), and in each the
    # search improves on the greedy colouring, so a wrong choice of vertex
    # would change the cover
    for s in (*range(10), 19, 28, 51, 55):
        g = random_connected_graph(36, s)
        for h in (g, square(g)):
            assert clique_cover(h) == _dsatur_cover(h), (s, h)


def _count_of(counts: tuple[int, ...], v: int) -> int:
    return sum((sl >> v & 1) << j for j, sl in enumerate(counts))


_MASKS = st.one_of(st.integers(0, (1 << 64) - 1), st.sampled_from([0, 1, (1 << 64) - 1]))


@given(st.lists(_MASKS, max_size=80))
@example([0b1011] * 63)
@example([0, 5, 0])
def test_bit_sliced_counters_match_integer_counts(incs):
    counts: tuple[int, ...] = ()
    plain = [0] * 64
    for inc in incs:
        raised = _counted(counts, inc)
        if not inc:
            assert raised is counts
        counts = raised
        for v in bit_indices(inc):
            plain[v] += 1
        assert [_count_of(counts, v) for v in range(64)] == plain
        # a slice is added only by a carry out of the top one, as a count
        # reaches 1, 2, 4, ..., 32
        assert len(counts) == max(plain).bit_length()


def test_domination_of_coronas():
    # every vertex of a corona has a pendant neighbour, so the sum-of-gains
    # bound is weak; without skipping dominated dominators each of these took
    # seconds
    for s in range(4):
        assert domination_number(corona_with_k1(random_connected_graph(24, s))) == 24


def test_clique_cover_prunes_once_the_best_count_is_reached():
    # theta = 6 > alpha = 5: without the prune on entering a node whose
    # classes already number as many as the best colouring, the search
    # enumerates every 6-colouring of the complement (about a minute)
    g = square(random_connected_graph(36, 1))
    assert stability_number(g) == 5
    cover = clique_cover(g)
    assert len(cover) == 6
    _assert_clique_partition(g, cover)


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------


def test_invariant_chain_c12():
    record = invariant_chain(cycle_graph(12))
    assert record.chain() == (4, 4, 4, 4, 6, 6)
    assert record.mu == 6 and record.n == 12


def test_invariant_chain_complete_and_p4():
    for n in (1, 3, 5):
        assert invariant_chain(complete_graph(n)).chain() == (1,) * 6
    assert invariant_chain(path_graph(4)).chain() == (2,) * 6


@given(graphs(max_n=7))
@settings(max_examples=60)
def test_invariant_chain_is_ordered(g):
    chain = invariant_chain(g).chain()
    assert all(a <= b for a, b in zip(chain, chain[1:]))


def test_stability_number_agrees_with_maximal_enumeration():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert stability_number(g) == max(
            len(s) for s in maximal_stable_sets(g)
        )


# ---------------------------------------------------------------------------
# caps
# ---------------------------------------------------------------------------


def test_solver_cap_refusal():
    g = path_graph(6)
    with pytest.raises(CapExceededError, match="exact solver cap"):
        stability_number(g, cap=5)
    with pytest.raises(CapExceededError, match=r"^exact solver cap exceeded \(6 > 5\)$"):
        clique_cover(g, cap=5)
    assert len(clique_cover(g, cap=6)) == 3
    with pytest.raises(CapExceededError, match="enumeration cap"):
        enumerate_maximum_stable_sets(g, cap=5)
    # refusal is an exception, not an empty family
    assert enumerate_maximum_stable_sets(g, cap=6).sets


# ---------------------------------------------------------------------------
# the per-graph store
# ---------------------------------------------------------------------------

_STORED_SOLVERS = (
    stability_number,
    maximum_stable_set,
    enumerate_maximum_stable_sets,
    independent_domination_number,
    domination_number,
    clique_cover,
    clique_cover_number,
)


def test_a_stored_value_is_still_refused_above_the_cap():
    g = cycle_graph(12)
    for solve in _STORED_SOLVERS:
        solve(g)  # stores the value
        with pytest.raises(CapExceededError):
            solve(g, cap=g.n - 1)
        solve(g, cap=g.n)
    with pytest.raises(CapExceededError, match="enumeration cap"):
        enumerate_maximum_stable_sets(g, cap=5)


def test_stored_lists_are_handed_out_as_copies():
    g = cycle_graph(7)
    cover = clique_cover(g)
    expected = list(cover)
    cover.clear()
    assert clique_cover(g) == expected


def test_equal_graphs_built_apart_give_equal_results():
    for seed in range(6):
        g = random_connected_graph(11, seed)
        h = Graph.from_edges(g.n, reversed(g.edges()))
        assert h == g and h is not g and hash(h) == hash(g)
        for solve in _STORED_SOLVERS:
            assert solve(h) == solve(g), solve.__name__
        assert stability_number(h) == oracle_alpha(g)
        assert clique_cover_number(h) == oracle_theta(g)
        assert square(h) == square(g)
