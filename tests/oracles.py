"""Naive exponential oracles, independent of the library's solvers.

Everything here is a direct transcription of a definition: subset scans,
subset-DP, Floyd-Warshall.  Slow on purpose; used only to cross-check the
real solvers on small graphs.  ``bron_kerbosch`` is the fast exception: the
maximal cliques, and through the complement the maximal stable sets, of
graphs of 20-30 vertices, itself checked against the subset scan.

Most definitional routes of the class predicates at the end are the
exception: they read the library's exact alpha, its family of maximum
stable sets, its matching counter and its induced-matching test on edited
graphs, stable subsets and perfect matchings, so they are independent of
the characterisations that ``classify`` and ``matchings`` compute, not of
the solvers.  The simplexes by maximal cliques and P2 by
stable subsets read only the adjacency.
"""

from functools import lru_cache
from itertools import permutations
import random

from squarestable.graphs import Graph, INFINITE, bit_indices, mask_of, stable_subsets
from squarestable.matchings import _count_matchings_into, is_induced_matching
from squarestable.solvers import enumerate_maximum_stable_sets, stability_number


def _is_stable_mask(g: Graph, m: int) -> bool:
    mm = m
    while mm:
        b = mm & -mm
        if g.adj[b.bit_length() - 1] & m:
            return False
        mm ^= b
    return True


def _is_clique_mask(g: Graph, m: int) -> bool:
    mm = m
    while mm:
        b = mm & -mm
        v = b.bit_length() - 1
        if m & ~g.adj[v] & ~b:
            return False
        mm ^= b
    return True


def oracle_alpha(g: Graph) -> int:
    return max(
        m.bit_count() for m in range(1 << g.n) if _is_stable_mask(g, m)
    ) if g.n else 0


def oracle_omega(g: Graph) -> list[frozenset]:
    alpha = oracle_alpha(g)
    out = [
        frozenset(bit_indices(m))
        for m in range(1 << g.n)
        if m.bit_count() == alpha and _is_stable_mask(g, m)
    ]
    return sorted(out, key=sorted)


def oracle_maximal_stable_sets(g: Graph) -> list[frozenset]:
    full = (1 << g.n) - 1
    out = []
    for m in range(1 << g.n):
        if not _is_stable_mask(g, m):
            continue
        addable = False
        for v in bit_indices(full & ~m):
            if not g.adj[v] & m:
                addable = True
                break
        if not addable:
            out.append(frozenset(bit_indices(m)))
    return sorted(out, key=sorted)


def bron_kerbosch(adj, full: int) -> list[int]:
    """Every maximal clique, as a mask, of the graph on the vertices of
    ``full`` with adjacency masks ``adj``: Bron-Kerbosch, pivoting on the
    vertex with the most neighbours among the candidates."""
    results: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            results.append(r)
            return
        pivot, best = -1, -1
        mm = p | x
        while mm:
            b = mm & -mm
            u = b.bit_length() - 1
            c = (p & adj[u]).bit_count()
            if c > best:
                pivot, best = u, c
            mm ^= b
        ext = p & ~adj[pivot]
        while ext:
            b = ext & -ext
            ext ^= b
            v = b.bit_length() - 1
            bk(r | b, p & adj[v], x & adj[v])
            p &= ~b
            x |= b

    bk(0, full, 0)
    return results


def maximal_stable_sets(g: Graph) -> list[frozenset]:
    """Every maximal stable set, sorted: the maximal cliques of the
    complement, by ``bron_kerbosch``.  Fast enough for 30 vertices."""
    full = g.full_mask()
    co_adj = [full & ~m & ~(1 << v) for v, m in enumerate(g.adj)]
    return sorted((frozenset(bit_indices(m)) for m in bron_kerbosch(co_adj, full)), key=sorted)


def oracle_idom(g: Graph) -> int:
    return min(len(s) for s in oracle_maximal_stable_sets(g))


def oracle_gamma(g: Graph) -> int:
    if g.n == 0:
        return 0
    closed = tuple(m | (1 << v) for v, m in enumerate(g.adj))
    full = (1 << g.n) - 1
    best = g.n
    for m in range(1 << g.n):
        if m.bit_count() >= best:
            continue
        cover = 0
        for v in bit_indices(m):
            cover |= closed[v]
        if cover == full:
            best = m.bit_count()
    return best


def oracle_theta(g: Graph) -> int:
    if g.n == 0:
        return 0
    full = (1 << g.n) - 1

    @lru_cache(maxsize=None)
    def dp(mask: int) -> int:
        if not mask:
            return 0
        b = mask & -mask
        v = b.bit_length() - 1
        rest = mask ^ b
        best = 1 + dp(rest)
        cand = rest & g.adj[v]
        s = cand
        while s:
            if _is_clique_mask(g, s | b):
                best = min(best, 1 + dp(rest & ~s))
            s = (s - 1) & cand
        return best

    result = dp(full)
    dp.cache_clear()
    return result


def oracle_mu(g: Graph) -> int:
    full = (1 << g.n) - 1

    @lru_cache(maxsize=None)
    def dp(mask: int) -> int:
        if not mask:
            return 0
        b = mask & -mask
        v = b.bit_length() - 1
        rest = mask ^ b
        best = dp(rest)
        for u in bit_indices(g.adj[v] & rest):
            best = max(best, 1 + dp(rest & ~(1 << u)))
        return best

    result = dp(full)
    dp.cache_clear()
    return result


def _induces_cycle(g: Graph, m: int) -> bool:
    # all inner degrees exactly two, and the subset is connected
    vs = bit_indices(m)
    if len(vs) < 3:
        return False
    for v in vs:
        if (g.adj[v] & m).bit_count() != 2:
            return False
    seen = 1 << vs[0]
    frontier = seen
    while frontier:
        nxt = 0
        for v in bit_indices(frontier):
            nxt |= g.adj[v] & m
        frontier = nxt & ~seen
        seen |= nxt
    return seen == m


def oracle_girth(g: Graph):
    best = INFINITE
    for m in range(1 << g.n):
        if m.bit_count() < best and _induces_cycle(g, m):
            best = m.bit_count()
    return best


def oracle_is_chordal(g: Graph) -> bool:
    # chordal iff no chordless cycle of length >= 4; a shortest cycle through
    # a subset inducing a cycle is that subset itself
    for m in range(1 << g.n):
        if m.bit_count() >= 4 and _induces_cycle(g, m):
            return False
    return True


def oracle_distances(g: Graph) -> list[list]:
    n = g.n
    d = [[0 if i == j else INFINITE for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        d[u][v] = d[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def oracle_count_perfect_matchings(g: Graph) -> int:
    if g.n % 2:
        return 0

    def rec(mask: int) -> int:
        if not mask:
            return 1
        b = mask & -mask
        v = b.bit_length() - 1
        total = 0
        for u in bit_indices(g.adj[v] & mask):
            total += rec(mask & ~b & ~(1 << u))
        return total

    return rec((1 << g.n) - 1)


def enumerate_perfect_matchings(g: Graph):
    """Yield every perfect matching (deterministic order)."""
    if g.n % 2:
        return
    full = g.full_mask()

    def rec(uncovered: int, acc: list[tuple[int, int]]):
        if not uncovered:
            yield frozenset(acc)
            return
        b = uncovered & -uncovered
        v = b.bit_length() - 1
        for u in bit_indices(g.adj[v] & uncovered):
            acc.append((v, u))
            yield from rec(uncovered & ~b & ~(1 << u), acc)
            acc.pop()

    yield from rec(full, [])


def reference_parse_graph6(s: str) -> Graph:
    """Independent graph6 decoder (short form): string-formatting route."""
    s = s.strip()
    vals = [ord(c) - 63 for c in s]
    n = vals[0]
    bitstr = "".join(format(v, "06b") for v in vals[1:])
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitstr[k] == "1":
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)


def oracle_induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph spanned by ``vertices`` by testing every pair of them."""
    vs = sorted(set(vertices))
    edges = [(i, j) for i in range(len(vs)) for j in range(i + 1, len(vs))
             if g.adj[vs[i]] >> vs[j] & 1]
    return Graph.from_edges(len(vs), edges), tuple(vs)


def permuted(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Relabel ``g`` by ``perm`` (old vertex v becomes perm[v])."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def all_isomorphism_classes(n: int) -> set[str]:
    """Canonical keys of every labelled graph on exactly ``n`` vertices,
    deduplicated by explicit minimisation over all permutations."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = set()
    for m in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if m >> k & 1]
        g = Graph.from_edges(n, edges)
        best = None
        for perm in permutations(range(n)):
            h = permuted(g, perm)
            key = tuple(h.adj)
            if best is None or key < best:
                best = key
        keys.add(best)
    return keys


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Definitional routes of the class predicates
# ---------------------------------------------------------------------------


def alpha_plus_by_edge_addition(g: Graph) -> bool:
    """True iff adding any one missing edge leaves alpha unchanged."""
    alpha = stability_number(g)
    return all(
        stability_number(g.add_edge(u, v)) == alpha
        for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    )


def omega_core_by_intersection(g: Graph) -> frozenset:
    """The intersection of every maximum stable set."""
    return enumerate_maximum_stable_sets(g).core


def alpha_minus_by_edge_deletion(g: Graph) -> bool:
    """True iff deleting any one edge leaves alpha unchanged."""
    alpha = stability_number(g)
    return all(stability_number(g.remove_edge(u, v)) == alpha for u, v in g.edges())


def alpha_minus_by_omega_neighbourhoods(g: Graph) -> bool:
    """True iff every vertex outside a maximum stable set has at least two
    neighbours in it, for every maximum stable set."""
    for s in enumerate_maximum_stable_sets(g).sets:
        smask = mask_of(s)
        if any((g.adj[v] & smask).bit_count() < 2 for v in range(g.n) if not smask >> v & 1):
            return False
    return True


def p1_by_stable_subsets(g: Graph, s) -> bool:
    """True iff every non-empty stable set disjoint from ``s`` has exactly
    one matching into ``s``, by scanning those stable sets."""
    smask = mask_of(s)
    return all(
        _count_matchings_into(g, amask, smask, 2)[0] == 1
        for amask in stable_subsets(g, g.full_mask() & ~smask) if amask
    )


def p2_by_stable_subsets(g: Graph, s) -> bool:
    """True iff every non-empty stable set A disjoint from ``s`` is the part
    outside ``s`` of some maximum stable set, by scanning every vertex
    subset."""
    smask = sum(1 << v for v in s)
    stable = [m for m in range(1 << g.n) if _is_stable_mask(g, m)]
    alpha = max(m.bit_count() for m in stable)
    extended = {m & ~smask for m in stable if m.bit_count() == alpha}
    return all(m & ~smask in extended for m in stable if m & ~smask)


def induced_perfect_matching_by_enumeration(g: Graph) -> bool:
    """True iff some perfect matching of ``g`` is an induced matching, by
    testing every perfect matching in turn."""
    return any(is_induced_matching(g, m) for m in enumerate_perfect_matchings(g))


def simplexes_by_maximal_cliques(g: Graph) -> list[tuple[frozenset, frozenset]]:
    """Every maximal clique that holds a simplicial vertex, with those
    vertices, sorted by clique: the maximal cliques come from
    ``bron_kerbosch``, and a vertex is simplicial when its neighbourhood is a
    clique."""
    cliques = bron_kerbosch(g.adj, g.full_mask())
    simplicial = mask_of(v for v in range(g.n) if _is_clique_mask(g, g.adj[v]))
    out = [
        (frozenset(bit_indices(c)), frozenset(bit_indices(c & simplicial)))
        for c in cliques if c & simplicial
    ]
    return sorted(out, key=lambda pair: sorted(pair[0]))
