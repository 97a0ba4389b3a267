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
the solvers.  The simplexes by maximal cliques, P2 by stable subsets and
the simplicial-graph test by vertex pairs read only the adjacency.

``oracle_least_columns`` is the plain canonical search that the
bit-parallel one in ``generate`` replaced, kept as its cross-check, and
``oracle_graph_fault`` the plain walk over the adjacency that names the
first fault ``Graph`` rejects.  The clique, simplicial-vertex and
elimination-ordering oracles test vertex pairs one at a time, sharing no
code with the library's mask test.
"""

from functools import lru_cache
from itertools import combinations, permutations
import random

from squarestable.graphs import Graph, INFINITE, stable_subsets
from squarestable.matchings import _count_matchings_into, is_induced_matching
from squarestable.solvers import enumerate_maximum_stable_sets, stability_number


def oracle_bits(m: int) -> list[int]:
    """The indices of the set bits of ``m``, ascending, by the definition:
    no unpacking code is shared with the package's bit kernel."""
    return [v for v in range(m.bit_length()) if m >> v & 1]


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
        frozenset(oracle_bits(m))
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
        for v in oracle_bits(full & ~m):
            if not g.adj[v] & m:
                addable = True
                break
        if not addable:
            out.append(frozenset(oracle_bits(m)))
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
    return sorted((frozenset(oracle_bits(m)) for m in bron_kerbosch(co_adj, full)), key=sorted)


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
        for v in oracle_bits(m):
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
        for u in oracle_bits(g.adj[v] & rest):
            best = max(best, 1 + dp(rest & ~(1 << u)))
        return best

    result = dp(full)
    dp.cache_clear()
    return result


def _induces_cycle(g: Graph, m: int) -> bool:
    # all inner degrees exactly two, and the subset is connected
    vs = oracle_bits(m)
    if len(vs) < 3:
        return False
    for v in vs:
        if (g.adj[v] & m).bit_count() != 2:
            return False
    seen = 1 << vs[0]
    frontier = seen
    while frontier:
        nxt = 0
        for v in oracle_bits(frontier):
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


def oracle_is_elimination_ordering(g: Graph, order) -> bool:
    """True iff ``order`` lists every vertex once and the neighbours that
    follow each vertex in it are pairwise adjacent, pair by pair."""
    if sorted(order) != list(range(g.n)):
        return False
    for i, v in enumerate(order):
        later = [u for u in order[i + 1:] if g.has_edge(u, v)]
        if not all(g.has_edge(a, b) for a, b in combinations(later, 2)):
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


def oracle_is_stable_set(g: Graph, vertices) -> bool:
    """True iff no pair of the vertices is adjacent, pair by pair."""
    return not any(g.adj[u] >> v & 1 for u, v in combinations(set(vertices), 2))


def oracle_is_clique(g: Graph, vertices) -> bool:
    """True iff every pair of the vertices is adjacent, pair by pair."""
    return all(g.has_edge(u, v) for u, v in combinations(set(vertices), 2))


def oracle_simplicial_vertices(g: Graph) -> frozenset[int]:
    """The vertices whose neighbours are pairwise adjacent, pair by pair."""
    return frozenset(
        v for v in range(g.n) if oracle_is_clique(g, (u for u in range(g.n) if g.has_edge(u, v))))


def oracle_count_perfect_matchings(g: Graph) -> int:
    if g.n % 2:
        return 0

    def rec(mask: int) -> int:
        if not mask:
            return 1
        b = mask & -mask
        v = b.bit_length() - 1
        total = 0
        for u in oracle_bits(g.adj[v] & mask):
            total += rec(mask & ~b & ~(1 << u))
        return total

    return rec((1 << g.n) - 1)


def oracle_count_matchings_into(g: Graph, a, s) -> int:
    """The injective maps from ``a`` to ``s`` that send each vertex to a
    neighbour: for disjoint sets, the matchings that cover ``a`` with every
    partner in ``s``."""
    a, s = sorted(a), sorted(s)
    return sum(all(g.has_edge(u, v) for u, v in zip(a, image))
               for image in permutations(s, len(a)))


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
        for u in oracle_bits(g.adj[v] & uncovered):
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


def oracle_least_columns(adj: list[int], best: list[int], first_only: bool) -> bool:
    """The column-by-column backtracking that ``generate._least_columns``
    replaced, with its contract: lower ``best`` in place to the least column
    code of any relabelling, or with ``first_only`` return True at the first
    column below ``best``.  Each node builds every unused vertex's column bit
    by bit and recurses into a tie before it looks at the vertices after it;
    twins are found by testing every pair."""
    n = len(adj)
    infinity = 1 << n
    twins = [0] * n  # twins[w]: the twins of w smaller than w
    for w in range(n):
        for u in range(w):
            if adj[u] & ~(1 << w) == adj[w] & ~(1 << u):
                twins[w] |= 1 << u
    perm: list[int] = []

    def rec(used: int) -> bool:
        k = len(perm)
        for w in range(n):
            if used >> w & 1 or twins[w] & ~used:
                continue
            aw = adj[w]
            col = 0
            for p in perm:
                col = (col << 1) | (aw >> p & 1)
            if col > best[k]:
                continue
            if col < best[k]:
                if first_only:
                    return True
                best[k] = col
                best[k + 1:] = [infinity] * (n - k - 1)
            if k + 1 < n:
                perm.append(w)
                stop = rec(used | 1 << w)
                perm.pop()
                if stop:
                    return True
        return False

    return rec(0)


def oracle_graph_fault(n: int, rows) -> str | None:
    """The message ``Graph(n, rows)`` raises, or None when the rows are a
    graph: the vertices in order, each checked for a loop, a bit outside
    0..n-1 and each neighbour above it that does not list it back; then the
    first bit below the diagonal that is not mirrored."""
    for v in range(n):
        if rows[v] >> v & 1:
            return f"self-loop at vertex {v}"
        if not 0 <= rows[v] < 1 << n:
            return f"neighbour of {v} out of range"
        for u in range(v + 1, n):
            if rows[v] >> u & 1 and not rows[u] >> v & 1:
                return f"asymmetric adjacency between {u} and {v}"
    for v in range(n):
        for u in range(v):
            if rows[v] >> u & 1 and not rows[u] >> v & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


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
        smask = sum(1 << v for v in s)
        if any((g.adj[v] & smask).bit_count() < 2 for v in range(g.n) if not smask >> v & 1):
            return False
    return True


def p1_by_stable_subsets(g: Graph, s) -> bool:
    """True iff every non-empty stable set disjoint from ``s`` has exactly
    one matching into ``s``, by scanning those stable sets."""
    smask = sum(1 << v for v in s)
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
    simplicial = sum(1 << v for v in range(g.n) if _is_clique_mask(g, g.adj[v]))
    out = [
        (frozenset(oracle_bits(c)), frozenset(oracle_bits(c & simplicial)))
        for c in cliques if c & simplicial
    ]
    return sorted(out, key=lambda pair: sorted(pair[0]))


def simplicial_graph_by_vertex_pairs(g: Graph) -> bool:
    """True iff every vertex is simplicial or has a simplicial neighbour,
    where a vertex is simplicial when its neighbours are pairwise adjacent."""
    nbrs = [[u for u in range(g.n) if g.adj[v] >> u & 1] for v in range(g.n)]
    simplicial = [all(g.adj[a] >> b & 1 for a, b in combinations(ns, 2)) for ns in nbrs]
    return all(simplicial[v] or any(simplicial[u] for u in nbrs[v]) for v in range(g.n))
