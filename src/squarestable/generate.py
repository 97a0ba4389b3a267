"""Graph families, named fixtures, and isomorphism-free small-graph corpora.

All generators are deterministic: random families take an explicit seed, the
exhaustive enumerator emits canonically labelled graphs in a fixed order,
and fixtures are frozen edge-list files shipped with the package.
"""

from __future__ import annotations

import heapq
import random
from importlib import resources
from typing import Iterator

from .graphs import Graph, _flip, _rows, is_connected, parse_edge_list, to_graph6

EXHAUSTIVE_MAX_N = 9


# ---------------------------------------------------------------------------
# Basic families
# ---------------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Centre 0 joined to ``leaves`` leaf vertices."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("both sides need at least one vertex")
    return Graph.from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def corona_with_k1(base: Graph) -> Graph:
    """Attach one new pendant vertex to every vertex of ``base``."""
    n = base.n
    edges = list(base.edges()) + [(v, n + v) for v in range(n)]
    return Graph.from_edges(2 * n, edges)


def prufer_to_tree(seq: tuple[int, ...], n: int) -> Graph:
    """The labelled tree on ``n`` vertices encoded by a length n-2 sequence."""
    return Graph(n, tuple(_prufer_rows(seq, n)))


def _prufer_rows(seq: tuple[int, ...], n: int) -> list[int]:
    # the adjacency rows of prufer_to_tree's tree
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if len(seq) != max(n - 2, 0):
        raise ValueError("sequence length must be n - 2")
    if n == 1:
        return [0]
    degree = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise ValueError("sequence entry out of range")
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    adj = [0] * n
    for x in seq:
        v = heapq.heappop(leaves)
        adj[v] |= 1 << x
        adj[x] |= 1 << v
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = leaves  # the last two leaves
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return adj


def random_tree(n: int, seed: int) -> Graph:
    """Uniformly random labelled tree via a seeded random code sequence."""
    return Graph(n, tuple(_random_tree(n, random.Random(seed))))


def random_connected_graph(n: int, seed: int) -> Graph:
    """Random spanning tree plus extra edges, deterministic for a seed."""
    if n < 1:
        raise ValueError("graph needs n >= 1")
    return _random_connected(n, random.Random(seed))


def _random_tree(n: int, rng: random.Random) -> list[int]:
    """The rows of both random families' random tree; draws nothing when n <= 2."""
    return _prufer_rows(tuple(rng.randrange(n) for _ in range(n - 2)), n)


def _random_connected(n: int, rng: random.Random) -> Graph:
    adj = _random_tree(n, rng)
    if n > 2:
        p = rng.uniform(0.0, 0.5)
        for i in range(n):
            for j in range(i + 1, n):
                if not adj[i] >> j & 1 and rng.random() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# Named fixtures
# ---------------------------------------------------------------------------

FIXTURE_NAMES = (
    "k3_plus_e",
    "diamond",
    "fig_ss_not_vwc",
    "fig_upm_not_pendant",
    "fig_bip_vwc_not_ss",
)


def named_fixture(name: str) -> Graph:
    """Load one of the frozen example graphs shipped with the package."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    text = resources.files("squarestable.fixtures").joinpath(f"{name}.edges").read_text()
    return parse_edge_list(text)


# ---------------------------------------------------------------------------
# Canonical labelling and exhaustive corpora
# ---------------------------------------------------------------------------


def _least_columns(adj: list[int], best: list[int], first_only: bool) -> bool:
    """Lower ``best`` in place to the least column code of any relabelling.

    Column k of a relabelling (v0, v1, ...) holds the adjacencies of v_k to
    v0..v_(k-1), v0 first (``graphs._rows`` owns the bit order); codes
    compare column by column, and ``best[k] == 1 << n`` marks an unset level.
    Backtracking extends a prefix of the relabelling by one vertex per level.
    A node decides its level for all unused vertices at once, with one mask
    operation per prefix vertex, most significant first: ``eq`` is the set
    whose column ties ``best[k]`` and ``less`` the set whose column falls
    below it (every unused vertex, on an unset level).  Full mode then lowers
    ``best[k]`` to the least column in ``less``, found the same way, before
    it explores any child, so it recurses only into vertices whose column is
    ``best[k]``.  Of two unused twins (u and w with N(u) - {w} == N(w) - {u})
    only the smaller is tried: swapping them is an automorphism fixing the
    prefix, so it leads to the same codes.

    With ``first_only`` the search stops at the first column below ``best``
    and returns True: ``best`` was not the least code.  Otherwise it returns
    False, with ``best`` lowered to the least code.
    """
    n = len(adj)
    infinity = 1 << n
    # Twins share an open neighbourhood (non-adjacent) or a closed one
    # (adjacent).  One dict holds both kinds of key: N(u) == N[w] would put w
    # in N(u) and so u in N(w), making u its own neighbour.
    classes: dict[int, int] = {}
    for w, a in enumerate(adj):
        bit = 1 << w
        classes[a] = classes.get(a, 0) | bit
        classes[a | bit] = classes.get(a | bit, 0) | bit
    # twins[w]: the twins of w smaller than w
    twins = [(classes[a] | classes[a | 1 << w]) & ((1 << w) - 1) for w, a in enumerate(adj)]
    prefix: list[int] = []  # the adjacency masks of v0..v_(k-1)

    def rec(unused: int) -> bool:
        k = len(prefix)
        target = best[k]
        if target == infinity:
            eq, less = 0, unused
        else:
            eq, less = unused, 0
            shift = k
            for a in prefix:
                shift -= 1
                if target >> shift & 1:
                    less |= eq & ~a
                    eq &= a
                else:
                    eq &= ~a
                if not eq:
                    break
        if less:
            # twins share a column, so ``less`` holds a vertex that twin
            # pruning keeps
            if first_only:
                return True
            col = 0
            for a in prefix:
                zeros = less & ~a
                if zeros:
                    less = zeros
                    col <<= 1
                else:
                    col = col << 1 | 1
            best[k] = col
            best[k + 1:] = [infinity] * (n - k - 1)
            eq = less
        if k + 1 == n:
            return False
        while eq:
            low = eq & -eq
            eq ^= low
            w = low.bit_length() - 1
            if twins[w] & unused:
                continue
            prefix.append(adj[w])
            stop = rec(unused ^ low)
            prefix.pop()
            if stop:
                return True
        return False

    return rec(infinity - 1)


def canonical_graph(g: Graph) -> Graph:
    """The canonically labelled copy of ``g``: the vertex relabelling with
    the least column code, whose bit order ``graphs._rows`` owns.

    Found by the backtracking search of ``_least_columns``, which settles
    each level's least column before it branches and tries one vertex of
    each twin class.  It branches only on ties, so P14, C14 and the coronas
    of K6 and K7 take well under a second, but symmetric graphs with many
    tied prefixes that are not twins can still take exponential time.
    Column k depends only on the first k + 1 vertices, so deleting the last
    vertex of a canonical graph leaves a canonical graph.
    """
    n = g.n
    if n <= 1:
        return g
    best = [1 << n] * n
    _least_columns(list(g.adj), best, first_only=False)
    return Graph(n, _rows(best))


def canonical_graph6(g: Graph) -> str:
    return to_graph6(canonical_graph(g))


def enumerate_corpus(max_n: int, connected_only: bool = True) -> Iterator[Graph]:
    """Every graph with up to ``max_n`` vertices, one per isomorphism class.

    Graphs come out canonically labelled (as by ``canonical_graph``),
    ordered by vertex count and then by graph6 string.  Built by orderly
    generation (Read; Faradzev): a canonical graph minus its last vertex is
    canonical, so each canonical graph on k + 1 vertices is exactly one of
    the extensions of a canonical graph on k vertices by a new last vertex,
    namely one whose own labelling passes the canonicity test.  A level
    holds column codes, whose bit order ``graphs._rows`` owns; graph6 joins
    the same columns at fixed widths, so sorted codes are in graph6 order.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if max_n > EXHAUSTIVE_MAX_N:
        raise ValueError(
            f"exhaustive enumeration capped at {EXHAUSTIVE_MAX_N} vertices; "
            "use sample_corpus beyond that"
        )
    level = [[0]]  # the column codes of the canonical graphs on k vertices
    for k in range(1, max_n + 1):
        if k > 1:
            nxt = []
            for cols in level:
                adj = _rows(cols)
                # a new last column below twice the one before it is not
                # least: swapping the last two vertices lowers it
                for col in range(cols[-1] << 1, 1 << (k - 1)):
                    new = _flip(col, k - 1)
                    child = [a | (new >> i & 1) << (k - 1) for i, a in enumerate(adj)] + [new]
                    code = cols + [col]
                    if not _least_columns(child, code, first_only=True):
                        nxt.append(code)
            level = nxt  # children of sorted parents, by increasing last column: sorted
        for cols in level:
            g = Graph(k, _rows(cols))
            if not connected_only or is_connected(g):
                yield g


def sample_corpus(count: int, max_n: int, seed: int, connected_only: bool = True) -> Iterator[Graph]:
    """A seeded stream of ``count`` random graphs with 1..max_n vertices."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        if connected_only:
            yield _random_connected(n, rng)
        else:
            p = rng.random()
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p
            ]
            yield Graph.from_edges(n, edges)
