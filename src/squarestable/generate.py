"""Graph families, named fixtures, and isomorphism-free small-graph corpora.

All generators are deterministic: random families take an explicit seed, the
exhaustive enumerator emits canonically labelled graphs in a fixed order,
and fixtures are frozen edge-list files shipped with the package.
"""

from __future__ import annotations

import enum
import heapq
import random
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Optional

from .graphs import Graph, is_connected, parse_edge_list, to_graph6

EXHAUSTIVE_MAX_N = 9


class Family(enum.Enum):
    PATH = "path"
    CYCLE = "cycle"
    COMPLETE = "complete"
    STAR = "star"
    COMPLETE_BIPARTITE = "complete_bipartite"
    RANDOM_TREE = "random_tree"
    RANDOM_CONNECTED = "random_connected"
    CORONA_K1 = "corona_k1"
    NAMED = "named"


@dataclass(frozen=True)
class FamilySpec:
    family: Family
    n: Optional[int] = None
    m: Optional[int] = None
    seed: Optional[int] = None
    name: Optional[str] = None
    base: Optional["FamilySpec"] = None


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
    if n == 1:
        return Graph.from_edges(1, [])
    if len(seq) != n - 2:
        raise ValueError("sequence length must be n - 2")
    degree = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise ValueError("sequence entry out of range")
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        v = heapq.heappop(leaves)
        edges.append((v, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniformly random labelled tree via a seeded random code sequence."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    rng = random.Random(seed)
    if n <= 2:
        return path_graph(n)
    return prufer_to_tree(tuple(rng.randrange(n) for _ in range(n - 2)), n)


def random_connected_graph(n: int, seed: int) -> Graph:
    """Random spanning tree plus extra edges, deterministic for a seed."""
    if n < 1:
        raise ValueError("graph needs n >= 1")
    rng = random.Random(seed)
    g = _random_connected(n, rng)
    return g


def _random_connected(n: int, rng: random.Random) -> Graph:
    if n <= 2:
        return path_graph(n)
    tree = prufer_to_tree(tuple(rng.randrange(n) for _ in range(n - 2)), n)
    p = rng.uniform(0.0, 0.5)
    edges = set(tree.edges())
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < p:
                edges.add((i, j))
    return Graph.from_edges(n, edges)


def make_family(spec: FamilySpec) -> Graph:
    """Dispatch a family specification to its generator."""
    f = spec.family
    if f is Family.PATH:
        return path_graph(_req(spec.n, "n"))
    if f is Family.CYCLE:
        return cycle_graph(_req(spec.n, "n"))
    if f is Family.COMPLETE:
        return complete_graph(_req(spec.n, "n"))
    if f is Family.STAR:
        return star_graph(_req(spec.n, "n"))
    if f is Family.COMPLETE_BIPARTITE:
        return complete_bipartite_graph(_req(spec.m, "m"), _req(spec.n, "n"))
    if f is Family.RANDOM_TREE:
        return random_tree(_req(spec.n, "n"), _req(spec.seed, "seed"))
    if f is Family.RANDOM_CONNECTED:
        return random_connected_graph(_req(spec.n, "n"), _req(spec.seed, "seed"))
    if f is Family.CORONA_K1:
        if spec.base is None:
            raise ValueError("corona needs a base family")
        return corona_with_k1(make_family(spec.base))
    if f is Family.NAMED:
        return named_fixture(_req(spec.name, "name"))
    raise ValueError(f"unknown family {f}")


def _req(value, what):
    if value is None:
        raise ValueError(f"missing parameter {what}")
    return value


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

    Column k of a relabelling (v0, v1, ...) is the bit string of the
    adjacencies of v_k to v0..v_(k-1), v0 first; codes compare column by
    column.  Backtracking extends a prefix of the relabelling by each unused
    vertex whose column is at most ``best[k]``.  Of two unused twins (u and w
    with N(u) - {w} == N(w) - {u}) only the smaller is tried: swapping them is
    an automorphism fixing the prefix, so it leads to the same codes.

    With ``first_only`` the search stops at the first column below ``best``
    and returns True: ``best`` was not the least code.  Otherwise it returns
    False, with ``best`` lowered to the least code.
    """
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


def _columns(adj: list[int]) -> list[int]:
    """The column code of the identity labelling."""
    cols = []
    for k, ak in enumerate(adj):
        col = 0
        for i in range(k):
            col = (col << 1) | (ak >> i & 1)
        cols.append(col)
    return cols


def canonical_graph(g: Graph) -> Graph:
    """The canonically labelled copy of ``g``: the vertex relabelling whose
    column-by-column upper-triangle bit string is lexicographically minimal.

    Found by the backtracking search of ``_least_columns``, which prunes by
    columns and by twins; graphs with other large symmetries can still take
    exponential time.  Column k depends only on the first k + 1 vertices, so
    deleting the last vertex of a canonical graph leaves a canonical graph.
    """
    n = g.n
    if n <= 1:
        return g
    best = [1 << n] * n
    _least_columns(list(g.adj), best, first_only=False)
    edges = []
    for k in range(1, n):
        col = best[k]
        for i in range(k):
            if col >> (k - 1 - i) & 1:
                edges.append((i, k))
    return Graph.from_edges(n, edges)


def canonical_graph6(g: Graph) -> str:
    return to_graph6(canonical_graph(g))


def enumerate_corpus(max_n: int, connected_only: bool = True) -> Iterator[Graph]:
    """Every graph with up to ``max_n`` vertices, one per isomorphism class.

    Graphs come out canonically labelled (as by ``canonical_graph``),
    ordered by vertex count and then by graph6 string.  Built by orderly
    generation (Read; Faradzev): a canonical graph minus its last vertex is
    canonical, so each canonical graph on k + 1 vertices is exactly one of
    the extensions of a canonical graph on k vertices by a new last vertex,
    namely one whose own labelling passes the canonicity test.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if max_n > EXHAUSTIVE_MAX_N:
        raise ValueError(
            f"exhaustive enumeration capped at {EXHAUSTIVE_MAX_N} vertices; "
            "use sample_corpus beyond that"
        )
    level = [Graph(1, (0,))]
    for k in range(1, max_n + 1):
        if k > 1:
            nxt = []
            for g in level:
                cols = _columns(g.adj)
                # a new last column below twice the one before it is not
                # least: swapping the last two vertices lowers it
                for col in range(cols[-1] << 1, 1 << (k - 1)):
                    new = sum(1 << i for i in range(k - 1) if col >> (k - 2 - i) & 1)
                    adj = [a | (new >> i & 1) << (k - 1) for i, a in enumerate(g.adj)]
                    adj.append(new)
                    if not _least_columns(adj, cols + [col], first_only=True):
                        nxt.append(Graph(k, tuple(adj)))
            level = sorted(nxt, key=to_graph6)
        for g in level:
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
