"""Immutable simple undirected graphs over vertex indices 0..n-1.

Adjacency is stored as one bitmask per vertex, which keeps every structural
operation (square, distance, components, girth, chordality, induced
subgraphs) a pure function of cheap integer arithmetic.  Graphs are safe to
share across threads and usable as dict keys.  Every graph is validated when
it is built, and its hash is computed then, once: each stored value of a
graph is looked up by that hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import ParseError

#: Sentinel distance between vertices in different components.
INFINITE = math.inf

# Decorates the functions that compute one value of one graph: each
# keeps its results for the last few graphs it was asked about, so that the
# layers reading a graph's values compute each of them once.  Graphs are
# immutable, so a stored value never goes stale; a call that raises stores
# nothing.
_store = lru_cache(maxsize=8)


def set_of(mask: int) -> frozenset[int]:
    """Unpack a bitmask into a frozenset of vertex indices."""
    return frozenset(bit_indices(mask))


# _BYTE_BITS[k][b]: the indices of the set bits of byte b at byte offset k of
# a mask; a table is built when a mask first reaches its offset, not at import
_BYTE_BITS: list[list[tuple[int, ...]]] = []


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending: below 2^64 a byte at a
    time from ``_BYTE_BITS``, above it one bit at a time."""
    out = []
    if mask >> 64:
        while mask:
            b = mask & -mask
            out.append(b.bit_length() - 1)
            mask ^= b
        return out
    while mask >> 8 * len(_BYTE_BITS):
        k = len(_BYTE_BITS)
        table = [()]  # each bit i doubles it: table[b + 2^(i - 8k)] = table[b] + (i,)
        for i in range(8 * k, 8 * k + 8):
            table += [t + (i,) for t in table]
        _BYTE_BITS[k:k + 1] = [table]  # lands at offset k even if another thread built it
    for bits in _BYTE_BITS:
        if not mask:
            break
        out += bits[mask & 255]
        mask >>= 8
    return out


@dataclass(frozen=True)
class Graph:
    """A finite, undirected, loopless graph without multiple edges.

    ``adj[v]`` is the bitmask of neighbours of ``v``.  The relation is kept
    symmetric and irreflexive by construction; violating masks are rejected
    with a ``ValueError`` naming the fault.  The hash is computed once, on
    construction.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n, adj = self.n, self.adj
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if not isinstance(adj, tuple):
            raise ValueError("adjacency must be a tuple of ints")
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        # Each neighbour above a vertex must list it back.  The lower triangle
        # then holds every mirrored bit, so it holds no other bit exactly when
        # the degrees add up to twice the number of upper bits.
        upper = 0
        for v, m in enumerate(adj):
            if not isinstance(m, int):
                raise ValueError("adjacency must be a tuple of ints")
            if m >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if m >> n:
                raise ValueError(f"neighbour of {v} out of range")
            m >>= v + 1
            upper += m.bit_count()
            while m:
                b = m & -m
                u = v + b.bit_length()
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                m ^= b
        if 2 * upper != sum(m.bit_count() for m in adj):
            u, v = next((u, v) for v, m in enumerate(adj) for u in range(v)
                        if m >> u & 1 and not adj[u] >> v & 1)
            raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "_hash", hash((n, adj)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on ``n`` vertices from an edge iterable.

        Edges are deduplicated and symmetrised; self-loops and out-of-range
        endpoints are rejected.
        """
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    # -- basic accessors ---------------------------------------------------

    def degree(self, v: int) -> int:
        _vertex_mask(self.n, (v,))
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``u`` and ``v`` are adjacent; False when either is not a
        vertex."""
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for v, m in enumerate(self.adj):
            m >>= v + 1
            while m:
                b = m & -m
                out.append((v, v + b.bit_length()))
                m ^= b
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- pure edits (the tree suite and unique_perfect_matching remove edges) -

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("cannot add a self-loop")
        _vertex_mask(self.n, (u, v))
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph(self.n, tuple(adj))

    def remove_edge(self, u: int, v: int) -> "Graph":
        _vertex_mask(self.n, (u, v))
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph(self.n, tuple(adj))


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: one ``u v`` pair per line.

    An optional header line ``n <count>`` (first content line) fixes the
    vertex count; otherwise it is one more than the largest index seen.
    ``#`` starts a comment; blank lines are ignored.  Self-loops and
    non-integer tokens are rejected with their line number.
    """
    declared = None
    edges: list[tuple[int, int]] = []
    max_seen = -1
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n" and not saw_content:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed header, expected 'n <count>'")
            try:
                declared = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex count {parts[1]!r}") from None
            if declared < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            saw_content = True
            continue
        saw_content = True
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer token in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex index")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u} {v}")
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    n = declared if declared is not None else max_seen + 1
    if declared is not None and max_seen >= declared:
        raise ParseError(f"vertex {max_seen} out of range for declared count {declared}")
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    """Serialise a graph to edge-list text (with an explicit ``n`` header)."""
    return f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


_G6_HEADER = ">>graph6<<"
# a graph6 character and the six bits of the payload it carries
_G6_BITS = {d + 63: format(d, "06b") for d in range(64)}
_G6_CHARS = {bits: chr(c) for c, bits in _G6_BITS.items()}


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (short form, and the 4-byte long form)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if not s:
        raise ParseError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        raise ParseError("invalid character in graph6 string")
    if s[0] == "~":
        if len(s) < 4:
            raise ParseError("truncated graph6 long-form header")
        if s[1] == "~":
            raise ParseError("graph6 8-byte order encoding not supported")
        n, body = int(s[1:4].translate(_G6_BITS), 2), s[4:]
    else:
        n, body = ord(s[0]) - 63, s[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 payload has {len(body)} sextets, expected {need} for n={n}")
    bits = body.translate(_G6_BITS)
    if "1" in bits[nbits:]:
        raise ParseError("nonzero padding bits in graph6 payload")
    cols = [int("0" + bits[k * (k - 1) // 2:k * (k + 1) // 2], 2) for k in range(n)]
    return Graph(n, _rows(cols))


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (short form for n <= 62)."""
    n = g.n
    if n > 258047:
        raise ValueError("graph too large for supported graph6 forms")
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    nbits = n * (n - 1) // 2
    code = 1  # a leading 1, dropped below, keeps the code's leading zeros
    for k in range(1, n):
        code = code << k | _flip(g.adj[k], k)
    bits = format(code << (-nbits % 6), "b")[1:]
    return head + "".join(_G6_CHARS[bits[i:i + 6]] for i in range(0, nbits, 6))


def _flip(x: int, k: int) -> int:
    """The low ``k`` bits of ``x`` in reverse order: a column of the column
    code as the row bits below its vertex, and back."""
    return int("0" + format(x, f"0{k}b")[:-k - 1:-1], 2)


def _rows(columns: list[int]) -> tuple[int, ...]:
    """The adjacency masks of a column code, whose bit order this function
    and ``_flip`` own: column k holds the adjacencies of vertex k to vertices
    0..k-1, vertex 0 most significant.  graph6 packs this code into sextets,
    and the canonical form of ``generate`` is the least such code."""
    rows = [_flip(col, k) for k, col in enumerate(columns)]
    for k, low in enumerate(rows):  # later vertices only add bits above k
        while low:
            b = low & -low
            rows[b.bit_length() - 1] |= 1 << k
            low ^= b
    return tuple(rows)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


@_store
def square(g: Graph) -> Graph:
    """The square of ``g``: same vertices, an edge wherever distance is 1 or 2."""
    adj = g.adj
    return Graph(g.n, tuple((m | _reach(adj, m)) & ~(1 << v) for v, m in enumerate(adj)))


def _reach(adj: tuple[int, ...], mask: int) -> int:
    """The union of the rows of the vertices in ``mask``: their neighbours."""
    out = 0
    while mask:
        b = mask & -mask
        out |= adj[b.bit_length() - 1]
        mask ^= b
    return out


def _layers(adj: tuple[int, ...], start: int) -> Iterator[int]:
    """The breadth-first layers from the vertex mask ``start``: ``start``
    itself, then each set of vertices first reached one step further."""
    seen = layer = start
    while layer:
        yield layer
        layer = _reach(adj, layer) & ~seen
        seen |= layer


def distance_matrix(g: Graph) -> list[list]:
    """Exact hop distances via BFS from every vertex.

    Entries are non-negative ints, or :data:`INFINITE` across components.
    """
    n = g.n
    d: list[list] = [[INFINITE] * n for _ in range(n)]
    for s in range(n):
        row = d[s]
        for dist, layer in enumerate(_layers(g.adj, 1 << s)):
            for v in bit_indices(layer):
                row[v] = dist
    return d


def _component_mask(g: Graph, start: int) -> int:
    return sum(_layers(g.adj, 1 << start))  # the layers are disjoint


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, sorted by minimum vertex."""
    out = []
    remaining = g.full_mask()
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = _component_mask(g, start)
        out.append(set_of(comp))
        remaining &= ~comp
    return out


@_store
def is_connected(g: Graph) -> bool:
    return g.n <= 1 or _component_mask(g, 0) == g.full_mask()


def complement(g: Graph) -> Graph:
    """The complement graph (an involution)."""
    full = g.full_mask()
    return Graph(g.n, tuple((full & ~m & ~(1 << v)) for v, m in enumerate(g.adj)))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph spanned by ``vertices``, relabelled 0..k-1 in ascending order.

    Returns the subgraph plus the remap record: ``remap[new] == old``.
    """
    vs = sorted(set(vertices))
    keep = _vertex_mask(g.n, vs)
    if len(vs) == g.n:
        return g, tuple(vs)
    # a kept neighbour u becomes vertex |kept vertices below u|
    adj = []
    for v in vs:
        m = g.adj[v] & keep
        row = 0
        while m:
            b = m & -m
            row |= 1 << (keep & (b - 1)).bit_count()
            m ^= b
        adj.append(row)
    return Graph(len(vs), tuple(adj)), tuple(vs)


def girth(g: Graph):
    """Length of a shortest cycle, or :data:`INFINITE` for forests.

    For each edge, the shortest alternative path between its endpoints is
    found by BFS in the graph minus that edge; the minimum closes a shortest
    cycle.
    """
    best = INFINITE
    for u, v in g.edges():
        # BFS from u to v avoiding the edge uv: the search stops on reaching
        # v, so only u's first step has to leave the edge out
        seen = 1 << u
        frontier = g.adj[u] & ~(1 << v)
        dist = 1
        while frontier and not frontier >> v & 1:
            seen |= frontier
            frontier = _reach(g.adj, frontier) & ~seen
            dist += 1
        if frontier and dist + 1 < best:
            best = dist + 1
            if best == 3:
                return 3
    return best


def perfect_elimination_ordering(g: Graph):
    """A perfect elimination ordering if ``g`` is chordal, else ``None``.

    Simplicial elimination (Dirac 1961; Fulkerson & Gross 1965): every
    induced subgraph of a chordal graph has a simplicial vertex, and no vertex
    of a chordless cycle is simplicial while its cycle neighbours remain.  So
    deleting the lowest vertex whose remaining neighbours form a clique, one
    at a time, deletes every vertex exactly when ``g`` is chordal, and the
    deletion order is then the ordering; the answer certifies itself.
    """
    adj, left, order = g.adj, g.full_mask(), []
    while left:
        for v in bit_indices(left):
            if _is_clique_mask(adj, adj[v] & left):
                break
        else:
            return None
        order.append(v)
        left ^= 1 << v
    return tuple(order)


def is_chordal(g: Graph) -> bool:
    """True iff every cycle of length at least four has a chord."""
    return perfect_elimination_ordering(g) is not None


def is_tree(g: Graph) -> bool:
    """True iff ``g`` is connected with exactly n - 1 edges."""
    return g.n >= 1 and is_connected(g) and g.edge_count == g.n - 1


def is_complete(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def is_bipartite(g: Graph) -> bool:
    """True iff ``g`` has no odd cycle: no edge joins two vertices of one
    breadth-first layer of a component, since such an edge closes one."""
    left = g.full_mask()
    while left:
        for layer in _layers(g.adj, left & -left):
            if _reach(g.adj, layer) & layer:
                return False
            left &= ~layer
    return True


def pendant_vertices(g: Graph) -> frozenset[int]:
    """Vertices of degree exactly one."""
    return set_of(_pendants(g))


def _pendants(g: Graph) -> int:
    return sum(1 << v for v, m in enumerate(g.adj) if m.bit_count() == 1)


def _vertex_mask(n: int, vertices: Iterable[int]) -> int:
    """The mask of ``vertices``; one outside 0..n-1 raises ``ValueError``."""
    m = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        m |= 1 << v
    return m


def is_stable_set(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the vertices are pairwise non-adjacent."""
    m = _vertex_mask(g.n, vertices)
    return not _reach(g.adj, m) & m


def _is_clique_mask(adj: tuple[int, ...], m: int) -> bool:
    """True iff the vertices of the mask ``m`` are pairwise adjacent."""
    mm = m
    while mm:
        b = mm & -mm
        if m & ~b & ~adj[b.bit_length() - 1]:
            return False
        mm ^= b
    return True


def stable_subsets(g: Graph, within: int) -> Iterator[int]:
    """Yield every stable subset of the vertex mask ``within`` (as masks).

    The empty set comes first; enumeration is depth-first by ascending
    lowest vertex, so the stream is deterministic.
    """
    def rec(chosen: int, cand: int) -> Iterator[int]:
        yield chosen
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            yield from rec(chosen | b, cand & ~g.adj[v])
    yield from rec(0, within & g.full_mask())
