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

# Decorates the private helpers that compute one value of one graph: each
# keeps its results for the last few graphs it was asked about, so that the
# layers reading a graph's values compute each of them once.  Graphs are
# immutable, so a stored value never goes stale; a call that raises stores
# nothing.
_store = lru_cache(maxsize=8)


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    """Unpack a bitmask into a frozenset of vertex indices."""
    return frozenset(bit_indices(mask))


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
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
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        # Each neighbour above a vertex must list it back.  The lower triangle
        # then holds every mirrored bit, so it holds no other bit exactly when
        # the degrees add up to twice the number of upper bits.
        full = (1 << n) - 1
        upper = 0
        for v, m in enumerate(adj):
            if m >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if m & ~full:
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

    # -- pure edits (used by stability-under-edit predicates) ---------------

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("cannot add a self-loop")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph(self.n, tuple(adj))

    def remove_edge(self, u: int, v: int) -> "Graph":
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


def format_edge_list(g: Graph, comments: Iterable[str] = ()) -> str:
    """Serialise a graph to edge-list text (with an explicit ``n`` header)."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"n {g.n}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (short form, and the 4-byte long form)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if not s:
        raise ParseError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(x < 0 or x > 63 for x in data):
        raise ParseError("invalid character in graph6 string")
    if data[0] == 63:
        if len(data) < 4:
            raise ParseError("truncated graph6 long-form header")
        if data[1] == 63:
            raise ParseError("graph6 8-byte order encoding not supported")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 payload has {len(body)} sextets, expected {need} for n={n}")
    bits = []
    for x in body:
        bits.extend((x >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits in graph6 payload")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (short form for n <= 62)."""
    n = g.n
    if n <= 62:
        head = [chr(n + 63)]
    elif n <= 258047:
        head = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        raise ValueError("graph too large for supported graph6 forms")
    bits = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    while len(bits) % 6:
        bits.append(0)
    out = head
    for k in range(0, len(bits), 6):
        x = 0
        for b in bits[k:k + 6]:
            x = (x << 1) | b
        out.append(chr(x + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def square(g: Graph) -> Graph:
    """The square of ``g``: same vertices, an edge wherever distance is 1 or 2."""
    return _square(g)


@_store
def _square(g: Graph) -> Graph:
    adj2 = []
    for v in range(g.n):
        m = g.adj[v]
        acc = m
        mm = m
        while mm:
            b = mm & -mm
            acc |= g.adj[b.bit_length() - 1]
            mm ^= b
        adj2.append(acc & ~(1 << v))
    return Graph(g.n, tuple(adj2))


def distance_matrix(g: Graph) -> list[list]:
    """Exact hop distances via BFS from every vertex.

    Entries are non-negative ints, or :data:`INFINITE` across components.
    """
    n = g.n
    d: list[list] = [[INFINITE] * n for _ in range(n)]
    for s in range(n):
        row = d[s]
        row[s] = 0
        seen = 1 << s
        frontier = 1 << s
        dist = 0
        while frontier:
            nxt = 0
            mm = frontier
            while mm:
                b = mm & -mm
                nxt |= g.adj[b.bit_length() - 1]
                mm ^= b
            nxt &= ~seen
            dist += 1
            mm = nxt
            while mm:
                b = mm & -mm
                row[b.bit_length() - 1] = dist
                mm ^= b
            seen |= nxt
            frontier = nxt
    return d


def _component_mask(g: Graph, start: int) -> int:
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        mm = frontier
        while mm:
            b = mm & -mm
            nxt |= g.adj[b.bit_length() - 1]
            mm ^= b
        frontier = nxt & ~seen
        seen |= nxt
    return seen


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


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return _component_mask(g, 0) == g.full_mask()


def complement(g: Graph) -> Graph:
    """The complement graph (an involution)."""
    full = g.full_mask()
    return Graph(g.n, tuple((full & ~m & ~(1 << v)) for v, m in enumerate(g.adj)))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph spanned by ``vertices``, relabelled 0..k-1 in ascending order.

    Returns the subgraph plus the remap record: ``remap[new] == old``.
    """
    vs = sorted(set(vertices))
    keep = 0
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        keep |= 1 << v
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


def symmetric_difference_subgraph(g: Graph, s1: Iterable[int], s2: Iterable[int]) -> Graph:
    """Subgraph induced by the symmetric difference of two vertex sets."""
    a, b = set(s1), set(s2)
    sub, _ = induced_subgraph(g, (a - b) | (b - a))
    return sub


def girth(g: Graph):
    """Length of a shortest cycle, or :data:`INFINITE` for forests.

    For each edge, the shortest alternative path between its endpoints is
    found by BFS in the graph minus that edge; the minimum closes a shortest
    cycle.
    """
    best = INFINITE
    for u, v in g.edges():
        # BFS from u to v avoiding the edge uv
        seen = 1 << u
        frontier = seen
        dist = 0
        found = None
        while frontier and found is None:
            nxt = 0
            mm = frontier
            while mm:
                b = mm & -mm
                w = b.bit_length() - 1
                m = g.adj[w]
                if w == u:
                    m &= ~(1 << v)
                elif w == v:
                    m &= ~(1 << u)
                nxt |= m
                mm ^= b
            nxt &= ~seen
            dist += 1
            if nxt >> v & 1:
                found = dist
            seen |= nxt
            frontier = nxt
        if found is not None and found + 1 < best:
            best = found + 1
            if best == 3:
                return 3
    return best


def perfect_elimination_ordering(g: Graph):
    """A perfect elimination ordering if ``g`` is chordal, else ``None``.

    Maximum-cardinality search produces a candidate ordering; the ordering is
    then verified directly, so a ``None``/non-``None`` answer is
    self-certifying.
    """
    n = g.n
    weight = [0] * n
    visited = 0
    visit_order = []
    for _ in range(n):
        best_v, best_w = -1, -1
        for v in range(n):
            if visited >> v & 1:
                continue
            if weight[v] > best_w:
                best_v, best_w = v, weight[v]
        visit_order.append(best_v)
        visited |= 1 << best_v
        m = g.adj[best_v] & ~visited
        while m:
            b = m & -m
            weight[b.bit_length() - 1] += 1
            m ^= b
    elim = visit_order[::-1]
    remaining = g.full_mask()
    for v in elim:
        remaining &= ~(1 << v)
        later = m = g.adj[v] & remaining
        while m:
            b = m & -m
            if later & ~b & ~g.adj[b.bit_length() - 1]:
                return None
            m ^= b
    return tuple(elim)


def is_chordal(g: Graph) -> bool:
    """True iff every cycle of length at least four has a chord."""
    return perfect_elimination_ordering(g) is not None


def is_tree(g: Graph) -> bool:
    """True iff ``g`` is connected with exactly n - 1 edges."""
    return g.n >= 1 and is_connected(g) and g.edge_count == g.n - 1


def is_complete(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in bit_indices(g.adj[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def isolated_vertices(g: Graph) -> frozenset[int]:
    return frozenset(v for v in range(g.n) if g.adj[v] == 0)


def pendant_vertices(g: Graph) -> frozenset[int]:
    """Vertices of degree exactly one."""
    return frozenset(v for v in range(g.n) if g.adj[v].bit_count() == 1)


def is_stable_set(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the vertices are pairwise non-adjacent."""
    m = mask_of(vertices)
    if m & ~g.full_mask():
        raise ValueError("vertex out of range")
    return _is_stable_mask(g, m)


def _is_stable_mask(g: Graph, m: int) -> bool:
    """True iff no two vertices of the in-range mask ``m`` are adjacent."""
    mm = m
    while mm:
        b = mm & -mm
        if g.adj[b.bit_length() - 1] & m:
            return False
        mm ^= b
    return True


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the vertices are pairwise adjacent."""
    m = mask_of(vertices)
    mm = m
    while mm:
        b = mm & -mm
        v = b.bit_length() - 1
        if m & ~g.adj[v] & ~b:
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
