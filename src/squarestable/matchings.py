"""Maximum matchings and matching-shaped queries.

The maximum-matching core is an augmenting-path search with blossom
contraction, so it is exact on general graphs; the matching of a graph is
computed once and kept in the per-graph store.  On top of it sit the
perfect-matching uniqueness test, the forced pendant-edge matching, the
induced-matching predicate, and the "match A into S" counting queries used
by the maximum-stable-set characterisations.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Iterable, Optional

from .graphs import Graph, _pendants, _reach, _store, _vertex_mask, bit_indices

#: A matching is a frozenset of (u, v) edges with u < v, pairwise non-incident.
Matching = frozenset


def _normalize(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# Maximum matching (blossom contraction)
# ---------------------------------------------------------------------------


@_store
def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of ``g``, computed once per graph."""
    n = g.n
    adj = [bit_indices(m) for m in g.adj]
    match = [-1] * n

    # cheap greedy seed
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    def find_augmenting_path(root: int) -> bool:
        p = [-1] * n
        base = list(range(n))
        used = [False] * n
        used[root] = True
        q = deque([root])

        def lca(a: int, b: int) -> int:
            on_path = [False] * n
            a = base[a]
            while True:
                on_path[a] = True
                if match[a] == -1:
                    break
                a = base[p[match[a]]]
            b = base[b]
            while not on_path[b]:
                b = base[p[match[b]]]
            return b

        def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
            while base[v] != b:
                in_blossom[base[v]] = True
                in_blossom[base[match[v]]] = True
                p[v] = child
                child = match[v]
                v = p[match[v]]

        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom
                    curbase = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, curbase, to, in_blossom)
                    mark_path(to, curbase, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        # augment along the alternating path back to root
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting_path(v)

    return frozenset(_normalize(v, match[v]) for v in range(n) if match[v] > v)


def matching_number(g: Graph) -> int:
    """The maximum number of pairwise non-incident edges."""
    return len(maximum_matching(g))


def is_valid_matching(g: Graph, m: Iterable[tuple[int, int]]) -> bool:
    seen = 0
    for u, v in m:
        if not g.has_edge(u, v):
            return False
        bits = (1 << u) | (1 << v)
        if seen & bits:
            return False
        seen |= bits
    return True


# ---------------------------------------------------------------------------
# Perfect-matching structure
# ---------------------------------------------------------------------------


class PerfectMatchingStatus(enum.Enum):
    NONE = "none"
    UNIQUE = "unique"
    MULTIPLE = "multiple"


def unique_perfect_matching(g: Graph) -> tuple[PerfectMatchingStatus, Optional[Matching]]:
    """Decide whether ``g`` has no, exactly one, or several perfect matchings.

    One perfect matching is found first; every other perfect matching must
    avoid at least one of its edges, so uniqueness reduces to re-solving with
    each matched edge deleted in turn.
    """
    m = maximum_matching(g)
    if 2 * len(m) < g.n:
        return PerfectMatchingStatus.NONE, None
    for u, v in sorted(m):
        alt = maximum_matching(g.remove_edge(u, v))
        if 2 * len(alt) == g.n:
            return PerfectMatchingStatus.MULTIPLE, None
    return PerfectMatchingStatus.UNIQUE, m


def count_perfect_matchings(g: Graph, cap: int = 2) -> int:
    """Number of perfect matchings, saturated at ``cap``."""
    full = g.full_mask()
    return _count_matchings_into(g, full, full, cap)[0]


def pendant_perfect_matching(g: Graph) -> Optional[Matching]:
    """The perfect matching made of pendant edges, if one exists.

    Each pendant vertex forces its unique incident edge, so such a matching
    is unique when it exists.  The forced edges form a perfect matching
    exactly when there are n/2 of them and they cover every vertex.
    """
    pend = _pendants(g)
    edges = frozenset(_normalize(v, g.adj[v].bit_length() - 1) for v in bit_indices(pend))
    if 2 * len(edges) != g.n or pend | _reach(g.adj, pend) != g.full_mask():
        return None
    return edges


def is_induced_matching(g: Graph, m: Iterable[tuple[int, int]]) -> bool:
    """True iff no graph edge joins endpoints of two distinct matching edges."""
    edges = list(m)
    if not is_valid_matching(g, edges):
        raise ValueError("not a valid matching of this graph")
    covered = 0
    for u, v in edges:
        covered |= (1 << u) | (1 << v)
    for u, v in edges:
        if g.adj[u] & covered != 1 << v or g.adj[v] & covered != 1 << u:
            return False
    return True


# ---------------------------------------------------------------------------
# Matching a stable set into another set
# ---------------------------------------------------------------------------


def _count_matchings_into(g: Graph, amask: int, smask: int, cap: int):
    """Count the matchings that match every vertex of ``amask`` to a vertex
    of ``smask``, saturated at ``cap``, and return the first one found.  The
    lowest free vertex of ``amask`` goes next, so with ``amask == smask``
    these are the perfect matchings of the subgraph that mask induces."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    if amask == smask and amask.bit_count() % 2:
        return 0, None
    witness: Optional[frozenset] = None

    def rec(free: int, acc: list[tuple[int, int]]) -> int:
        nonlocal witness
        left = free & amask
        if not left:
            if witness is None:
                witness = frozenset(acc)
            return 1
        v = (left & -left).bit_length() - 1
        total = 0
        for u in bit_indices(g.adj[v] & smask & free):
            acc.append(_normalize(v, u))
            total += rec(free & ~(1 << u | 1 << v), acc)
            acc.pop()
            if total >= cap:
                return cap
        return total

    return rec(amask | smask, []), witness


def match_into(g: Graph, a: Iterable[int], s: Iterable[int], cap: int = 2):
    """Count the matchings that saturate ``a`` using only edges into ``s``.

    The count is saturated at ``cap`` (callers only ever distinguish
    none / unique / several).  Returns ``(count, witness)`` where the witness
    is the first matching found, or ``None``.
    """
    amask, smask = _vertex_mask(g.n, a), _vertex_mask(g.n, s)
    if amask & smask:
        raise ValueError("the two vertex sets must be disjoint")
    return _count_matchings_into(g, amask, smask, cap)
