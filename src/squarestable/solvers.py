"""Exact exponential solvers for stability, domination and clique-cover
invariants, plus exhaustive enumeration of the maximum stable sets.

Everything here is exact branch-and-bound.  The stability number is MCQ
(Tomita & Seki 2003) on the complement, with the bitset clique classes of
BBMC (San Segundo et al. 2011).  The enumeration of the maximum stable sets
branches the same way, with one clique partition per node, cuts a class
only when it cannot reach alpha, and sorts the sets it finds into
lexicographic order.  The stability search first folds away each vertex
with at most one neighbour left, which lies in some maximum stable set, so
forests and coronas need no branching.  A caller that asks whether alpha
reaches a size gives a floor for the incumbent and a stop at which the
search ends, and gets the set found as a witness.  The clique cover is a
DSATUR colouring of the complement, stopped as soon as it meets the
stored stability number; it keeps each vertex's number of neighbouring classes
in bit-sliced counters (one mask per bit of the count), so a ripple carry
raises a count and one intersection per slice finds the most saturated
vertices.  Domination branches on the uncovered vertex with the
fewest dominators, skips a dominator whose gain on the uncovered set lies
inside that of one tried before it (the subsumption rule of van Rooij &
Bodlaender 2011), and is bounded by the fewest largest gains that can cover
the rest; a node one member short of the best decides that member at once.
The independent domination number (the smallest maximal stable set) is the
same search with every choice drawn from the uncovered vertices, so it
enumerates nothing.  It branches where it has the fewest choices and tries
each, since swapping one member for a dominator that subsumes it may break
independence, and it stops at gamma, its lower bound.  Two caps guard
against accidental blow-ups: a solver cap (default 64) on every number and
set computed here, and an enumeration cap (default 24) only on the searches
that list a family, which can be exponential even when the number is easy:
the enumeration of maximum stable sets here and
``classify.omega_is_matroid``'s scan of every stable set, which also has a
budget of stable sets.  ``_check_cap`` makes every refusal of the package.

Each value is computed once per graph.  A cap-free private helper computes
it and keeps it for the last few graphs asked about, in a bounded store
(``graphs._store``, which also keeps ``square``, connectivity, the maximum
matching and ``classify``'s square-stability, core and simplicial vertices):
the maximum stable set the alpha search found, whose size is alpha, the
least maximum stable set, gamma, idom, the maximum stable sets and the
minimum clique cover, every set as a vertex mask.  Each public function
checks its cap before it reads the store, so a refused call is refused
again every time, and builds the sets it hands out from the stored masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import CapExceededError, InternalCheckError
from .graphs import Graph, _store, bit_indices, set_of, square
from .matchings import matching_number

DEFAULT_CAP_N = 64
DEFAULT_CAP_OMEGA = 24


class _CapKind(NamedTuple):
    default: int  # the limit when the caller gives none
    name: str  # the name a refusal carries


SOLVER = _CapKind(DEFAULT_CAP_N, "exact solver cap")
ENUMERATION = _CapKind(DEFAULT_CAP_OMEGA, "stable-set enumeration cap")
MATROID_BUDGET = _CapKind(200_000, "matroid stable-set budget")


def _check_cap(n: int, cap, kind: _CapKind = SOLVER) -> None:
    if cap is None:
        cap = kind.default
    if n > cap:
        raise CapExceededError(kind.name, cap, n)


@dataclass(frozen=True)
class InvariantRecord:
    """The six chained invariants of a graph and its square, plus the
    matching number and order."""

    alpha: int
    alpha_sq: int
    theta: int
    theta_sq: int
    gamma: int
    idom: int
    mu: int
    n: int

    def chain(self) -> tuple[int, int, int, int, int, int]:
        """Values in their proven order: alpha_sq, theta_sq, gamma, idom, alpha, theta."""
        return (self.alpha_sq, self.theta_sq, self.gamma, self.idom, self.alpha, self.theta)

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class StableSetFamily:
    """A family of equal-size stable sets together with its intersection."""

    sets: tuple[frozenset[int], ...]
    core: frozenset[int]


# ---------------------------------------------------------------------------
# Maximum stable sets
# ---------------------------------------------------------------------------


def _clique_partition(adj: tuple[int, ...], cand: int) -> list[int]:
    # Greedy partition of the candidate set into cliques, one class at a
    # time: each class takes the lowest vertex left, then the lowest vertex
    # adjacent to every member so far.  A stable set meets each class at most
    # once, so the union of any k classes has stability number at most k.
    classes: list[int] = []
    while cand:
        cls = 0
        q = cand
        while q:
            b = q & -q
            cls |= b
            q &= adj[b.bit_length() - 1]
        cand &= ~cls
        classes.append(cls)
    return classes


class _Reached(Exception):
    """Unwinds a search once its incumbent reaches the caller's stop."""


def _alpha_mask(adj: tuple[int, ...], mask: int, floor: int, stop: int):
    # A stable set of min(alpha(mask), stop) vertices as a mask, for a stop
    # >= 0, or None when alpha(mask) <= floor.
    if mask.bit_count() <= floor:
        return None
    # A vertex with at most one neighbour left can replace that neighbour in
    # a maximum stable set: alpha = 1 + alpha(G - N[v]).  Folding it lowers
    # only the degrees of its neighbour's neighbours, so those are looked at
    # again.
    folded, base, todo = 0, 0, mask
    while todo and base < stop:
        b = todo & -todo
        todo ^= b
        nbrs = adj[b.bit_length() - 1] & mask
        if mask & b and nbrs & (nbrs - 1) == 0:
            folded |= b
            base += 1
            mask &= ~nbrs & ~b
            if nbrs:
                todo |= adj[nbrs.bit_length() - 1] & mask
    best, witness = floor - base, None

    # when a vertex of class k is next, the candidates left lie in classes
    # 1..k, so no stable set among them has more than k members
    def rec(cand: int, size: int, chosen: int) -> None:
        nonlocal best, witness
        if size > best:
            best, witness = size, chosen
            if base + size >= stop:
                raise _Reached
        classes = _clique_partition(adj, cand)
        for k in range(len(classes), 0, -1):
            cls = classes[k - 1]
            while cls:
                if size + k <= best:
                    return
                b = cls & -cls
                cls ^= b
                rec(cand & ~adj[b.bit_length() - 1] & ~b, size + 1, chosen | b)
                cand ^= b

    try:
        rec(mask, 0, 0)
    except _Reached:
        pass
    return None if witness is None else folded | witness


def stability_number(g: Graph, cap=None) -> int:
    """Exact maximum size of a stable set: the maximum clique of the complement
    by MCQ, which splits the candidates into cliques of ``g``, branches in
    decreasing class number and cuts a node once size + class number <= best."""
    _check_cap(g.n, cap)
    return _maximum(g).bit_count()


@_store
def _maximum(g: Graph) -> int:
    # the maximum stable set the alpha search finds; alpha is its size
    return _alpha_mask(g.adj, g.full_mask(), -1, g.n)


def maximum_stable_set(g: Graph, cap=None) -> frozenset[int]:
    """One maximum stable set: the lexicographically smallest as a sorted
    vertex list."""
    _check_cap(g.n, cap)
    return set_of(_least_maximum_stable_set(g))


@_store
def _least_maximum_stable_set(g: Graph) -> int:
    # Keep each vertex in turn that lies in some maximum stable set of the
    # candidates left: in the last witness found, or in the one a decision
    # search finds.  A witness stays maximum while its vertices are kept, so
    # the walk starts from the set the alpha search found.
    adj = g.adj
    witness = _maximum(g)
    remaining = witness.bit_count()
    chosen = 0
    cand = g.full_mask()
    v = 0
    while remaining:
        bit = 1 << v
        rest = cand & ~adj[v] & ~bit
        if cand & bit and not witness & bit:
            found = _alpha_mask(adj, rest, remaining - 2, remaining - 1)
            if found is not None:
                witness = found | bit
        if cand & witness & bit:
            chosen |= bit
            cand = rest
            remaining -= 1
        else:
            cand &= ~bit
        v += 1
    return chosen


def enumerate_maximum_stable_sets(g: Graph, cap=None) -> StableSetFamily:
    """Every maximum stable set, exactly once, in lexicographic order."""
    _check_cap(g.n, cap, ENUMERATION)
    sets = tuple(set_of(m) for m in _omega(g))  # never empty: alpha = 0 has the empty set
    return StableSetFamily(sets, sets[0].intersection(*sets[1:]))


@_store
def _omega(g: Graph) -> tuple[int, ...]:
    # MCQ branching as in _alpha_mask, with one clique partition per node;
    # a class is cut only when even size + class number falls short of alpha,
    # so every maximum stable set is reached exactly once
    adj = g.adj
    alpha = _maximum(g).bit_count()
    found: list[int] = []

    def rec(cand: int, size: int, chosen: int) -> None:
        if size == alpha:
            found.append(chosen)
            return
        classes = _clique_partition(adj, cand)
        for k in range(len(classes), 0, -1):
            if size + k < alpha:
                return
            cls = classes[k - 1]
            while cls:
                b = cls & -cls
                cls ^= b
                rec(cand & ~adj[b.bit_length() - 1] & ~b, size + 1, chosen | b)
                cand ^= b

    rec(g.full_mask(), 0, 0)
    return tuple(sorted(found, key=bit_indices))


# ---------------------------------------------------------------------------
# Domination and clique cover
# ---------------------------------------------------------------------------


def independent_domination_number(g: Graph, cap=None) -> int:
    """Minimum cardinality of a maximal stable set: the domination search of
    ``domination_number`` restricted to choices that keep the set stable."""
    _check_cap(g.n, cap)
    return _idom(g)


def domination_number(g: Graph, cap=None) -> int:
    """Exact minimum size of a dominating set.

    Branch-and-bound: branch on the uncovered vertex with the fewest
    dominators (the smallest closed neighbourhood), trying its dominators in
    decreasing order of their gain on the uncovered set.  A dominator whose
    gain lies inside the gain of one tried before it is skipped: any
    dominating set through it stays dominating, and no larger, when that one
    replaces it.  A node is pruned when even the largest gains need too many
    further vertices to cover what is left, and one short of the best it
    takes the last member from the uncovered vertices' closed neighbourhoods.
    ``independent_domination_number`` runs the same search without the skip,
    since the replacement may be adjacent to a later member; its last member
    must be uncovered, and it branches on the uncovered vertex with the
    fewest uncovered closed neighbours, ties to the lowest index.
    """
    _check_cap(g.n, cap)
    return _gamma(g)


@_store
def _gamma(g: Graph) -> int:
    return _domination_search(g, independent=False)


@_store
def _idom(g: Graph) -> int:
    # every independent dominating set dominates, so idom >= gamma
    return _domination_search(g, independent=True, lower=_gamma(g))


def _domination_search(g: Graph, independent: bool, lower: int = 0) -> int:
    # An independent dominating set is one whose every member was uncovered
    # when it was chosen, so in that case the greedy picks, the gains bound
    # and the branching choices all range over the uncovered vertices only.
    # The search stops once it finds a set of the size of a known lower bound.
    closed = tuple(m | (1 << v) for v, m in enumerate(g.adj))
    full = g.full_mask()
    vertices = range(g.n)
    branch_order = sorted(vertices, key=lambda v: (closed[v].bit_count(), v))

    # greedy cover for the initial upper bound
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
        if not uncovered:
            if size < best:
                best = size
            return
        if best <= lower or size + 1 >= best:
            return
        if size + 2 == best:
            # a last member must dominate every uncovered vertex (idom: be one)
            common = uncovered if independent else full
            rest = uncovered
            while rest and common:
                b = rest & -rest
                rest ^= b
                common &= closed[b.bit_length() - 1]
            if common:
                best = size + 1
            return
        pool = bit_indices(uncovered) if independent else vertices
        gains = [(closed[v] & uncovered).bit_count() for v in pool]
        # the fewest vertices whose largest gains add up to the uncovered count
        left = uncovered.bit_count()
        need = size
        for c in sorted(gains, reverse=True):
            need += 1
            left -= c
            if left <= 0 or need >= best:
                break
        if need >= best:
            return
        # idom branches on the uncovered vertex with the fewest choices.  gamma
        # skips a dominator whose gain lies inside the gain of one tried
        # before it (see domination_number); idom cannot, since that swap may
        # break independence
        choices = (closed[pool[gains.index(min(gains))]] & uncovered if independent
                   else closed[next(v for v in branch_order if uncovered >> v & 1)])
        kept: list[int] = []
        for m in sorted((closed[u] & uncovered for u in bit_indices(choices)),
                        key=lambda m: -m.bit_count()):
            if independent or all(m & ~k for k in kept):
                kept.append(m)
                rec(uncovered & ~m, size + 1)

    rec(full, 0)
    return best


def _counted(counts: tuple[int, ...], inc: int) -> tuple[int, ...]:
    # bit-sliced counters, least significant slice first (bit v of counts[j]
    # is bit j of v's count): add one to each vertex of inc by a ripple carry
    if not inc:
        return counts
    out = list(counts)
    for j, sl in enumerate(counts):
        out[j] = sl ^ inc
        inc &= sl
        if not inc:
            return tuple(out)
    out.append(inc)
    return tuple(out)


def clique_cover(g: Graph, cap=None) -> list[frozenset[int]]:
    """A minimum partition of the vertices into cliques.

    Computed as an exact colouring of the complement: DSATUR branch-and-bound
    (Brélaz 1979), bounded below by the stability number of the graph, which
    is the clique number of the complement.
    """
    _check_cap(g.n, cap)
    return sorted((set_of(c) for c in _cover(g)), key=sorted)


@_store
def _cover(g: Graph) -> tuple[int, ...]:
    # a minimum colouring of the complement, bounded below by its clique
    # number, the stored alpha of g
    n, full = g.n, g.full_mask()
    adj = tuple(full & ~m & ~(1 << v) for v, m in enumerate(g.adj))
    lower = _maximum(g).bit_count()

    # first-fit colouring in decreasing complement degree, ties to the lower
    # index, for the initial upper bound
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
    reach: list[int] = []  # reach[i]: the vertices adjacent to classes[i]

    def rec(uncoloured: int, counts: tuple[int, ...]) -> None:
        # DSATUR: colour next the vertex whose neighbours already use the most
        # distinct colours, ties broken by its degree among the uncoloured,
        # then by the lowest index; keeping each slice of counts, from the
        # highest down, that meets the candidates leaves the uncoloured
        # vertices with the most neighbouring classes
        nonlocal best, best_k
        if len(classes) >= best_k:
            return
        if not uncoloured:
            best = classes.copy()
            best_k = len(classes)
            return
        top = uncoloured
        for sl in reversed(counts):
            if top & sl:
                top &= sl
        if top & (top - 1):
            v, most = -1, -1
            while top:
                b = top & -top
                top ^= b
                w = b.bit_length() - 1
                d = (adj[w] & uncoloured).bit_count()
                if d > most:
                    v, most = w, d
        else:
            v = top.bit_length() - 1
        bit = 1 << v
        rest = uncoloured & ~bit
        av = adj[v]
        for i, cl in enumerate(classes):
            if cl & av == 0:
                r = reach[i]
                classes[i], reach[i] = cl | bit, r | av
                rec(rest, _counted(counts, av & rest & ~r))
                classes[i], reach[i] = cl, r
                if best_k == lower:
                    return
        if len(classes) + 1 < best_k:
            classes.append(bit)
            reach.append(av)
            rec(rest, _counted(counts, av & rest))
            classes.pop()
            reach.pop()

    if best_k > lower:
        rec(full, ())
    return tuple(best)


def clique_cover_number(g: Graph, cap=None) -> int:
    """Minimum number of cliques whose union covers the vertex set."""
    _check_cap(g.n, cap)
    return len(_cover(g))


# ---------------------------------------------------------------------------
# The invariant chain
# ---------------------------------------------------------------------------


def invariant_chain(g: Graph, cap=None) -> InvariantRecord:
    """All chained invariants of ``g`` and its square, order-checked.

    The ordering alpha_sq <= theta_sq <= gamma <= idom <= alpha <= theta is
    asserted before returning; a violation is a solver bug and raises
    :class:`InternalCheckError` rather than returning silently.  The solver
    cap is checked before any search, so a refusal costs nothing.
    """
    _check_cap(g.n, cap)
    sq = square(g)
    record = InvariantRecord(
        alpha=stability_number(g, cap),
        alpha_sq=stability_number(sq, cap),
        theta=clique_cover_number(g, cap),
        theta_sq=clique_cover_number(sq, cap),
        gamma=domination_number(g, cap),
        idom=independent_domination_number(g, cap),
        mu=matching_number(g),
        n=g.n,
    )
    chain = record.chain()
    if any(a > b for a, b in zip(chain, chain[1:])):
        raise InternalCheckError(f"invariant chain violated: {record}")
    if record.alpha + record.mu > record.n:
        raise InternalCheckError(f"alpha + mu exceeds order: {record}")
    return record
