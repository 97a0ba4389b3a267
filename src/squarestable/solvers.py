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
stability number.  Domination branches on the uncovered vertex with the
fewest dominators, skips a dominator whose gain on the uncovered set lies
inside that of one tried before it (the subsumption rule of van Rooij &
Bodlaender 2011), and is bounded by the fewest largest gains that can cover
the rest; the independent domination number (the smallest maximal stable
set) is the same search with every choice drawn from the uncovered
vertices, so it enumerates nothing.  It tries every such choice, since
swapping one member for a dominator that subsumes it may break
independence, and it stops at gamma, its lower bound.  Two caps guard
against accidental blow-ups: a solver cap (default 64) on every number and
set computed here, and an enumeration cap (default 24) only on the searches
that list a family, which can be exponential even when the number is easy:
the enumeration of maximum stable sets here and
``classify.omega_is_matroid``'s scan of every stable set.

Each value is computed once per graph.  A cap-free private helper computes
it and keeps it for the last few graphs asked about, in a bounded store
(``graphs._store``, which also keeps ``square`` and the maximum matching):
the stability number, the lexicographically least maximum stable set, the
family of maximum stable sets, the domination and independent domination
numbers and the minimum clique cover.  Each public function checks its cap
before it reads the store, so a refused call is refused again every time,
and hands out a fresh copy of a stored list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, InternalCheckError
from .graphs import Graph, _store, bit_indices, set_of, square
from .matchings import matching_number

DEFAULT_CAP_N = 64
DEFAULT_CAP_OMEGA = 24

SOLVER_CAP = "exact solver cap"
OMEGA_CAP = "stable-set enumeration cap"


def _check_cap(n: int, cap, default: int, name: str) -> None:
    limit = default if cap is None else cap
    if n > limit:
        raise CapExceededError(name, limit, n)


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
    # Returns (size, witness): size is max(floor, alpha(mask)) capped at
    # stop >= 0, and witness is a stable set of that size as a mask, or None
    # when none beats the floor.
    if mask.bit_count() <= floor:
        return floor, None
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
    return (floor, None) if witness is None else (base + best, folded | witness)


def stability_number(g: Graph, cap=None) -> int:
    """Exact maximum size of a stable set: the maximum clique of the complement
    by MCQ, which splits the candidates into cliques of ``g``, branches in
    decreasing class number and cuts a node once size + class number <= best."""
    _check_cap(g.n, cap, DEFAULT_CAP_N, SOLVER_CAP)
    return _alpha(g)


@_store
def _alpha(g: Graph) -> int:
    return _alpha_mask(g.adj, g.full_mask(), 0, g.n)[0]


def maximum_stable_set(g: Graph, cap=None) -> frozenset[int]:
    """One maximum stable set: the lexicographically smallest as a sorted
    vertex list."""
    _check_cap(g.n, cap, DEFAULT_CAP_N, SOLVER_CAP)
    return _least_maximum_stable_set(g)


@_store
def _least_maximum_stable_set(g: Graph) -> frozenset[int]:
    # Keep each vertex in turn that lies in some maximum stable set of the
    # candidates left: in the last witness found, or in the one a decision
    # search finds.  A witness stays maximum while its vertices are kept.
    adj = g.adj
    remaining = _alpha(g)
    chosen = witness = 0
    cand = g.full_mask()
    v = 0
    while remaining:
        bit = 1 << v
        rest = cand & ~adj[v] & ~bit
        if cand & bit and not witness & bit:
            found = _alpha_mask(adj, rest, remaining - 2, remaining - 1)[1]
            if found is not None:
                witness = found | bit
        if cand & witness & bit:
            chosen |= bit
            cand = rest
            remaining -= 1
        else:
            cand &= ~bit
        v += 1
    return set_of(chosen)


def enumerate_maximum_stable_sets(g: Graph, cap=None) -> StableSetFamily:
    """Every maximum stable set, exactly once, in lexicographic order."""
    _check_cap(g.n, cap, DEFAULT_CAP_OMEGA, OMEGA_CAP)
    return _omega(g)


@_store
def _omega(g: Graph) -> StableSetFamily:
    # MCQ branching as in _alpha_mask, with one clique partition per node;
    # a class is cut only when even size + class number falls short of alpha,
    # so every maximum stable set is reached exactly once
    adj = g.adj
    alpha = _alpha(g)
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
    core = g.full_mask()
    for m in found:
        core &= m
    sets = sorted(bit_indices(m) for m in found)
    return StableSetFamily(tuple(frozenset(s) for s in sets), set_of(core))


# ---------------------------------------------------------------------------
# Domination and clique cover
# ---------------------------------------------------------------------------


def independent_domination_number(g: Graph, cap=None) -> int:
    """Minimum cardinality of a maximal stable set: the domination search of
    ``domination_number`` restricted to choices that keep the set stable."""
    _check_cap(g.n, cap, DEFAULT_CAP_N, SOLVER_CAP)
    return _idom(g)


def domination_number(g: Graph, cap=None) -> int:
    """Exact minimum size of a dominating set.

    Branch-and-bound: branch on the uncovered vertex with the fewest
    dominators (the smallest closed neighbourhood), trying its dominators in
    decreasing order of their gain on the uncovered set.  A dominator whose
    gain lies inside the gain of one tried before it is skipped: any
    dominating set through it stays dominating, and no larger, when that one
    replaces it.  A node is pruned when even the largest gains need too many
    further vertices to cover what is left.  ``independent_domination_number``
    runs the same search without the skip, since the replacement may be
    adjacent to a later member.
    """
    _check_cap(g.n, cap, DEFAULT_CAP_N, SOLVER_CAP)
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
    n = g.n
    if n == 0:
        return 0
    closed = tuple(m | (1 << v) for v, m in enumerate(g.adj))
    full = g.full_mask()
    vertices = range(n)
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
        if best <= lower:
            return
        if not uncovered:
            if size < best:
                best = size
            return
        pool = bit_indices(uncovered) if independent else vertices
        # the fewest vertices whose largest gains add up to the uncovered count
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
        # gamma skips a dominator whose gain lies inside the gain of one
        # tried before it (see domination_number); idom cannot, since that
        # swap may break independence
        choices = closed[v] & uncovered if independent else closed[v]
        kept: list[int] = []
        for m in sorted((closed[u] & uncovered for u in bit_indices(choices)),
                        key=lambda m: -m.bit_count()):
            if independent or all(m & ~k for k in kept):
                kept.append(m)
                rec(uncovered & ~m, size + 1)

    rec(full, 0)
    return best


def _raised(levels: list[int], inc: int) -> list[int]:
    # each vertex of inc gains a neighbour in one more class, so it moves up
    # one level; the list is returned as it is when no vertex moves
    if not inc:
        return levels
    return [levels[0] & ~inc] + [hi & ~inc | lo & inc for lo, hi in zip(levels, levels[1:])]


def _exact_coloring(adj: tuple[int, ...], n: int, clique_number) -> list[int]:
    """Minimum proper colouring as a list of colour-class masks.

    ``clique_number()`` must return the graph's clique number; it is called
    only when the greedy bounds do not already meet.
    """
    if n == 0:
        return []
    # greedy clique seeds the greedy colouring's order and the lower bound
    order_by_degree = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    clique: list[int] = []
    cmask = 0
    for v in order_by_degree:
        if cmask & ~adj[v] == 0:
            clique.append(v)
            cmask |= 1 << v
    lower = len(clique)

    # greedy colouring for the initial upper bound
    best: list[int] = []
    for v in clique + [v for v in order_by_degree if not cmask >> v & 1]:
        for i, cl in enumerate(best):
            if cl & adj[v] == 0:
                best[i] = cl | (1 << v)
                break
        else:
            best.append(1 << v)
    best_k = len(best)
    if best_k == lower:
        return best
    lower = clique_number()
    if best_k == lower:
        return best

    classes: list[int] = []
    reach: list[int] = []  # reach[i]: the vertices adjacent to classes[i]

    def rec(uncoloured: int, levels: list[int]) -> None:
        # DSATUR: colour next the vertex whose neighbours already use the most
        # distinct colours, ties broken by its degree among the uncoloured,
        # then by the lowest index; levels[s] holds the uncoloured vertices
        # with neighbours in exactly s classes
        nonlocal best, best_k
        if len(classes) >= best_k:
            return
        if not uncoloured:
            best = classes.copy()
            best_k = len(classes)
            return
        s = len(levels) - 1
        while not levels[s]:
            s -= 1
        top = levels[s]
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
        levels = levels.copy()
        levels[s] &= ~bit
        rest = uncoloured & ~bit
        av = adj[v]
        for i, cl in enumerate(classes):
            if cl & av == 0:
                r = reach[i]
                classes[i], reach[i] = cl | bit, r | av
                rec(rest, _raised(levels, av & rest & ~r))
                classes[i], reach[i] = cl, r
                if best_k == lower:
                    return
        if len(classes) + 1 < best_k:
            classes.append(bit)
            reach.append(av)
            rec(rest, _raised(levels + [0], av & rest))
            classes.pop()
            reach.pop()

    rec((1 << n) - 1, [(1 << n) - 1])
    return best


def clique_cover(g: Graph, cap=None) -> list[frozenset[int]]:
    """A minimum partition of the vertices into cliques.

    Computed as an exact colouring of the complement: DSATUR branch-and-bound
    (Brélaz 1979), bounded below by the stability number of the graph, which
    is the clique number of the complement.
    """
    _check_cap(g.n, cap, DEFAULT_CAP_N, SOLVER_CAP)
    return list(_cover(g))


@_store
def _cover(g: Graph) -> tuple[frozenset[int], ...]:
    full = g.full_mask()
    co_adj = tuple(full & ~m & ~(1 << v) for v, m in enumerate(g.adj))
    classes = _exact_coloring(co_adj, g.n, lambda: _alpha(g))
    return tuple(sorted((set_of(c) for c in classes), key=sorted))


def clique_cover_number(g: Graph, cap=None) -> int:
    """Minimum number of cliques whose union covers the vertex set."""
    return len(clique_cover(g, cap))


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
    _check_cap(g.n, cap, DEFAULT_CAP_N, SOLVER_CAP)
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
