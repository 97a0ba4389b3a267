"""Exact exponential solvers for stability, domination and clique-cover
invariants, plus exhaustive enumeration of stable-set families.

Everything here is exact: branch-and-bound for the optimisation numbers,
full enumeration (pivoted Bron-Kerbosch, levelled branching) for the set
families.  The stability number is MCQ (Tomita & Seki 2003) on the
complement, with the bitset clique classes of BBMC (San Segundo et al. 2011);
their count also bounds the enumeration of maximum stable sets.  The clique
cover is a DSATUR colouring of the complement, stopped as soon as it meets
the stability number.  Domination branches on the uncovered vertex with the
fewest dominators, skips a dominator whose gain on the uncovered set lies
inside that of one tried before it (the subsumption rule of van Rooij &
Bodlaender 2011), and is bounded by the fewest largest gains that can cover
the rest; the independent domination number (the smallest maximal stable
set) is the same search with every choice drawn from the uncovered
vertices, so it enumerates nothing.  It tries every such choice, since
swapping one member for a dominator that subsumes it may break
independence.  Two caps guard against accidental
blow-ups: a hard solver cap (default 64) and a family-enumeration cap
(default 24, since the number of maximum stable sets can be exponential
even when the number itself is easy), which the independent domination
number also keeps.

Each value is computed once per graph.  A cap-free private helper computes
it and keeps it for the last few graphs asked about, in a bounded store
(``graphs._store``, which also keeps ``square`` and the maximum matching):
the stability number, the lexicographically least maximum stable set, the
family of maximum stable sets, the family of maximal stable sets, the
domination and independent domination numbers and the minimum clique
cover.  Each public function checks its cap before it reads the store, so a
refused call is refused again every time, and hands out a fresh copy of a
stored list.
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
        return {
            "n": self.n,
            "alpha": self.alpha,
            "alpha_sq": self.alpha_sq,
            "theta": self.theta,
            "theta_sq": self.theta_sq,
            "gamma": self.gamma,
            "idom": self.idom,
            "mu": self.mu,
        }


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


def _alpha_mask(adj: tuple[int, ...], mask: int) -> int:
    # when a vertex of class k is next, the candidates left lie in classes
    # 1..k, so no stable set among them has more than k members
    best = 0

    def rec(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        classes = _clique_partition(adj, cand)
        for k in range(len(classes), 0, -1):
            cls = classes[k - 1]
            while cls:
                if size + k <= best:
                    return
                b = cls & -cls
                cls ^= b
                rec(cand & ~adj[b.bit_length() - 1] & ~b, size + 1)
                cand ^= b

    rec(mask, 0)
    return best


def stability_number(g: Graph, cap=None) -> int:
    """Exact maximum size of a stable set: the maximum clique of the complement
    by MCQ, which splits the candidates into cliques of ``g``, branches in
    decreasing class number and cuts a node once size + class number <= best."""
    _check_cap(g.n, cap, DEFAULT_CAP_N, SOLVER_CAP)
    return _alpha(g)


@_store
def _alpha(g: Graph) -> int:
    return _alpha_mask(g.adj, g.full_mask())


def maximum_stable_set(g: Graph, cap=None) -> frozenset[int]:
    """One maximum stable set: the lexicographically smallest as a sorted
    vertex list."""
    _check_cap(g.n, cap, DEFAULT_CAP_N, SOLVER_CAP)
    return _least_maximum_stable_set(g)


@_store
def _least_maximum_stable_set(g: Graph) -> frozenset[int]:
    adj = g.adj
    remaining = _alpha(g)
    chosen: list[int] = []
    cand = g.full_mask()
    v = 0
    while remaining:
        bit = 1 << v
        if cand & bit and 1 + _alpha_mask(adj, cand & ~adj[v] & ~bit) == remaining:
            chosen.append(v)
            cand &= ~adj[v] & ~bit
            remaining -= 1
        else:
            cand &= ~bit
        v += 1
    return frozenset(chosen)


def enumerate_maximum_stable_sets(g: Graph, cap=None) -> StableSetFamily:
    """Every maximum stable set, exactly once, in lexicographic order."""
    _check_cap(g.n, cap, DEFAULT_CAP_OMEGA, OMEGA_CAP)
    return _omega(g)


@_store
def _omega(g: Graph) -> StableSetFamily:
    adj = g.adj
    alpha = _alpha(g)
    results: list[frozenset[int]] = []

    def rec(chosen: list[int], cand: int, size: int) -> None:
        if size == alpha:
            results.append(frozenset(chosen))
            return
        while cand:
            if size + len(_clique_partition(adj, cand)) < alpha:
                return
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            chosen.append(v)
            rec(chosen, cand & ~adj[v], size + 1)
            chosen.pop()

    rec([], g.full_mask(), 0)
    core = frozenset(range(g.n))
    for s in results:
        core &= s
    return StableSetFamily(tuple(results), core)


def enumerate_maximal_stable_sets(g: Graph, cap=None) -> list[frozenset[int]]:
    """All inclusion-maximal stable sets, each exactly once, sorted."""
    _check_cap(g.n, cap, DEFAULT_CAP_OMEGA, OMEGA_CAP)
    return list(_maximal_stable_sets(g))


@_store
def _maximal_stable_sets(g: Graph) -> tuple[frozenset[int], ...]:
    full = g.full_mask()
    co_adj = tuple(full & ~m & ~(1 << v) for v, m in enumerate(g.adj))
    return tuple(sorted((set_of(m) for m in _bron_kerbosch(co_adj, full)), key=sorted))


def _bron_kerbosch(adj: tuple[int, ...], full: int) -> list[int]:
    results: list[int] = []
    if not full:
        results.append(0)
        return results

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            results.append(r)
            return
        # pivot on the vertex covering most of p
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


# ---------------------------------------------------------------------------
# Domination and clique cover
# ---------------------------------------------------------------------------


def independent_domination_number(g: Graph, cap=None) -> int:
    """Minimum cardinality of a maximal stable set: the domination search of
    ``domination_number`` restricted to choices that keep the set stable."""
    _check_cap(g.n, cap, DEFAULT_CAP_OMEGA, OMEGA_CAP)
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
    return _domination_search(g, independent=True)


def _domination_search(g: Graph, independent: bool) -> int:
    # An independent dominating set is one whose every member was uncovered
    # when it was chosen, so in that case the greedy picks, the gains bound
    # and the branching choices all range over the uncovered vertices only.
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


def invariant_chain(g: Graph, cap=None, cap_omega=None) -> InvariantRecord:
    """All chained invariants of ``g`` and its square, order-checked.

    The ordering alpha_sq <= theta_sq <= gamma <= idom <= alpha <= theta is
    asserted before returning; a violation is a solver bug and raises
    :class:`InternalCheckError` rather than returning silently.  Both caps
    are checked before any search, in the order the searches meet them, so
    a refusal costs nothing.
    """
    _check_cap(g.n, cap, DEFAULT_CAP_N, SOLVER_CAP)
    _check_cap(g.n, cap_omega, DEFAULT_CAP_OMEGA, OMEGA_CAP)
    sq = square(g)
    record = InvariantRecord(
        alpha=stability_number(g, cap),
        alpha_sq=stability_number(sq, cap),
        theta=clique_cover_number(g, cap),
        theta_sq=clique_cover_number(sq, cap),
        gamma=domination_number(g, cap),
        idom=independent_domination_number(g, cap_omega),
        mu=matching_number(g),
        n=g.n,
    )
    chain = record.chain()
    if any(a > b for a, b in zip(chain, chain[1:])):
        raise InternalCheckError(f"invariant chain violated: {record}")
    if record.alpha + record.mu > record.n:
        raise InternalCheckError(f"alpha + mu exceeds order: {record}")
    return record
