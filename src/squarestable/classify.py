"""Graph-class predicates with witnesses and report-level consistency checks.

Square-stability (alpha of the graph equals alpha of its square) sits at the
centre; around it: well-coveredness, the Koenig-Egervary property, simplex
structure, stability of alpha under edge edits, the unique-matching and
exchange properties of maximum stable sets, and the matroid test on the
family of maximum stable sets.

Each predicate is computed by one route; where that route is a
characterisation, the tests cross-check it against the definition.  Only
``omega_is_matroid`` computes two routes and compares them, and
``classify`` checks that its report is consistent; a mismatch raises
:class:`InternalCheckError` instead of silently trusting either result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import InternalCheckError
from .graphs import (
    Graph,
    _is_clique_mask,
    _pendants,
    _reach,
    _store,
    _vertex_mask,
    bit_indices,
    is_chordal,
    set_of,
    square,
    stable_subsets,
)
from .matchings import matching_number, pendant_perfect_matching
from .solvers import (
    ENUMERATION,
    MATROID_BUDGET,
    _alpha_mask,
    _check_cap,
    _least_maximum_stable_set,
    _maximum,
    independent_domination_number,
    maximum_stable_set,
    stability_number,
)


class AlphaPlusClass(enum.Enum):
    """How alpha reacts to adding any missing edge, refined by the size of
    the intersection of all maximum stable sets (0 or 1 when stable)."""

    NOT_PLUS = "NOT_PLUS"
    PLUS_0 = "PLUS_0"
    PLUS_1 = "PLUS_1"


# The class of a graph whose core has 0, 1, or at least 2 vertices.
_CLASS_BY_CORE_SIZE = (AlphaPlusClass.PLUS_0, AlphaPlusClass.PLUS_1, AlphaPlusClass.NOT_PLUS)


@dataclass(frozen=True)
class Simplex:
    """A maximal clique containing at least one simplicial vertex."""

    clique: frozenset[int]
    simplicial_members: frozenset[int]


@dataclass
class ClassificationReport:
    square_stable: bool
    well_covered: bool
    very_well_covered: bool
    koenig_egervary: bool
    simplicial_graph: bool
    chordal: bool
    simplex_partition: bool
    alpha_minus: bool
    alpha_plus_class: AlphaPlusClass
    omega_matroid: bool
    witnesses: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(vars(self), alpha_plus_class=self.alpha_plus_class.value)


# ---------------------------------------------------------------------------
# Square-stability and coveredness
# ---------------------------------------------------------------------------


def is_square_stable(g: Graph, cap=None) -> bool:
    """True iff the stability number survives squaring the graph."""
    _check_cap(g.n, cap)
    return _square_stable(g)


@_store
def _square_stable(g: Graph) -> bool:
    return _maximum(g).bit_count() == _maximum(square(g)).bit_count()


def square_stable_witness(g: Graph, cap=None):
    """A maximum stable set of the square whose vertices are pairwise at
    distance at least 3, or ``None`` when the graph is not square-stable."""
    if not is_square_stable(g, cap):
        return None
    return maximum_stable_set(square(g), cap)


def is_well_covered(g: Graph, cap=None) -> bool:
    """True iff there are no isolated vertices and every maximal stable set
    is maximum: the smallest maximal stable set, the independent domination
    number, has alpha vertices."""
    if 0 in g.adj:
        return False
    return independent_domination_number(g, cap) == stability_number(g, cap)


def well_covered_counterexample(g: Graph, cap=None):
    """Why a graph fails to be well-covered.

    Returns ``{"isolated_vertex": v}`` for the smallest isolated vertex, or
    ``{"non_maximum_maximal": members}`` for the lexicographically smallest
    non-maximum maximal stable set, its members ascending, or ``None`` when
    well-covered.
    """
    if 0 in g.adj:
        return {"isolated_vertex": g.adj.index(0)}
    alpha = stability_number(g, cap)
    if independent_domination_number(g, cap) == alpha:
        return None
    return {"non_maximum_maximal": _least_small_maximal_stable_set(g, alpha)}


def _least_small_maximal_stable_set(g: Graph, alpha: int) -> list[int]:
    # Depth-first over stable sets built as increasing vertex lists, children
    # in increasing order, so the first maximal set reached is the least.  A
    # node is cut when a vertex below its last member that no member
    # dominates has no neighbour among the candidates left, or when one more
    # member would reach alpha.  Called only when some maximal stable set is
    # smaller.
    adj = g.adj
    chosen: list[int] = []

    def rec(undominated: int, cand: int) -> bool:
        # cand: the undominated vertices above the last member
        for w in bit_indices(undominated & ~cand):
            if not adj[w] & cand:
                return False
        if not undominated:
            return True
        if len(chosen) + 1 >= alpha:
            return False
        for v in bit_indices(cand):
            cand ^= 1 << v
            chosen.append(v)
            if rec(undominated & ~adj[v] & ~(1 << v), cand & ~adj[v]):
                return True
            chosen.pop()
        return False

    full = g.full_mask()
    if not rec(full, full):
        raise InternalCheckError("no maximal stable set below alpha, though idom < alpha")
    return chosen


def is_very_well_covered(g: Graph, cap=None) -> bool:
    """Well-covered with exactly twice the stability number many vertices."""
    return is_well_covered(g, cap) and g.n == 2 * stability_number(g, cap)


def is_koenig_egervary(g: Graph, cap=None) -> bool:
    """True iff the stability number plus the matching number equals the order."""
    return stability_number(g, cap) + matching_number(g) == g.n


def pendants_contain_maximum_stable_set(g: Graph, cap=None) -> bool:
    """True iff some maximum stable set consists of pendant vertices only.

    Equivalent to ``alpha(G[P]) == alpha(G)`` for the pendant set P.  For
    every connected graph except K2 this is just "exactly alpha pendant
    vertices", but in K2 the two pendants are adjacent and only one can be
    picked.
    """
    alpha = stability_number(g, cap)
    return _alpha_mask(g.adj, _pendants(g), alpha - 1, alpha) is not None


# ---------------------------------------------------------------------------
# Simplicial structure
# ---------------------------------------------------------------------------


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """All vertices whose open neighbourhood induces a clique (isolated
    vertices qualify vacuously)."""
    return set_of(_simplicial(g))


@_store
def _simplicial(g: Graph) -> int:
    return sum(1 << v for v, m in enumerate(g.adj) if _is_clique_mask(g.adj, m))


def simplexes(g: Graph) -> list[Simplex]:
    """Every maximal clique that contains at least one simplicial vertex,
    sorted.

    The closed neighbourhood N[v] of a simplicial vertex v is a clique that
    holds every clique through v, so it is the one maximal clique containing
    v: the simplexes are the distinct N[v].
    """
    simp = _simplicial(g)
    cliques = {g.adj[v] | 1 << v for v in bit_indices(simp)}
    return sorted(
        (Simplex(set_of(c), set_of(c & simp)) for c in cliques), key=lambda s: sorted(s.clique))


def simplex_partition_check(g: Graph) -> bool:
    """True iff every vertex lies in exactly one simplex: the simplexes cover
    every vertex (the graph is simplicial) and their sizes add up to n."""
    cliques = {g.adj[v] | 1 << v for v in bit_indices(_simplicial(g))}
    return sum(c.bit_count() for c in cliques) == g.n and is_simplicial_graph(g)


def is_simplicial_graph(g: Graph) -> bool:
    """True iff every vertex is simplicial or adjacent to a simplicial vertex."""
    simp = _simplicial(g)
    return simp | _reach(g.adj, simp) == g.full_mask()


# ---------------------------------------------------------------------------
# Stability of alpha under edge edits
# ---------------------------------------------------------------------------


def alpha_minus_stable(g: Graph, cap=None) -> bool:
    """True iff deleting any single edge leaves the stability number unchanged.

    Deleting the edge uv raises alpha exactly when a stable set T of size
    alpha - 1 avoids N[u] and N[v].  No search is needed when a vertex v
    outside a maximum stable set S has one neighbour u in it: S + v is
    stable once uv is deleted.  Otherwise, T + u and T + v are maximum, so
    neither u nor v is in the core K, T contains K, and u and v lie outside
    N[K].  Only those edges are searched, each for alpha - 1 - |K| vertices
    of G - N[K] - N[u] - N[v].
    """
    _check_cap(g.n, cap)
    s = _least_maximum_stable_set(g)
    adj, full = g.adj, g.full_mask()
    if any((adj[v] & s).bit_count() == 1 for v in bit_indices(full & ~s)):
        return False
    core = _core(g)
    room = full & ~core & ~_reach(adj, core)
    need = s.bit_count() - 1 - core.bit_count()
    return all(
        _alpha_mask(adj, room & ~(adj[u] | adj[v]), need - 1, need) is None
        for u in bit_indices(room) for v in bit_indices(adj[u] & room) if u < v
    )


@_store
def _core(g: Graph) -> int:
    # The vertices that lie in every maximum stable set.  They all lie in any
    # one maximum stable set S, tried vertex by vertex.  Every maximum stable
    # set contains the vertices F already proven in the core, so one that
    # misses the candidate v is F + T, for a stable set T of alpha - |F|
    # vertices in G - N[F] - v.  If there is one, v is out of the core, and
    # only the candidates in T stay.  room is V - N[F], need is alpha - |F|,
    # and F is the part of the core outside room.
    adj = g.adj
    core = left = _least_maximum_stable_set(g)
    room, need = g.full_mask(), core.bit_count()
    while left:
        b = left & -left
        left ^= b
        other = _alpha_mask(adj, room & ~b, need - 1, need)
        if other is None:
            room &= ~adj[b.bit_length() - 1] & ~b
            need -= 1
        else:
            core &= other | ~room
            left &= core
    return core


def alpha_plus_class(g: Graph, cap=None) -> AlphaPlusClass:
    """Classify by the intersection of all maximum stable sets: empty,
    a single vertex, or larger (alpha then drops under some edge addition)."""
    _check_cap(g.n, cap)
    return _CLASS_BY_CORE_SIZE[min(_core(g).bit_count(), 2)]


# ---------------------------------------------------------------------------
# The unique-matching (P1) and exchange (P2) properties
# ---------------------------------------------------------------------------


def _p1(g: Graph, smask: int) -> bool:
    """True iff every stable set disjoint from the mask ``smask`` has exactly
    one matching into it: every outside vertex has exactly one neighbour in
    it, and the outside neighbours of each member are pairwise adjacent."""
    outside = g.full_mask() & ~smask
    return all((g.adj[v] & smask).bit_count() == 1 for v in bit_indices(outside)) and all(
        _is_clique_mask(g.adj, g.adj[u] & outside) for u in bit_indices(smask))


def _p2(g: Graph, smask: int, cap) -> bool:
    """True iff every non-empty stable set A disjoint from the stable mask
    ``smask`` extends by part of it to a maximum stable set; a non-stable
    mask raises ``ValueError``.

    That part misses N(A), so A extends exactly when |A| - |N(A) & s| >=
    alpha - |s|: for A = {v}, when v has at most k = |s| + 1 - alpha
    neighbours in s.  As k <= 1, these bounds add up to |N(A) & s| <=
    k |A| <= |A| - 1 + k, so the singletons decide every A.
    """
    if _reach(g.adj, smask) & smask:
        raise ValueError("s must be a stable set")
    k = smask.bit_count() + 1 - stability_number(g, cap)
    return all((g.adj[v] & smask).bit_count() <= k
               for v in bit_indices(g.full_mask() & ~smask))


def _maximum_stable_mask(g: Graph, s0, cap) -> int:
    s = _vertex_mask(g.n, s0)
    if _reach(g.adj, s) & s:
        raise ValueError("s0 must be a stable set")
    if s.bit_count() != stability_number(g, cap):
        raise ValueError("s0 must be a maximum stable set")
    return s


def property_p1(g: Graph, s0, cap=None) -> bool:
    """Unique matchability of every disjoint stable set into the maximum
    stable set ``s0``.  Raises ``ValueError`` unless ``s0`` is maximum."""
    return _p1(g, _maximum_stable_mask(g, s0, cap))


def property_p2(g: Graph, s0, cap=None) -> bool:
    """Exchange property of the maximum stable set ``s0``: every disjoint
    stable set extends by part of ``s0`` to a maximum stable set."""
    return _p2(g, _maximum_stable_mask(g, s0, cap), cap)


# ---------------------------------------------------------------------------
# Matroid structure of the family of maximum stable sets
# ---------------------------------------------------------------------------


def omega_is_matroid(g: Graph, cap_omega=None) -> bool:
    """True iff the stable sets of ``g`` are the independent sets of a
    matroid, whose bases are then exactly the maximum stable sets.

    Checked by brute force over the hereditary family and by the structural
    criterion (every component is a clique: no vertex is the middle of an
    induced path on three vertices, so every vertex is simplicial); the two
    must agree.  The brute force uses the augmentation axiom, which for a
    hereditary family reduces to: no stable set ``I`` admits a stable subset
    of its closed neighbourhood larger than ``I`` (a larger stable set
    avoiding the neighbourhood would itself provide the augmenting element).
    """
    _check_cap(g.n, cap_omega, ENUMERATION)
    exchange = True
    seen, budget = 0, MATROID_BUDGET.default
    for imask in stable_subsets(g, g.full_mask()):
        seen += 1
        if seen > budget:
            _check_cap(seen, budget, MATROID_BUDGET)
        closed = imask | _reach(g.adj, imask)
        if _alpha_mask(g.adj, closed, imask.bit_count(), imask.bit_count() + 1) is not None:
            exchange = False
            break

    cliques = _simplicial(g) == g.full_mask()

    if exchange != cliques:
        raise InternalCheckError(
            f"augmentation route ({exchange}) disagrees with "
            f"clique-components route ({cliques}) for omega_is_matroid"
        )
    return exchange


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


def classify(g: Graph, cap=None) -> ClassificationReport:
    """Full classification with witnesses and report-level consistency checks.
    ``omega_matroid`` reads the clique-components criterion alone: every
    vertex is simplicial."""
    ss = is_square_stable(g, cap)
    wc = is_well_covered(g, cap)
    vwc = is_very_well_covered(g, cap)
    ke = is_koenig_egervary(g, cap)
    plus = alpha_plus_class(g, cap)
    aminus = alpha_minus_stable(g, cap)

    witnesses: dict = {
        "maximum_stable_set": bit_indices(_least_maximum_stable_set(g)),
        "omega_core": bit_indices(_core(g)),
    }
    if ss:
        witnesses["square_stable_distance3_set"] = bit_indices(
            _least_maximum_stable_set(square(g)))
    if not wc:
        witnesses["well_covered_failure"] = well_covered_counterexample(g, cap)
    ppm = pendant_perfect_matching(g)
    if ppm is not None:
        witnesses["pendant_perfect_matching"] = sorted(ppm)
    witnesses["simplexes"] = [
        {"clique": sorted(s.clique), "simplicial": sorted(s.simplicial_members)}
        for s in simplexes(g)
    ]

    report = ClassificationReport(
        square_stable=ss,
        well_covered=wc,
        very_well_covered=vwc,
        koenig_egervary=ke,
        simplicial_graph=is_simplicial_graph(g),
        chordal=is_chordal(g),
        simplex_partition=simplex_partition_check(g),
        alpha_minus=aminus,
        alpha_plus_class=plus,
        omega_matroid=_simplicial(g) == g.full_mask(),
        witnesses=witnesses,
    )

    # Square-stability implies well-coveredness, the empty-core property and
    # the failure of alpha_minus -- but only on graphs where every vertex has
    # a neighbour; isolated vertices (and the edgeless graphs they produce)
    # are exempt by definition of well-covered and by vacuity of alpha_minus.
    if report.square_stable and g.n > 0 and 0 not in g.adj:
        if not report.well_covered:
            raise InternalCheckError("square-stable graph reported as not well-covered")
        if report.alpha_plus_class is not AlphaPlusClass.PLUS_0:
            raise InternalCheckError("square-stable graph with a non-empty core")
        if report.alpha_minus:
            raise InternalCheckError("square-stable graph reported alpha_minus-stable")
    return report
