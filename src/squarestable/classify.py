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
import itertools
from dataclasses import dataclass, field

from .errors import CapExceededError, InternalCheckError
from .graphs import (
    Graph,
    bit_indices,
    components,
    induced_subgraph,
    is_chordal,
    is_clique,
    is_stable_set,
    isolated_vertices,
    mask_of,
    pendant_vertices,
    set_of,
    square,
    stable_subsets,
)
from .matchings import matching_number, pendant_perfect_matching
from .solvers import (
    DEFAULT_CAP_OMEGA,
    OMEGA_CAP,
    _alpha_mask,
    _check_cap,
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
    return stability_number(g, cap) == stability_number(square(g), cap)


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
    if isolated_vertices(g):
        return False
    return independent_domination_number(g, cap) == stability_number(g, cap)


def well_covered_counterexample(g: Graph, cap=None):
    """Why a graph fails to be well-covered.

    Returns ``("isolated_vertex", v)`` for the smallest isolated vertex, or
    ``("non_maximum_maximal", s)`` for the lexicographically smallest
    non-maximum maximal stable set, or ``None`` when well-covered.
    """
    iso = isolated_vertices(g)
    if iso:
        return ("isolated_vertex", min(iso))
    alpha = stability_number(g, cap)
    if independent_domination_number(g, cap) == alpha:
        return None
    return ("non_maximum_maximal", _least_small_maximal_stable_set(g, alpha))


def _least_small_maximal_stable_set(g: Graph, alpha: int) -> frozenset[int]:
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
        skipped = undominated & ~cand
        while skipped:
            b = skipped & -skipped
            if not adj[b.bit_length() - 1] & cand:
                return False
            skipped ^= b
        if not undominated:
            return True
        if len(chosen) + 1 >= alpha:
            return False
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            chosen.append(v)
            if rec(undominated & ~adj[v] & ~b, cand & ~adj[v]):
                return True
            chosen.pop()
        return False

    full = g.full_mask()
    if not rec(full, full):
        raise InternalCheckError("no maximal stable set below alpha, though idom < alpha")
    return frozenset(chosen)


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
    pend = pendant_vertices(g)
    sub, _ = induced_subgraph(g, pend)
    return stability_number(sub, cap) == stability_number(g, cap)


# ---------------------------------------------------------------------------
# Simplicial structure
# ---------------------------------------------------------------------------


def simplicial_vertices(g: Graph) -> frozenset[int]:
    """All vertices whose open neighbourhood induces a clique (isolated
    vertices qualify vacuously)."""
    out = []
    for v, m in enumerate(g.adj):
        mm = m
        while mm:
            b = mm & -mm
            if m & ~b & ~g.adj[b.bit_length() - 1]:
                break
            mm ^= b
        else:
            out.append(v)
    return frozenset(out)


def simplexes(g: Graph) -> list[Simplex]:
    """Every maximal clique that contains at least one simplicial vertex,
    sorted.

    The closed neighbourhood N[v] of a simplicial vertex v is a clique that
    holds every clique through v, so it is the one maximal clique containing
    v: the simplexes are the distinct N[v].
    """
    simp = mask_of(simplicial_vertices(g))
    cliques = {g.adj[v] | 1 << v for v in bit_indices(simp)}
    return sorted(
        (Simplex(set_of(c), set_of(c & simp)) for c in cliques), key=lambda s: sorted(s.clique))


def simplex_partition_check(g: Graph) -> bool:
    """True iff every vertex lies in exactly one simplex."""
    return _covers_each_vertex_once(g.n, simplexes(g))


def _covers_each_vertex_once(n: int, simps: list[Simplex]) -> bool:
    counts = [0] * n
    for s in simps:
        for v in s.clique:
            counts[v] += 1
    return all(c == 1 for c in counts)


def is_simplicial_graph(g: Graph) -> bool:
    """True iff every vertex is simplicial or adjacent to a simplicial vertex."""
    simp = mask_of(simplicial_vertices(g))
    for v in range(g.n):
        if not (simp >> v & 1 or g.adj[v] & simp):
            return False
    return True


# ---------------------------------------------------------------------------
# Stability of alpha under edge edits
# ---------------------------------------------------------------------------


def alpha_minus_stable(g: Graph, cap=None) -> bool:
    """True iff deleting any single edge leaves the stability number unchanged.

    Deleting the edge uv raises alpha exactly when a stable set of size
    alpha - 1 avoids the closed neighbourhoods of both u and v, so each edge
    costs one search that stops at the first such set.  No search is needed
    when a vertex v outside a maximum stable set S has one neighbour u in
    it: S + v is stable once uv is deleted.
    """
    s = mask_of(maximum_stable_set(g, cap))
    alpha, full = s.bit_count(), g.full_mask()
    if any((g.adj[v] & s).bit_count() == 1 for v in bit_indices(full & ~s)):
        return False
    return all(
        _alpha_mask(g.adj, full & ~(g.adj[u] | g.adj[v]), alpha - 2, alpha - 1)[1] is None
        for u, v in g.edges()
    )


def _omega_core(g: Graph, cap=None) -> frozenset[int]:
    """The vertices that lie in every maximum stable set.

    They all lie in any one maximum stable set S.  A vertex v of S is out of
    the core exactly when G - v still has a stable set of size alpha; that
    set is itself maximum, so only the candidates inside it stay.
    """
    core = left = mask_of(maximum_stable_set(g, cap))
    alpha, full = core.bit_count(), g.full_mask()
    while left:
        b = left & -left
        other = _alpha_mask(g.adj, full & ~b, alpha - 1, alpha)[1]
        if other is not None:
            core &= other
        left &= core & ~b
    return set_of(core)


def alpha_plus_class(g: Graph, cap=None) -> AlphaPlusClass:
    """Classify by the intersection of all maximum stable sets: empty,
    a single vertex, or larger (alpha then drops under some edge addition)."""
    return _CLASS_BY_CORE_SIZE[min(len(_omega_core(g, cap)), 2)]


# ---------------------------------------------------------------------------
# The unique-matching (P1) and exchange (P2) properties
# ---------------------------------------------------------------------------


def p1_unique_matchability(g: Graph, s) -> bool:
    """True iff every stable set disjoint from ``s`` has exactly one matching
    into ``s``.

    ``s`` need not be a maximum stable set.  Evaluated by the direct
    criterion: every outside vertex has exactly one neighbour in ``s``, and
    no two non-adjacent outside vertices share that neighbour.
    """
    smask = mask_of(s)
    partner: dict[int, list[int]] = {}
    for v in bit_indices(g.full_mask() & ~smask):
        hits = g.adj[v] & smask
        if hits.bit_count() != 1:
            return False
        partner.setdefault(hits, []).append(v)
    return all(
        g.has_edge(a, b) for vs in partner.values() for a, b in itertools.combinations(vs, 2)
    )


def p2_exchangeability(g: Graph, s, cap=None) -> bool:
    """True iff every non-empty stable set A disjoint from ``s`` extends by
    part of ``s`` to a maximum stable set.

    A part of ``s`` that keeps A stable misses A's neighbourhood, so A
    extends exactly when ``s`` has alpha - |A| vertices outside it.  The
    empty set is vacuously fine: a proper part of ``s`` is never maximum.
    """
    smask = mask_of(s)
    rest = g.full_mask() & ~smask
    alpha = stability_number(g, cap)
    for amask in stable_subsets(g, rest):
        if amask == 0:
            continue
        na = 0
        for v in bit_indices(amask):
            na |= g.adj[v]
        if amask.bit_count() + (smask & ~na).bit_count() < alpha:
            return False
    return True


def _require_maximum_stable(g: Graph, s0, cap=None) -> frozenset[int]:
    s = frozenset(s0)
    if not is_stable_set(g, s):
        raise ValueError("s0 must be a stable set")
    if len(s) != stability_number(g, cap):
        raise ValueError("s0 must be a maximum stable set")
    return s


def property_p1(g: Graph, s0, cap=None) -> bool:
    """Unique matchability of every disjoint stable set into the maximum
    stable set ``s0``.  Raises ``ValueError`` unless ``s0`` is maximum."""
    s = _require_maximum_stable(g, s0, cap)
    return p1_unique_matchability(g, s)


def property_p2(g: Graph, s0, cap=None) -> bool:
    """Exchange property of the maximum stable set ``s0``: every disjoint
    stable set extends by part of ``s0`` to a maximum stable set."""
    s = _require_maximum_stable(g, s0, cap)
    return p2_exchangeability(g, s, cap)


# ---------------------------------------------------------------------------
# Matroid structure of the family of maximum stable sets
# ---------------------------------------------------------------------------


_MATROID_SET_BUDGET = 200_000


def omega_is_matroid(g: Graph, cap_omega=None) -> bool:
    """True iff the stable sets of ``g`` are the independent sets of a
    matroid, whose bases are then exactly the maximum stable sets.

    Checked by brute force over the hereditary family and by the structural
    criterion (every component is a clique); the two must agree.  The brute
    force uses the augmentation axiom, which for a hereditary family reduces
    to: no stable set ``I`` admits a stable subset of its closed
    neighbourhood larger than ``I`` (a larger stable set avoiding the
    neighbourhood would itself provide the augmenting element).
    """
    _check_cap(g.n, cap_omega, DEFAULT_CAP_OMEGA, OMEGA_CAP)
    exchange = True
    seen = 0
    for imask in stable_subsets(g, g.full_mask()):
        seen += 1
        if seen > _MATROID_SET_BUDGET:
            raise CapExceededError("matroid stable-set budget", _MATROID_SET_BUDGET, seen)
        closed = imask
        mm = imask
        while mm:
            b = mm & -mm
            closed |= g.adj[b.bit_length() - 1]
            mm ^= b
        if _alpha_mask(g.adj, closed, imask.bit_count(), imask.bit_count() + 1)[1] is not None:
            exchange = False
            break

    cliques = _components_are_cliques(g)

    if exchange != cliques:
        raise InternalCheckError(
            f"augmentation route ({exchange}) disagrees with "
            f"clique-components route ({cliques}) for omega_is_matroid"
        )
    return exchange


def _components_are_cliques(g: Graph) -> bool:
    return all(is_clique(g, comp) for comp in components(g))


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


def classify(g: Graph, cap=None) -> ClassificationReport:
    """Full classification with witnesses and report-level consistency checks.
    ``omega_matroid`` reads the clique-components criterion alone."""
    ss = is_square_stable(g, cap)
    wc = is_well_covered(g, cap)
    vwc = is_very_well_covered(g, cap)
    ke = is_koenig_egervary(g, cap)
    core = _omega_core(g, cap)
    aminus = alpha_minus_stable(g, cap)

    witnesses: dict = {
        "maximum_stable_set": sorted(maximum_stable_set(g, cap)),
        "omega_core": sorted(core),
    }
    if ss:
        witnesses["square_stable_distance3_set"] = sorted(square_stable_witness(g, cap))
    if not wc:
        kind, evidence = well_covered_counterexample(g, cap)
        witnesses["well_covered_failure"] = (
            {"isolated_vertex": evidence} if kind == "isolated_vertex"
            else {"non_maximum_maximal": sorted(evidence)}
        )
    ppm = pendant_perfect_matching(g)
    if ppm is not None:
        witnesses["pendant_perfect_matching"] = sorted(ppm)
    simps = simplexes(g)
    witnesses["simplexes"] = [
        {"clique": sorted(s.clique), "simplicial": sorted(s.simplicial_members)}
        for s in simps
    ]

    report = ClassificationReport(
        square_stable=ss,
        well_covered=wc,
        very_well_covered=vwc,
        koenig_egervary=ke,
        simplicial_graph=is_simplicial_graph(g),
        chordal=is_chordal(g),
        simplex_partition=_covers_each_vertex_once(g.n, simps),
        alpha_minus=aminus,
        alpha_plus_class=_CLASS_BY_CORE_SIZE[min(len(core), 2)],
        omega_matroid=_components_are_cliques(g),
        witnesses=witnesses,
    )

    if report.very_well_covered and not report.well_covered:
        raise InternalCheckError("very well-covered graph reported as not well-covered")
    # Square-stability implies well-coveredness, the empty-core property and
    # the failure of alpha_minus -- but only on graphs where every vertex has
    # a neighbour; isolated vertices (and the edgeless graphs they produce)
    # are exempt by definition of well-covered and by vacuity of alpha_minus.
    if report.square_stable and g.n > 0 and not isolated_vertices(g):
        if not report.well_covered:
            raise InternalCheckError("square-stable graph reported as not well-covered")
        if report.alpha_plus_class is not AlphaPlusClass.PLUS_0:
            raise InternalCheckError("square-stable graph with a non-empty core")
        if report.alpha_minus:
            raise InternalCheckError("square-stable graph reported alpha_minus-stable")
    return report
