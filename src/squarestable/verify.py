"""The theorem engine.

Thirteen characterisations of square-stability are each evaluated by an
independent route and must all agree on every graph; further suites check
the invariant-inequality chain, a battery of implications between the graph
classes, the tree characterisation with its recursive edge structure, the
girth-at-least-six characterisation, and the matroid dual-route agreement.

The statements and the implication clauses are tables of predicates of a
graph and its caps.  Every suite has one shape: a private function of the
graph and its caps that returns ``None`` when the suite's hypotheses exclude
the graph, or else the graph's detail record and its violations.  The suites
are a registry that one loop, ``run_suite``, runs over a corpus; it is the
one per-graph entry point, and it adds the graph's id to each record.  It
reads the corpus once, in the caller's order, and keeps no copy of it, so a
corpus can be streamed from its generator.  The predicates share the
values of a graph through the solvers' per-graph store, so each value is
computed once however many of them read it, and they read Omega(G) and
Omega(G^2) as the stored vertex masks.  A violation names its graph and
clause.  Its witness is the disagreeing values or the failed internal
check's message; implication clauses do not yet produce one, so their
witness is empty.  All results are deterministic for a given corpus, in a
given order, and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .classify import (
    AlphaPlusClass,
    _p1,
    _p2,
    alpha_minus_stable,
    alpha_plus_class,
    is_koenig_egervary,
    is_simplicial_graph,
    is_square_stable,
    is_very_well_covered,
    is_well_covered,
    omega_is_matroid,
    pendants_contain_maximum_stable_set,
    simplex_partition_check,
)
from .errors import CapExceededError, InternalCheckError
from .graphs import (
    Graph,
    _pendants,
    _reach,
    bit_indices,
    components,
    girth,
    induced_subgraph,
    is_chordal,
    is_complete,
    is_connected,
    is_tree,
    square,
)
from .matchings import _count_matchings_into, pendant_perfect_matching
from .solvers import (
    ENUMERATION,
    _alpha_mask,
    _check_cap,
    _omega as _omega_masks,
    clique_cover_number,
    domination_number,
    independent_domination_number,
    invariant_chain,
    stability_number,
)


def _attempt(predicate, g: Graph, cap, cap_omega):
    """The predicate's value, or ``None`` when a cap refuses it."""
    try:
        return predicate(g, cap, cap_omega)
    except CapExceededError:
        return None


def _spread(g: Graph, m: int) -> bool:
    """True iff the vertices of the mask ``m`` are pairwise at distance at
    least 3: their closed neighbourhoods are pairwise disjoint."""
    union = 0
    for v in bit_indices(m):
        if union & (closed := g.adj[v] | 1 << v):
            return False
        union |= closed
    return True


def _check_family_caps(g: Graph, cap, cap_omega) -> None:
    """Refuse a search that lists a family of ``g`` above either cap, the
    enumeration cap first."""
    _check_cap(g.n, cap_omega, ENUMERATION)
    _check_cap(g.n, cap)


def _omega(g: Graph, cap, cap_omega) -> tuple[int, ...]:
    """Omega(G) as vertex masks, in lexicographic order."""
    _check_family_caps(g, cap, cap_omega)
    return _omega_masks(g)


def _omega_sq(g: Graph, cap, cap_omega) -> tuple[int, ...]:
    return _omega(square(g), cap, cap_omega)


def _isolated(g: Graph) -> bool:
    return g.n == 0 or 0 in g.adj


def _all_differences(route, g: Graph, cap, cap_omega) -> bool:
    """Whether ``route`` holds for the mask S1 ^ S2 of every S1 in Omega(G)
    and S2 in Omega(G^2).  S2 is stable in G too, so G[S1 ^ S2] is
    bipartite between S1 - S2 and S2 - S1."""
    omega_sq = _omega_sq(g, cap, cap_omega)
    return all(route(g, s1 ^ s2) for s1 in _omega(g, cap, cap_omega) for s2 in omega_sq)


def _unique_pm(g: Graph, d: int) -> bool:
    return _count_matchings_into(g, d, d, 2)[0] == 1


def _has_pm(g: Graph, d: int) -> bool:
    # by Koenig, a bipartite G[d] has |d| - alpha(G[d]) matching edges
    half = d.bit_count() // 2
    return _alpha_mask(g.adj, d, half, half + 1) is None


def _induced_pm(g: Graph, d: int) -> bool:
    # an induced perfect matching is all of G[d]: every degree there is 1
    return all((g.adj[v] & d).bit_count() == 1 for v in bit_indices(d))


# The thirteen characterisations of square-stability for a connected graph,
# each by its own route, in report order.
_STATEMENTS = {
    "simplex_partition": lambda g, cap, cap_omega: simplex_partition_check(g),
    "alpha_preserved_by_square": lambda g, cap, cap_omega: is_square_stable(g, cap),
    "theta_preserved_by_square":
        lambda g, cap, cap_omega:
        clique_cover_number(g, cap) == clique_cover_number(square(g), cap),
    "six_invariants_equal": lambda g, cap, cap_omega: len({
        stability_number(square(g), cap),
        clique_cover_number(square(g), cap),
        domination_number(g, cap),
        independent_domination_number(g, cap),
        stability_number(g, cap),
        clique_cover_number(g, cap),
    }) == 1,
    "square_omega_contained":
        lambda g, cap, cap_omega:
        set(_omega_sq(g, cap, cap_omega)) <= set(_omega(g, cap, cap_omega)),
    "distance3_maximum_stable_set":
        lambda g, cap, cap_omega: any(_spread(g, s) for s in _omega(g, cap, cap_omega)),
    "some_set_uniquely_matchable":
        lambda g, cap, cap_omega: any(_p1(g, s) for s in _omega(g, cap, cap_omega)),
    "all_square_sets_uniquely_matchable":
        lambda g, cap, cap_omega: all(_p1(g, s) for s in _omega_sq(g, cap, cap_omega)),
    "symmetric_differences_unique_pm":
        lambda g, cap, cap_omega: _all_differences(_unique_pm, g, cap, cap_omega),
    "symmetric_differences_have_pm":
        lambda g, cap, cap_omega: _all_differences(_has_pm, g, cap, cap_omega),
    "symmetric_differences_induced_pm":
        lambda g, cap, cap_omega: _all_differences(_induced_pm, g, cap, cap_omega),
    "some_set_exchangeable":
        lambda g, cap, cap_omega: any(_p2(g, s, cap) for s in _omega(g, cap, cap_omega)),
    "all_square_sets_exchangeable":
        lambda g, cap, cap_omega: all(_p2(g, s, cap) for s in _omega_sq(g, cap, cap_omega)),
}

STATEMENT_NAMES = tuple(_STATEMENTS)


def _equivalences(g: Graph, cap, cap_omega):
    """Evaluate all thirteen characterisations and report their agreement.

    Disconnected graphs are reduced per component: a statement holds for the
    whole graph exactly when it holds for every component, and unevaluated
    component results propagate as unevaluated.
    """
    parts = [g] if is_connected(g) else [induced_subgraph(g, c)[0] for c in components(g)]
    values = dict.fromkeys(STATEMENT_NAMES, True)
    for part in parts:
        for name, statement in _STATEMENTS.items():
            v = _attempt(statement, part, cap, cap_omega)
            if v is None:
                values[name] = None
            elif values[name] is not None:
                values[name] = values[name] and v
    evaluated = [(name, v) for name, v in values.items() if v is not None]
    failing = None
    for name, v in evaluated[1:]:
        if v != evaluated[0][1]:
            failing = {"statements": [evaluated[0][0], name], "values": [evaluated[0][1], v]}
            break
    violations = [] if failing is None else [("equivalence_agreement", failing)]
    return {"statements": values, "agree": failing is None, "failing_pair": failing}, violations


def _chain(g: Graph, cap, cap_omega):
    try:
        record = invariant_chain(g, cap)
    except InternalCheckError as exc:
        return None, [("inequality_chain", str(exc))]
    return {"invariants": record.as_dict()}, []


# ---------------------------------------------------------------------------
# Implication clauses
# ---------------------------------------------------------------------------


def _distance3_attained(g: Graph, cap, cap_omega):
    if not (is_square_stable(g, cap) and is_connected(g) and not is_complete(g)):
        return None
    # the members of a set lie pairwise at distance at least 3, so another
    # member next to the radius-2 ball around a lies at distance exactly 3
    rows = square(g).adj
    return all(s & ~(1 << a) & _reach(g.adj, rows[a] | 1 << a)
               for s in _omega_sq(g, cap, cap_omega) for a in bit_indices(s))


def _pendant_matching_forces_square_omega(g: Graph, cap, cap_omega) -> bool:
    if pendant_perfect_matching(g) is None:
        return True
    if not is_square_stable(g, cap):
        return False
    # a matching edge with two pendant endpoints (a K2 component) leaves a
    # per-edge choice, so the family cannot be a singleton
    pend = _pendants(g)
    return bool(_reach(g.adj, pend) & pend) or _omega_sq(g, cap, cap_omega) == (pend,)


def _ke_pendant_characterisation(g: Graph, cap, cap_omega):
    if not (is_connected(g) and g.n >= 2 and is_koenig_egervary(g, cap)):
        return None
    # all three sides are computed first: a refusal of any one makes the
    # clause unevaluated, not decided by the other two
    pendant_pm = pendant_perfect_matching(g) is not None
    pendant_vwc = (is_very_well_covered(g, cap)
                   and pendants_contain_maximum_stable_set(g, cap))
    return is_square_stable(g, cap) == pendant_pm == pendant_vwc


def _component_reduction(g: Graph, cap, cap_omega) -> bool:
    parts = [is_square_stable(induced_subgraph(g, comp)[0], cap) for comp in components(g)]
    return is_square_stable(g, cap) == all(parts)


# Each conditional between the graph classes, in report order.  A clause reads
# ``None`` when its hypotheses exclude the graph: disconnection where a
# statement is proven for connected graphs only, isolated vertices where
# well-coveredness is undefined by fiat.
_CLAUSES = {
    "square_stable_iff_square_omega_contained":
        lambda g, cap, cap_omega: is_square_stable(g, cap)
        == (set(_omega_sq(g, cap, cap_omega)) <= set(_omega(g, cap, cap_omega))),
    "square_omega_pairwise_distance3":
        lambda g, cap, cap_omega: all(_spread(g, s) for s in _omega_sq(g, cap, cap_omega)),
    "square_omega_distance3_attained": _distance3_attained,
    "omega_equality_iff_complete":
        lambda g, cap, cap_omega:
        ((_omega_sq(g, cap, cap_omega) == _omega(g, cap, cap_omega)) == is_complete(g))
        if is_connected(g) else None,
    "square_stable_not_alpha_minus":
        lambda g, cap, cap_omega: None if _isolated(g)
        else not is_square_stable(g, cap) or not alpha_minus_stable(g, cap),
    "square_stable_alpha_plus_zero":
        lambda g, cap, cap_omega: None if _isolated(g)
        else not is_square_stable(g, cap) or alpha_plus_class(g, cap) is AlphaPlusClass.PLUS_0,
    "square_stable_well_covered":
        lambda g, cap, cap_omega: None if _isolated(g)
        else not is_square_stable(g, cap) or is_well_covered(g, cap),
    "square_stable_iff_simplicial_well_covered":
        lambda g, cap, cap_omega: None if _isolated(g)
        else is_square_stable(g, cap)
        == (is_simplicial_graph(g) and is_well_covered(g, cap)),
    "chordal_square_stable_iff_well_covered":
        lambda g, cap, cap_omega: None if _isolated(g) or not is_chordal(g)
        else is_square_stable(g, cap) == is_well_covered(g, cap),
    "pendant_matching_forces_square_omega": _pendant_matching_forces_square_omega,
    "ke_pendant_characterisation": _ke_pendant_characterisation,
    "ke_well_covered_iff_very_well_covered":
        lambda g, cap, cap_omega:
        (is_well_covered(g, cap) == is_very_well_covered(g, cap))
        if is_koenig_egervary(g, cap) else None,
    "square_stable_ke_square":
        lambda g, cap, cap_omega: not (is_square_stable(g, cap) and is_koenig_egervary(g, cap))
        or is_koenig_egervary(square(g), cap),
    "component_reduction": _component_reduction,
}


def _implications(g: Graph, cap, cap_omega):
    """Each clause's value: ``None`` when its hypotheses exclude the graph
    or a cap refuses it.  The witness is ``""`` for every clause so far."""
    clauses = {name: _attempt(clause, g, cap, cap_omega) for name, clause in _CLAUSES.items()}
    return {"clauses": clauses}, [(name, "") for name, value in clauses.items() if value is False]


# ---------------------------------------------------------------------------
# Tree and girth suites
# ---------------------------------------------------------------------------


def _recursion_edge(t: Graph, cap) -> Optional[tuple[int, int]]:
    """An edge of the tree ``t`` between two non-pendant vertices whose
    removal splits off one edge and leaves a well-covered tree, or ``None``."""
    for u, v in t.edges():
        if t.degree(u) < 2 or t.degree(v) < 2:
            continue
        pruned = t.remove_edge(u, v)
        first, second = components(pruned)
        small, rest = (first, second) if len(first) <= len(second) else (second, first)
        if len(small) != 2:
            continue
        sub, _ = induced_subgraph(pruned, rest)
        if is_well_covered(sub, cap):
            return u, v
    return None


def _tree(g: Graph, cap, cap_omega):
    """The four equivalent statements for trees of order at least 2, plus
    the recursive edge: a well-covered tree other than a single edge has a
    ``_recursion_edge``."""
    if not is_tree(g) or g.n < 2:
        return None
    statements = [
        is_well_covered(g, cap),
        is_very_well_covered(g, cap),
        pendant_perfect_matching(g) is not None,
        is_square_stable(g, cap),
    ]
    recurses = statements[0] and g.n > 2
    edge = _recursion_edge(g, cap) if recurses else None
    violations = []
    if len(set(statements)) > 1:
        violations.append(("tree_equivalence", statements))
    if recurses and edge is None:
        violations.append(("tree_recursion_edge", "no qualifying edge"))
    return {"statements": statements, "recursion_edge": edge}, violations


def _girth6(g: Graph, cap, cap_omega):
    """Five equivalent statements for a connected graph of girth at least
    six (acyclic qualifies) other than the 7-cycle (connected and 2-regular
    on seven vertices) and one vertex; ``None`` (a skip) for any other."""
    if not (is_connected(g) and g.n != 1
            and not (g.n == 7 and all(m.bit_count() == 2 for m in g.adj)) and girth(g) >= 6):
        return None
    ke = is_koenig_egervary(g, cap)
    statements = [
        is_well_covered(g, cap),
        pendant_perfect_matching(g) is not None,
        is_very_well_covered(g, cap),
        ke and g.n == 2 * stability_number(g, cap)
        and pendants_contain_maximum_stable_set(g, cap),
        ke and is_square_stable(g, cap),
    ]
    violations = [] if len(set(statements)) == 1 else [("girth6_equivalence", statements)]
    return {"statements": statements}, violations


def _matroid(g: Graph, cap, cap_omega):
    _check_family_caps(g, cap, cap_omega)
    try:
        omega_is_matroid(g, cap_omega)
    except InternalCheckError as exc:
        return None, [("matroid_routes", str(exc))]
    return None, []


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

# Each suite maps (graph, cap, cap_omega) to ``None`` when its hypotheses
# exclude the graph (a skip), or else to the graph's detail record (or
# ``None``) and its violations as (clause, witness) pairs.  The entries call
# the checkers and tables through this module's globals, so that rebinding
# one (a test's fake, a tracer's wrapper) reaches every call.
_SUITES = {
    "equivalences": _equivalences,
    "chain": _chain,
    "implications": _implications,
    "tree": _tree,
    "girth6": _girth6,
    "matroid": _matroid,
}

SUITE_NAMES = tuple(_SUITES)


@dataclass
class SuiteResult:
    suite_name: str
    graphs_checked: int = 0
    skipped: int = 0
    violations: list = field(default_factory=list)
    details: list = field(default_factory=list)

    def as_dict(self, include_details: bool) -> dict:
        return {k: v for k, v in vars(self).items() if include_details or k != "details"}


@dataclass
class RunReport:
    suites: list[SuiteResult]
    graphs_total: int

    @property
    def violations_total(self) -> int:
        return sum(len(s.violations) for s in self.suites)

    def as_dict(self, include_details: bool = False) -> dict:
        return {
            "graphs_total": self.graphs_total,
            "violations_total": self.violations_total,
            "suites": [s.as_dict(include_details) for s in self.suites],
        }


def run_suite(
    items: Iterable[tuple[str, Graph]],
    suites: Iterable[str] = SUITE_NAMES,
    cap=None,
    cap_omega=None,
    strict: bool = False,
    keep_details: bool = False,
) -> RunReport:
    """Run the selected suites over a corpus of (graph_id, graph) pairs.

    The corpus is read once, in the order given, which is the report's
    order: each pair goes through the selected suites, in the order of
    ``SUITE_NAMES``, before the next is drawn, and no copy is kept.  In
    strict mode a cap refusal propagates, the solver cap's before any suite
    runs; otherwise the suite skips the graph.  Unknown or repeated suites
    raise ``ValueError`` before the first pair is drawn.
    """
    chosen = list(suites)
    for i, name in enumerate(chosen):
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
        if name in chosen[:i]:
            raise ValueError(f"suite {name!r} named twice")
    results = {name: SuiteResult(name) for name in SUITE_NAMES if name in chosen}
    total = 0
    for gid, g in items:
        total += 1
        if strict:
            _check_cap(g.n, cap)
        for name, res in results.items():
            try:
                outcome = _SUITES[name](g, cap, cap_omega)
            except (CapExceededError, RecursionError):
                if strict:
                    raise
                outcome = None
            if outcome is None:
                res.skipped += 1
                continue
            detail, violations = outcome
            res.graphs_checked += 1
            if keep_details and detail is not None:
                res.details.append({"graph_id": gid, **detail})
            res.violations.extend(
                {"graph_id": gid, "clause": clause, "witness": witness}
                for clause, witness in violations
            )

    return RunReport([results[name] for name in chosen], total)
