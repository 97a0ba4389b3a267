"""Exact graph invariants of a graph and its square, classifiers for
square-stable graphs, and verification suites for the characterisation
theorems that connect them."""

from types import ModuleType as _ModuleType

from .classify import (
    AlphaPlusClass,
    ClassificationReport,
    Simplex,
    alpha_minus_stable,
    alpha_plus_class,
    classify,
    is_koenig_egervary,
    is_simplicial_graph,
    is_square_stable,
    is_very_well_covered,
    is_well_covered,
    omega_is_matroid,
    property_p1,
    property_p2,
    simplex_partition_check,
    simplexes,
    simplicial_vertices,
    square_stable_witness,
)
from .errors import CapExceededError, InternalCheckError, ParseError
from .generate import (
    FIXTURE_NAMES,
    canonical_graph,
    canonical_graph6,
    complete_bipartite_graph,
    complete_graph,
    corona_with_k1,
    cycle_graph,
    enumerate_corpus,
    named_fixture,
    path_graph,
    prufer_to_tree,
    random_connected_graph,
    random_tree,
    sample_corpus,
    star_graph,
)
from .graphs import (
    INFINITE,
    Graph,
    complement,
    components,
    distance_matrix,
    format_edge_list,
    girth,
    induced_subgraph,
    is_bipartite,
    is_chordal,
    is_connected,
    is_stable_set,
    is_tree,
    parse_edge_list,
    parse_graph6,
    pendant_vertices,
    perfect_elimination_ordering,
    square,
    to_graph6,
)
from .matchings import (
    Matching,
    PerfectMatchingStatus,
    count_perfect_matchings,
    is_induced_matching,
    match_into,
    matching_number,
    maximum_matching,
    pendant_perfect_matching,
    unique_perfect_matching,
)
from .solvers import (
    DEFAULT_CAP_N,
    DEFAULT_CAP_OMEGA,
    InvariantRecord,
    StableSetFamily,
    clique_cover,
    clique_cover_number,
    domination_number,
    enumerate_maximum_stable_sets,
    independent_domination_number,
    invariant_chain,
    maximum_stable_set,
    stability_number,
)
from .verify import (
    STATEMENT_NAMES,
    SUITE_NAMES,
    RunReport,
    SuiteResult,
    run_suite,
)

# The submodules bound as a side effect of the imports above are not exported.
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
