import types

import squarestable
from squarestable import verify


def test_all_lists_public_names_and_no_submodules():
    exported = set(squarestable.__all__)
    for name in exported:
        assert not isinstance(getattr(squarestable, name), types.ModuleType), name
    assert exported.isdisjoint({
        "errors", "generate", "graphs", "matchings", "solvers", "verify",
        "berge_check", "verify_inequality_chain",
        "verify_equivalences", "verify_tree_theorem", "verify_girth6", "EquivalenceReport",
        "Family", "FamilySpec", "make_family", "enumerate_maximal_stable_sets",
    })
    # ``classify`` names both a submodule and its main function; the function wins
    assert "classify" in exported and callable(squarestable.classify)
    assert {"Graph", "run_suite", "invariant_chain", "SUITE_NAMES"} <= exported
    # run_suite is the one per-graph entry point of verify: each suite is a
    # private function that it calls
    for name in ("implication_clauses", "girth6_applicable"):
        assert not hasattr(verify, name), name
