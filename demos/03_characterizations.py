"""Thirteen faces of the same property.

Square-stability has a remarkable number of equivalent characterisations:
through simplexes, clique covers, the structure of maximum stable sets,
unique matchings, symmetric differences, and exchange properties.  The
verification engine evaluates all thirteen independently and checks that
they agree -- on every graph.
"""

from squarestable import (
    STATEMENT_NAMES,
    complete_graph,
    cycle_graph,
    match_into,
    named_fixture,
    path_graph,
    property_p1,
    run_suite,
)

print("All thirteen statements on three graphs")
print("-" * 72)
examples = [
    ("P4 (square-stable)", path_graph(4)),
    ("C5 (not)", cycle_graph(5)),
    ("K6 (trivially)", complete_graph(6)),
]
# run_suite reports in the order its corpus is given
reports = run_suite(examples, ("equivalences",), keep_details=True).suites[0].details
header = " ".join(f"{name.split()[0]:>5}" for name, _ in examples)
print(f"{'statement':<38} {header}")
for statement in STATEMENT_NAMES:
    row = " ".join(f"{str(r['statements'][statement]):>5}" for r in reports)
    print(f"{statement:<38} {row}")
for report in reports:
    assert report["agree"]

print()
print("The unique-matching property, concretely.  In P4 = 0-1-2-3 the set")
print("{0, 3} is maximum and every outside vertex has exactly one neighbour")
print("inside it, so every disjoint stable set matches into it uniquely:")
for a in ({1}, {2}, {1, 2}):
    count, witness = match_into(path_graph(4), a, {0, 3})
    print(f"  A={sorted(a)}: {count} matching(s), e.g. {sorted(witness)}")
print("property_p1(P4, {0,3}) =", property_p1(path_graph(4), {0, 3}))
print()
print("The other maximum set {0, 2} fails: vertex 1 sees both of its members,")
print("so A={1} has two matchings.")
count, _ = match_into(path_graph(4), {1}, {0, 2})
print(f"  A=[1] into [0, 2]: {count} matchings")
print("property_p1(P4, {0,2}) =", property_p1(path_graph(4), {0, 2}))

print()
print("K3+e has a unique perfect matching yet is not square-stable, which is")
print("why uniqueness of a perfect matching alone proves nothing:")
suite = run_suite([("k3_plus_e", named_fixture("k3_plus_e"))], ("equivalences",),
                  keep_details=True).suites[0]
report = suite.details[0]
print("  statements:", set(report["statements"].values()), "- all false, coherently")
