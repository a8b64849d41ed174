"""
Do trees always have equal induced and minimum matching numbers?
================================================================

Yes.  The linear-time tree dynamic program (``tree_pq``) hands each parent
only a few numbers per child subtree, and once those are taken relative to
the subtree's best values and clamped where larger values cannot matter,
a rooted tree has one of finitely many *types*.  ``tree_closure`` closes
"attach one more child" over them to a fixpoint: every type it reaches has
induced = minimum, and every free tree is a rooted tree, so the two numbers
agree on every tree.  The exhaustive scan below is the cross-check.
"""

from eml import (
    Graph,
    induced_matching_number,
    min_maximal_matching_number,
    min_edges,
    tree_closure,
    tree_conjecture_check,
)

closure = tree_closure()
print(f"closure: {closure.states} partial states, {len(closure.types)} rooted types")
for kind, witness in closure.types:
    print(f"  type {kind}  B_p - B_q = {kind[0]}  smallest witness (parent array) {witness}")
print("induced == minimum on every tree:", closure.ok)

report = tree_conjecture_check(12)
print("cross-check: scanned", report.total, "trees to order 12, counterexample:",
      report.counterexample)

# paths are the tight case: both invariants equal ceil((n-1)/3)
for n in (4, 7, 10):
    path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    print(f"P_{n}: ind={induced_matching_number(path)}"
          f" min={min_maximal_matching_number(path)}"
          f" ceil((n-1)/3)={-(-(n - 1) // 3)}")

# the consequence: no tree has p < q, so (p, p+1, p+1) needs 2p + 3 edges,
# which the hub join attains -- certified with no enumeration at all
for p in (2, 3, 4):
    rep = min_edges(p, p + 1, p + 1)
    print(f"least edges {(p, p + 1, p + 1)}: {rep.value} (2p + 3 = {2 * p + 3}),"
          f" certified={rep.certified}, graphs scanned={rep.scanned}")
