"""Exact matching invariants and extremal search for small connected graphs.

The package computes three matching invariants exactly -- the matching
number, the minimum maximal matching number (edge domination number), and
the induced matching number -- and searches, isomorphism-free, for the
smallest connected graphs realizing a prescribed invariant triple, by
vertex count or by edge count.
"""

from eml.graphs import (
    Graph,
    InputError,
    CapacityError,
    Graph6ParseError,
    bits,
    degree,
    neighborhood,
    closed_neighborhood,
    is_independent,
    is_matching,
    is_maximal_matching,
    is_induced_matching,
    induced_subgraph,
    connected_components,
    is_connected,
    is_tree,
    disjoint_union,
    emit_graph6,
    parse_graph6,
)
from eml.solvers import (
    BudgetExceeded,
    InvariantTriple,
    SolverBudget,
    SolverFault,
    enumerate_maximal_matchings,
    has_perfect_matching,
    independence_number,
    induced_matching_number,
    invariant_triple,
    matching_number,
    maximum_independent_set,
    maximum_induced_matching,
    maximum_matching,
    min_maximal_matching_number,
    minimum_maximal_matching,
    satisfies_star1,
    satisfies_star2,
)
from eml.families import (
    BoundParams,
    bound34,
    bound34_1,
    bound34_2,
    bound34_3,
    complete,
    complete_bipartite,
    cycle,
    divide,
    f1,
    f2,
    g1,
    g2,
    g3,
    g4,
    g5,
    g_r,
    whisker,
)
from eml.starjoin import (
    HypothesisReport,
    PartReport,
    StarJoinPart,
    StarJoinSpec,
    check_thm_ind_hypotheses,
    check_thm_min_hypotheses,
    extremal_spec,
    is_complete_bipartite,
    predicted_invariants,
    star_join,
)
from eml.canon import canonical_form, canonical_graph, canonical_order
from eml.enumeration import enumerate_connected_graphs, enumerate_trees
from eml.extremal import (
    BoundCheck,
    BoundsReport,
    CensusRow,
    ClaimResult,
    SearchReport,
    TreeClosure,
    TreeConjectureReport,
    VerificationReport,
    census,
    check_upper_bounds,
    min_edges,
    min_vertices,
    tree_closure,
    tree_conjecture_check,
    verify_theorems,
)

__version__ = "0.1.0"
