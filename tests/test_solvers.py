"""Solver correctness: oracle equivalence, known values, witnesses, budgets."""

import importlib.util
import itertools
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from eml.enumeration import free_tree_parents, seed_level, tree_graph
from eml.families import g_r
from eml.graphs import (
    Graph,
    InputError,
    bits,
    closed_neighborhood,
    disjoint_union,
    induced_subgraph,
    is_connected,
    is_independent,
    is_induced_matching,
    is_matching,
    is_maximal_matching,
    matched_mask,
    parse_graph6,
)
from eml.solvers import (
    BudgetExceeded,
    InvariantTriple,
    SolverBudget,
    augmentation_parent,
    augmented_triple,
    brute_force_invariants,
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
    tree_pq,
)


def complete(n):
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def complete_bipartite(m, n):
    return Graph.from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + [(i, i + 5) for i in range(5)])


def spider(*legs):
    """Paths of the given lengths joined at vertex 0."""
    edges, n = [], 1
    for length in legs:
        edges += [(0 if k == 0 else n + k - 1, n + k) for k in range(length)]
        n += length
    return Graph.from_edges(n, edges)


def caterpillar(*leaves):
    """A spine path with leaves[i] pendant vertices hung on spine vertex i."""
    spine = len(leaves)
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i, count in enumerate(leaves):
        edges += [(i, n + k) for k in range(count)]
        n += count
    return Graph.from_edges(n, edges)


def whiskered_clique(r):
    edges = [(i, j) for i in range(r) for j in range(i + 1, r)]
    edges += [(k, r + k) for k in range(r)]
    return Graph.from_edges(2 * r, edges)


def all_labeled_graphs(n, connected_only=True, need_edge=True):
    pairs = list(itertools.combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if code >> i & 1]
        if need_edge and not edges:
            continue
        g = Graph.from_edges(n, edges)
        if connected_only and not is_connected(g):
            continue
        yield g


@st.composite
def sparse_connected_graphs(draw, min_n=8, max_n=16, max_edges=24):
    """A random recursive tree plus extra edges, at most max_edges in all."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    extra = draw(st.lists(st.sampled_from(pairs), max_size=max_edges - (n - 1)))
    return Graph.from_edges(n, sorted(edges | set(extra)))


def sparse_family(seed, count):
    """``count`` seeded connected graphs of order 14-22: trees plus 4-12 extra edges."""
    rng = random.Random(seed)
    family = []
    for i in range(count):
        n = 14 + i % 9
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < n - 1 + rng.randint(4, 12):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        family.append(Graph.from_edges(n, sorted(edges)))
    return family


@st.composite
def graphs(draw, min_n=1, max_n=10, p_num=1, p_den=2):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.integers(min_value=0, max_value=p_den - 1)) < p_num:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


# --- known values --------------------------------------------------------------


def test_fact_values_k4_and_c5():
    assert invariant_triple(complete(4)) == (1, 2, 2)
    assert invariant_triple(cycle(5)) == (1, 2, 2)
    assert (complete(4).n, complete(4).num_edges()) == (4, 6)
    assert (cycle(5).n, cycle(5).num_edges()) == (5, 5)


def test_whiskered_clique_values():
    # clique-with-pendants family: (1, ceil(r/2), r) on 2r vertices
    for r in range(2, 9):
        g = whiskered_clique(r)
        assert matching_number(g) == r
        assert min_maximal_matching_number(g) == (r + 1) // 2
        assert induced_matching_number(g) == 1
        assert independence_number(g) == r


def test_simple_values():
    assert matching_number(Graph(1, [0])) == 0
    assert min_maximal_matching_number(Graph.from_edges(2, [(0, 1)])) == 1
    assert induced_matching_number(Graph.from_edges(4, [(0, 1), (2, 3)])) == 2
    assert independence_number(complete(6)) == 1
    assert independence_number(Graph(5, [0] * 5)) == 5
    assert invariant_triple(path(5)) == (2, 2, 2)


def test_perfect_matching():
    assert has_perfect_matching(Graph.from_edges(2, [(0, 1)]))
    assert not has_perfect_matching(cycle(5))
    assert not has_perfect_matching(Graph(0, []))
    assert has_perfect_matching(whiskered_clique(4))


def test_edgeless_conventions():
    g = Graph(3, [0, 0, 0])
    assert matching_number(g) == 0
    assert min_maximal_matching_number(g) == 0
    assert induced_matching_number(g) == 0
    with pytest.raises(InputError):
        invariant_triple(g)
    with pytest.raises(InputError):
        brute_force_invariants(g)


# --- oracle equivalence --------------------------------------------------------


def test_oracle_equivalence_all_connected_up_to_6():
    checked = 0
    for n in range(2, 7):
        for g in all_labeled_graphs(n):
            assert invariant_triple(g) == brute_force_invariants(g)
            checked += 1
    # labeled connected graphs with an edge, n = 2..6: 1 + 4 + 38 + 728 + 26704
    assert checked == 27475


@given(sparse_connected_graphs())
@settings(max_examples=150, deadline=None)
def test_min_maximal_matching_on_sparse_graphs_of_order_8_to_16(g):
    # beyond the exhaustive orders: the branch edge is picked by degree, and
    # sparse graphs have many ties and long paths of degree-2 vertices
    q = brute_force_invariants(g).q
    assert min_maximal_matching_number(g) == q
    assert minimum_maximal_matching(g) == next(enumerate_maximal_matchings(g, size_filter=q))


def least_induced_matching(g, p):
    """The lexicographically least induced matching of g with p edges:
    include-first search over the sorted edge list."""
    edges = g.edges()

    def walk(i, chosen):
        if len(chosen) == p:
            return tuple(chosen)
        for j in range(i, len(edges) - (p - len(chosen)) + 1):
            grown = chosen + [edges[j]]
            if is_matching(g, grown) and is_induced_matching(g, grown):
                found = walk(j + 1, grown)
                if found:
                    return found
        return None

    return walk(0, [])


@given(sparse_connected_graphs())
@settings(max_examples=150, deadline=None)
def test_mis_on_sparse_graphs_of_order_8_to_16(g):
    # the MIS search drops dominated vertices before it branches; sparse
    # graphs have many pendants, so their conflict graphs have many such
    nx = pytest.importorskip("networkx")
    p = brute_force_invariants(g).p
    assert induced_matching_number(g) == p
    assert maximum_induced_matching(g) == least_induced_matching(g, p)
    H = nx.complement(nx.Graph(g.edges()))
    H.add_nodes_from(range(g.n))
    assert independence_number(g) == nx.max_weight_clique(H, weight=None)[1]


@pytest.mark.parametrize(
    "g",
    [path(n) for n in range(2, 13)]
    + [spider(*[1] * m) for m in range(1, 9)]  # stars
    + [spider(1, 1, 2), spider(2, 2, 2), spider(1, 2, 3, 4), spider(3, 3, 3, 3), spider(1, 1, 1, 5)]
    + [caterpillar(2, 0, 2), caterpillar(1, 1, 1, 1), caterpillar(3, 0, 0, 3), caterpillar(0, 2, 2, 0, 1)]
    + [caterpillar(1, 0, 1, 0, 1, 0, 1), caterpillar(2, 1, 0, 0, 1, 2)],
)
def test_min_maximal_matching_on_pendant_heavy_graphs(g):
    # stars, 2-3 vertex components and pendants whose neighbour has a single
    # non-pendant edge (a forced move) all take the pendant rule's shortcuts
    q = brute_force_invariants(g).q
    assert min_maximal_matching_number(g) == q
    assert minimum_maximal_matching(g) == next(enumerate_maximal_matchings(g, size_filter=q))


def test_brute_force_rejects_oversized_inputs():
    with pytest.raises(InputError):
        brute_force_invariants(complete(8))  # 28 edges


@given(graphs(max_n=7))
@settings(max_examples=150, deadline=None)
def test_matching_number_agrees_with_networkx(g):
    nx = pytest.importorskip("networkx")
    H = nx.Graph()
    H.add_nodes_from(range(g.n))
    H.add_edges_from(g.edges())
    assert matching_number(g) == len(nx.max_weight_matching(H, maxcardinality=True))


# --- chain, additivity, monotonicity -------------------------------------------


@given(graphs(max_n=9))
@settings(max_examples=200, deadline=None)
def test_invariant_chain(g):
    if g.num_edges() == 0:
        return
    p, q, r = invariant_triple(g)
    assert 1 <= p <= q <= r <= 2 * q
    assert 2 * r <= g.n


@given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=4))
@settings(max_examples=100, deadline=None)
def test_disjoint_union_additivity(g1, g2, g3):
    union = disjoint_union(g1, g2, g3)
    parts = [g1, g2, g3]
    assert matching_number(union) == sum(matching_number(g) for g in parts)
    assert min_maximal_matching_number(union) == sum(
        min_maximal_matching_number(g) for g in parts
    )
    assert induced_matching_number(union) == sum(
        induced_matching_number(g) for g in parts
    )


@given(graphs(max_n=8), st.integers(min_value=0, max_value=(1 << 8) - 1))
@settings(max_examples=200, deadline=None)
def test_induced_subgraph_monotonicity(g, w):
    w &= g.vertex_mask()
    sub = induced_subgraph(g, w)
    assert matching_number(sub) <= matching_number(g)
    assert induced_matching_number(sub) <= induced_matching_number(g)
    assert independence_number(sub) <= independence_number(g)


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=150, deadline=None)
def test_uncovered_bound_on_independence(g):
    # every maximal matching M leaves an independent set: alpha >= n - 2|M|,
    # and n - alpha <= 2 * min-match
    if g.num_edges() == 0:
        return
    alpha = independence_number(g)
    for matching in enumerate_maximal_matchings(g):
        assert alpha >= g.n - 2 * len(matching)
    assert g.n - alpha <= 2 * min_maximal_matching_number(g)


# --- maximal matching stream ----------------------------------------------------


def test_stream_examples():
    assert list(enumerate_maximal_matchings(Graph.from_edges(2, [(0, 1)]))) == [
        (((0, 1)),)
    ]
    assert list(enumerate_maximal_matchings(path(3))) == [((0, 1),), ((1, 2),)]
    assert len(list(enumerate_maximal_matchings(cycle(5), size_filter=2))) == 5
    # edgeless graph: the empty matching is the unique maximal one
    assert list(enumerate_maximal_matchings(Graph(3, [0] * 3))) == [()]


@given(graphs(min_n=2, max_n=6))
@settings(max_examples=150, deadline=None)
def test_stream_is_exactly_the_maximal_matchings(g):
    # independent oracle: filter all edge subsets
    edges = g.edges()
    expected = set()
    for k in range(len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            if is_matching(g, combo) and is_maximal_matching(g, combo):
                expected.add(tuple(sorted(combo)))
    got = list(enumerate_maximal_matchings(g))
    assert len(got) == len(set(got))  # no duplicates
    assert set(got) == expected
    sizes = [len(m) for m in got]
    if sizes:
        assert min(sizes) == (
            min_maximal_matching_number(g) if edges else 0
        )


# --- vertex conditions -----------------------------------------------------------


def test_star1_examples():
    g = whiskered_clique(4)
    assert satisfies_star1(g, 0)  # clique vertex has its pendant
    assert not satisfies_star1(g, 4)  # the pendant's only neighbor has degree 4
    assert not satisfies_star1(complete_bipartite(3, 3), 0)
    k2 = Graph.from_edges(2, [(0, 1)])
    assert satisfies_star1(k2, 0) and satisfies_star1(k2, 1)


def test_star2_examples():
    for v in range(6):
        assert satisfies_star2(complete_bipartite(3, 3), v)
    assert not satisfies_star2(path(3), 0)
    assert satisfies_star2(path(3), 1)


@given(graphs(min_n=2, max_n=6))
@settings(max_examples=100, deadline=None)
def test_star1_implies_star2(g):
    if g.num_edges() == 0:
        return
    for v in range(g.n):
        if satisfies_star1(g, v):
            assert satisfies_star2(g, v)


# --- trees -----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 15))
def test_tree_dp_matches_the_general_solvers(n):
    for parent in free_tree_parents(n):
        g = tree_graph(parent)
        want = (induced_matching_number(g), min_maximal_matching_number(g))
        assert tree_pq(parent) == want, parent
        if n <= 10:
            assert brute_force_invariants(g)[:2] == want, parent


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=19))
@settings(max_examples=150, deadline=None)
def test_tree_dp_on_any_parent_array(picks):
    # any parent array with parent[v] < v, not only the generator's preorder
    parent = (-1,) + tuple(x % v for v, x in enumerate(picks, 1))
    g = tree_graph(parent)
    assert tree_pq(parent) == (induced_matching_number(g), min_maximal_matching_number(g))


# --- structure lemmas on optimal witnesses ---------------------------------------


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=150, deadline=None)
def test_induced_matching_one_neighborhood_dichotomy(g):
    # If ind-match(G) >= 2, deleting any closed neighborhood of a witness
    # vertex leaves a non-independent remainder; if ind-match(G) = 1 and v has
    # a pendant neighbor, the remainder is independent.
    if g.num_edges() == 0:
        return
    p = induced_matching_number(g)
    if p >= 2:
        witness = maximum_induced_matching(g)
        for u, v in witness:
            for x in (u, v):
                rest = g.vertex_mask() & ~closed_neighborhood(g, x)
                assert not is_independent(g, rest)
    elif p == 1:
        for v in range(g.n):
            if satisfies_star1(g, v):
                rest = g.vertex_mask() & ~closed_neighborhood(g, v)
                assert is_independent(g, rest)


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=150, deadline=None)
def test_induced_one_forces_quadratic_edges(g):
    # ind-match = 1 forces |E| >= C(match+1, 2)
    if g.num_edges() == 0 or not is_connected(g):
        return
    if induced_matching_number(g) == 1:
        r = matching_number(g)
        assert g.num_edges() >= r * (r + 1) // 2


# --- witnesses -------------------------------------------------------------------


@given(graphs(min_n=2, max_n=6))
@settings(max_examples=100, deadline=None)
def test_witnesses_are_lex_least_optima(g):
    if g.num_edges() == 0:
        return
    edges = g.edges()
    all_matchings = [
        m
        for k in range(len(edges) + 1)
        for m in itertools.combinations(edges, k)
        if is_matching(g, m)
    ]
    r = matching_number(g)
    best = min(m for m in all_matchings if len(m) == r)
    assert maximum_matching(g) == best
    q = min_maximal_matching_number(g)
    best = min(
        m for m in all_matchings if len(m) == q and is_maximal_matching(g, m)
    )
    assert minimum_maximal_matching(g) == best
    p = induced_matching_number(g)
    best = min(
        m for m in all_matchings if len(m) == p and is_induced_matching(g, m)
    )
    assert maximum_induced_matching(g) == best


def _least_maximum_matching_by_reduction(g):
    """Each edge in order, taken iff a whole matching solve on the free
    vertices other than its ends still leaves the matching number needed."""
    need, free, chosen = matching_number(g), g.vertex_mask(), []
    for u, v in g.edges():
        ends = (1 << u) | (1 << v)
        if need and not ends & ~free and 1 + matching_number(induced_subgraph(g, free ^ ends)) == need:
            chosen.append((u, v))
            free ^= ends
            need -= 1
    return tuple(chosen)


def _bench_invariant_graphs(seed):
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [parse_graph6(line) for line in module.invariant_graphs(seed)]


def test_r_witness_matches_the_reduction_on_the_invariants_file():
    # the 540 seeded graphs of order 14-22 of the seed-101 invariants workload
    for g in _bench_invariant_graphs(101):
        assert maximum_matching(g) == _least_maximum_matching_by_reduction(g), g.adj


def test_q_witness_is_the_first_streamed_minimum():
    for n in range(2, 8):
        for adj, _ in seed_level(n):
            g = Graph(n, adj)
            if g.num_edges():
                q = min_maximal_matching_number(g)
                first = next(enumerate_maximal_matchings(g, size_filter=q))
                assert minimum_maximal_matching(g) == first, g.adj


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=100, deadline=None)
def test_independent_set_witness(g):
    mask = maximum_independent_set(g)
    assert is_independent(g, mask)
    assert mask.bit_count() == independence_number(g)


# --- one vertex more ------------------------------------------------------------


def _triple(g):
    """(p, q, r) of any graph, edgeless ones included."""
    return (induced_matching_number(g), min_maximal_matching_number(g), matching_number(g))


@given(graphs(min_n=2, max_n=9), st.integers(min_value=0))
@settings(max_examples=200, deadline=None)
def test_deleting_a_vertex_lowers_each_invariant_by_at_most_one(g, v):
    v %= g.n
    whole = _triple(g)
    rest = _triple(induced_subgraph(g, g.vertex_mask() ^ (1 << v)))
    assert all(a - b in (0, 1) for a, b in zip(whole, rest)), (g.adj, v)


@given(graphs(min_n=1, max_n=10, p_num=2, p_den=5))
@settings(max_examples=300, deadline=None)
def test_child_rules_agree_with_the_oracle(g):
    # the last vertex is the new one; the parent may be disconnected or edgeless
    assume(1 <= g.num_edges() <= 24)
    k = g.n - 1
    parent = Graph(k, [row & ((1 << k) - 1) for row in g.adj[:k]])
    triple = brute_force_invariants(parent) if parent.num_edges() else (0, 0, 0)
    summary = augmentation_parent(parent, triple)
    assert augmented_triple(summary, g.adj[k]) == brute_force_invariants(g), g.adj


def _covers_by_sweep(g, q):
    """Vertex sets of 2q vertices that meet every edge and have a perfect
    matching, swept over every combination in order."""
    covers = []
    for chosen in itertools.combinations(range(g.n), 2 * q):
        cover = sum(1 << v for v in chosen)
        if any(g.adj[v] & ~cover for v in range(g.n) if not cover >> v & 1):
            continue
        if matching_number(induced_subgraph(g, cover)) == q:
            covers.append(cover)
    return tuple(covers)


def _assert_summary_matches_definitions(g):
    triple = _triple(g)
    summary = augmentation_parent(g, triple)
    full = g.vertex_mask()
    # the Gallai-Edmonds set, one matching solve per vertex
    dmask = sum(
        1 << s for s in range(g.n)
        if matching_number(induced_subgraph(g, full ^ (1 << s))) == triple[2]
    )
    assert summary.dmask == dmask, g.adj
    assert summary.covers == _covers_by_sweep(g, triple[1]), g.adj


def test_parent_summary_matches_the_definitions_on_every_order_7_class():
    for adj, _ in seed_level(7):
        _assert_summary_matches_definitions(Graph(7, adj))


@given(graphs(min_n=2, max_n=16, p_num=1, p_den=3))
@settings(max_examples=200, deadline=None)
def test_parent_summary_matches_the_definitions(g):
    _assert_summary_matches_definitions(g)


def test_child_rules_on_an_edgeless_parent():
    summary = augmentation_parent(Graph(3, [0] * 3), (0, 0, 0))
    assert summary.covers == (0,) and summary.drop == 0 and summary.dmask == 0b111
    assert augmented_triple(summary, 0b111) == (1, 1, 1)  # the star K_{1,3}
    assert augmented_triple(summary, 0) == (0, 0, 0)


def test_child_decision_honours_the_budget():
    # P is the path 0-3-1 beside vertex 2; joining v to 2 leaves p(P) to be
    # found among the two conflicting edges of the path, which needs a branch
    parent = Graph.from_edges(4, [(0, 3), (1, 3)])
    summary = augmentation_parent(parent, invariant_triple(parent))
    assert augmented_triple(summary, 0b0100) == (2, 2, 2)
    with pytest.raises(BudgetExceeded) as err:
        augmented_triple(summary, 0b0100, SolverBudget(node_limit=1))
    assert (err.value.what, err.value.lower, err.value.upper) == ("induced matching number", 1, 2)
    # a child whose p needs no search is decided within any budget
    assert augmented_triple(summary, 0b1000, SolverBudget(node_limit=1)) == (1, 1, 1)


def test_parent_summary_honours_the_budget():
    g = whiskered_clique(4)
    with pytest.raises(BudgetExceeded):
        augmentation_parent(g, invariant_triple(g), SolverBudget(node_limit=3))


# --- budgets ---------------------------------------------------------------------


def test_budget_exhaustion_carries_bounds():
    g = whiskered_clique(8)
    with pytest.raises(BudgetExceeded) as err:
        min_maximal_matching_number(g, SolverBudget(node_limit=3))
    assert err.value.upper is not None
    with pytest.raises(BudgetExceeded):
        independence_number(complete_bipartite(8, 8), SolverBudget(node_limit=2))


@pytest.mark.parametrize(
    "witness",
    [maximum_matching, minimum_maximal_matching, maximum_induced_matching, maximum_independent_set],
)
def test_witnesses_honour_the_budget(witness):
    with pytest.raises(BudgetExceeded):
        witness(g_r(8), SolverBudget(node_limit=2))


def _least_node_limit(solve, g):
    """The least node limit under which solve(g) finishes, and its result.

    A solve is deterministic, so it finishes under a limit iff the limit is
    at least its node count: double, then bisect.
    """
    def attempt(limit):
        try:
            return solve(g, SolverBudget(node_limit=limit))
        except BudgetExceeded:
            return None

    low, high = 0, 1  # limits from 1 up
    while (result := attempt(high)) is None:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        found = attempt(mid)
        if found is None:
            low = mid
        else:
            high, result = mid, found
    return high, result


def test_q_search_node_counts():
    # one node per memo miss of the q recursion; a change in how it branches
    # shows up here.  Branching on the first remaining edge took 125, 54 and
    # 3826 nodes, and a least-degree edge alone 54, 54 and 3086; with the
    # pendant rule and no nodes for components of 2 or 3 vertices:
    assert _least_node_limit(min_maximal_matching_number, whiskered_clique(8)) == (33, 4)
    assert _least_node_limit(min_maximal_matching_number, petersen()) == (22, 3)
    family = sparse_family("q nodes", 40)
    assert sum(_least_node_limit(min_maximal_matching_number, g)[0] for g in family) == 595


def test_mis_search_node_counts():
    # one node per call of the MIS expansion; branching without the
    # domination rule took 3134 and 29 nodes
    family = sparse_family("q nodes", 40)
    assert sum(_least_node_limit(induced_matching_number, g)[0] for g in family) == 230
    assert _least_node_limit(independence_number, petersen()) == (19, 4)


@pytest.mark.parametrize(
    "witness, value, size",
    [
        (maximum_matching, matching_number, len),
        (minimum_maximal_matching, min_maximal_matching_number, len),
        (maximum_induced_matching, induced_matching_number, len),
        (maximum_independent_set, independence_number, int.bit_count),
    ],
)
@pytest.mark.parametrize("graph", [petersen, lambda: whiskered_clique(8)], ids=["petersen", "whiskered"])
def test_witness_out_of_budget_reports_the_solved_value(witness, value, size, graph):
    # a witness call starts with the value solve; once that is done, running
    # out of budget while picking the witness reports the value as both bounds
    g = graph()
    solved_at, v = _least_node_limit(value, g)
    done_at, w = _least_node_limit(witness, g)
    assert size(w) == v
    for limit in range(1, done_at):
        with pytest.raises(BudgetExceeded) as err:
            witness(g, SolverBudget(node_limit=limit))
        lower, upper = err.value.lower, err.value.upper
        if limit >= solved_at:
            assert (lower, upper) == (v, v), limit
        else:
            assert (lower is None or lower <= v) and v <= upper, limit


def test_budget_exceeded_survives_pickling():
    err = pickle.loads(pickle.dumps(BudgetExceeded("matching number", 2, 5)))
    assert isinstance(err, BudgetExceeded)
    assert (err.what, err.lower, err.upper) == ("matching number", 2, 5)
    assert str(err) == "matching number: budget exhausted (bounds [2, 5])"


def test_generous_budget_is_harmless():
    budget = SolverBudget(node_limit=10**9, time_limit=60.0)
    assert invariant_triple(cycle(5), budget) == (1, 2, 2)
