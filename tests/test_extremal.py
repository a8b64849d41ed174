"""Search-layer tests: census rows, certified minima, and the batch checks."""

import dataclasses
import random
from functools import partial
from types import SimpleNamespace

import pytest

import eml.enumeration as enumeration
import eml.extremal as extremal
from eml.extremal import (
    census,
    check_upper_bounds,
    min_edges,
    min_vertices,
    tree_closure,
    tree_conjecture_check,
    verify_theorems,
)
from eml.canon import key_and_order
from eml.enumeration import MAX_TREE_ORDER, SEED_ORDER, free_tree_parents, seed_level, tree_graph
from eml.graphs import Graph, InputError, is_connected, parse_graph6
from eml.solvers import (
    BudgetExceeded,
    SolverBudget,
    SolverFault,
    induced_matching_number,
    invariant_triple,
    min_maximal_matching_number,
    tree_pq,
)


def test_census_order_two():
    rows = census(2)
    assert len(rows) == 1
    row = rows[0]
    assert row.triple == (1, 1, 1) and row.count == 1 and row.min_edges == 1
    assert type(row.triple) is tuple  # text output prints it as (p, q, r)


def test_census_order_one_has_no_rows():
    assert census(1) == []  # the single class is edgeless


def test_census_order_four():
    rows = census(4)
    triples = {r.triple for r in rows}
    assert (1, 1, 2) in triples and (1, 2, 2) in triples
    assert not any(p >= 2 and q == r for p, q, r in triples)
    assert sum(r.count for r in rows) == 6  # every connected class of order 4


def test_census_order_five_realizes_flat_triple():
    assert (2, 2, 2) in {r.triple for r in census(5)}


@pytest.mark.parametrize("n,total", [(5, 21), (6, 112)])
def test_census_counts_cover_all_classes(n, total):
    assert sum(r.count for r in census(n)) == total


def test_census_witnesses_reverify():
    for row in census(5):
        assert 1 <= len(row.witnesses) <= 4
        for text in row.witnesses:
            g = parse_graph6(text)
            assert g.n == 5 and is_connected(g)
            assert tuple(invariant_triple(g)) == row.triple
            assert g.num_edges() >= row.min_edges


def test_census_min_edges_field_is_exact():
    # recompute the minimum over a direct scan at order 5
    seen = {}
    from eml.enumeration import enumerate_connected_graphs

    for g in enumerate_connected_graphs(5):
        if g.num_edges():
            t = tuple(invariant_triple(g))
            seen[t] = min(seen.get(t, 99), g.num_edges())
    assert {r.triple: r.min_edges for r in census(5)} == seen


def test_census_envelope():
    with pytest.raises(InputError):
        census(11)


def test_census_is_memoized():
    assert census(4) == census(4)
    assert extremal._census_full(4)[1] == 6


def test_census_parallel_merge_matches_serial():
    extremal._census_cache.pop((6, None), None)
    serial, serial_scanned = extremal._census_full(6, 1)
    extremal._census_cache.pop((6, None))
    parallel, parallel_scanned = extremal._census_full(6, 2)
    assert serial == parallel
    assert serial_scanned == parallel_scanned


def test_pool_starts_no_more_processes_than_lanes(monkeypatch):
    started = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks, chunksize=1):
            return [func(task) for task in tasks]

    monkeypatch.setattr(extremal, "get_context", lambda method: SimpleNamespace(Pool=FakePool))
    monkeypatch.setattr(extremal, "_census_cache", {})
    rows = census(4, workers=8)  # seeded from the 4 graphs of order 3: 4 lanes
    assert started == [4]
    extremal._census_cache.clear()
    assert census(4, workers=1) == rows


def test_census_memo_is_keyed_by_budget():
    census(6)
    with pytest.raises(BudgetExceeded):
        census(6, budget=SolverBudget(node_limit=3))


def test_incremental_triples_match_the_solvers_to_order_8():
    classes = 0
    parents = set()
    for n in range(2, 9):
        k = min(n - 1, SEED_ORDER)
        for adj, _, triple in extremal._classes(seed_level(k), k, n, None, None):
            classes += 1
            assert triple == invariant_triple(Graph(n, adj)), (n, adj)
            if n == 8:
                parents.add(key_and_order(tuple(row & 0x7F for row in adj[:7]), 7)[0])
    assert classes == 12112  # A001349, orders 2..8
    # every order-7 class is a parent, the edgeless and disconnected ones too
    assert len(parents) == len(seed_level(7)) == 1044
    assert 0 in parents


def test_a_forged_child_triple_is_a_fault(monkeypatch):
    # every child's triple is chain-checked, without building a Graph for it
    monkeypatch.setattr(extremal, "augmented_triple", lambda summary, s, budget: (1, 1, 3))
    with pytest.raises(SolverFault):
        list(extremal._classes(seed_level(3), 3, 4, None, None))


def test_pruned_scan_finds_every_census_row():
    # a least-edge search keeps only the classes that can still reach its
    # target; an on-target class's ancestors are its induced subgraphs, so
    # the pruned scan for a row's triple must find all of the row's classes
    for n in range(2, 8):
        for row in census(n):
            keep = partial(extremal._reachable, row.triple, n)
            agg, _ = extremal._scan(
                n, None, extremal._aggregate, dict, extremal._merge, 1, None, keep
            )
            count, least, keys = agg[row.triple]
            assert count == row.count and least == row.min_edges, row
            assert extremal._witness_strings(n, keys) == row.witnesses, row


@pytest.mark.parametrize(
    "triple,want",
    [((1, 2, 2), 4), ((2, 2, 2), 5), ((2, 2, 3), 6), ((1, 1, 1), 2), ((1, 3, 3), 6)],
)
def test_min_vertices_known_values(triple, want):
    rep = min_vertices(*triple)
    assert rep.value == want and rep.certified
    assert rep.objective == "vertices"
    g = parse_graph6(rep.witnesses[0])
    assert g.n == want and is_connected(g)
    assert tuple(invariant_triple(g)) == triple


def test_min_vertices_floor_respected():
    p, q, r = 2, 3, 3
    rep = min_vertices(p, q, r)
    assert rep.value == 2 * r + 1  # p >= 2 with q = r skips order 2r
    assert rep.lower_bound == 2 * r


def test_min_vertices_beyond_default_budget_is_certified_absence():
    rep = min_vertices(1, 5, 5)
    assert rep.value is None and rep.certified and rep.scanned == 0


def test_min_vertices_validation():
    with pytest.raises(InputError):
        min_vertices(2, 1, 1)
    with pytest.raises(InputError):
        min_vertices(1, 2, 5)  # r > 2q
    with pytest.raises(InputError):
        min_vertices(1, 2, 2, n_budget=11)
    with pytest.raises(InputError):
        min_vertices(1, 2, 2, witness_limit=0)


CHAIN_R3 = [
    (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2),
    (1, 2, 3), (2, 2, 3), (1, 3, 3), (2, 3, 3), (3, 3, 3),
]
EDGE_MINIMA = {
    (1, 1, 1): 1, (1, 1, 2): 3, (1, 2, 2): 4, (2, 2, 2): 4,
    (1, 2, 3): 6, (2, 2, 3): 5, (1, 3, 3): 9, (2, 3, 3): 7, (3, 3, 3): 6,
}


@pytest.mark.parametrize("triple", CHAIN_R3)
def test_min_edges_certifies_every_small_triple(triple):
    rep = min_edges(*triple)
    assert rep.certified and rep.value == EDGE_MINIMA[triple]
    assert rep.value >= rep.lower_bound
    assert rep.value <= rep.upper_bound
    for text in rep.witnesses:
        g = parse_graph6(text)
        assert is_connected(g) and g.num_edges() == rep.value
        assert tuple(invariant_triple(g)) == triple


def test_min_edges_spec_example_large():
    rep = min_edges(1, 2, 4)
    assert rep.value == 10 and rep.certified and rep.scanned == 0


def test_min_edges_budget_below_floor_certifies_absence():
    rep = min_edges(3, 3, 3, edge_budget=5)
    assert rep.value is None and rep.certified and rep.scanned == 0
    assert rep.witnesses == ()


def test_edge_floor_without_trees():
    # p < q rules out trees: >= 2r edges, and >= 2r+1 once p >= 2 and q == r;
    # the p >= 2 guard matters, since the 4-cycle is (1, 2, 2) with 4 edges
    assert extremal._edge_floor(2, 3, 4) == 8
    assert extremal._edge_floor(2, 3, 3) == 7
    assert extremal._edge_floor(1, 2, 2) == 4 == min_edges(1, 2, 2).value


@pytest.mark.parametrize("p", range(2, 9))
def test_min_edges_hub_join_diagonal_meets_the_floor(p):
    # no tree has p < q, so (p, p+1, p+1) needs 2p+3 edges: the hub join's count
    rep = min_edges(p, p + 1, p + 1)
    assert rep.value == 2 * p + 3 and rep.certified and rep.scanned == 0


def test_min_edges_p_below_q_skips_the_tree_order():
    rep = min_edges(1, 3, 4)
    assert rep.value == 11 and rep.certified
    assert rep.witnesses == ("G?Krc[",)
    assert rep.searched_to == 10  # order 11 would need 11 edges, no tree being (1, 3, 4)
    # the order 8-10 classes with at most 10 edges reached through kept parents
    assert rep.scanned == 21
    assert min_edges(1, 3, 4, workers=2).scanned == 21


def test_min_edges_labels_its_seed_level_once(monkeypatch):
    # orders 8, 9 and 10 all split the augmentation tree at the order-6
    # level with the same edge cap, whose 222 labelings are made once
    calls = 0
    label = enumeration.key_and_order

    def counting(adj, order):
        nonlocal calls
        calls += 1
        return label(adj, order)

    monkeypatch.setattr(enumeration, "key_and_order", counting)
    enumeration.seed_level.cache_clear()
    assert min_edges(1, 3, 4).scanned == 21
    assert calls == 1894  # 2338 when the level was rebuilt for each order


def test_min_edges_beyond_the_envelope_is_uncertified():
    # K_{4,4} gives 16; no (1, 4, 4) graph of order 8-10 has at most 15 edges,
    # but orders above MAX_ENUM_ORDER are not searched
    rep = min_edges(1, 4, 4)
    assert rep.value == 16 and not rep.certified
    assert rep.searched_to == 10


def test_min_edges_p_ge_2_and_q_eq_r_starts_above_order_2r():
    # no such graph has order 2r, so the scan starts at order 2r + 1
    rep = min_edges(2, 4, 4)
    assert rep.value == 10 and rep.certified
    assert rep.witnesses == ("HIa?@cM",)
    assert rep.searched_to == 9
    assert rep.scanned == 3  # order-9 classes with at most 9 edges, through kept parents


def test_min_edges_parallel_scan_matches_serial():
    serial = min_edges(2, 3, 4, witness_limit=2)
    parallel = min_edges(2, 3, 4, workers=2, witness_limit=2)
    strip = lambda rep: {
        k: v for k, v in dataclasses.asdict(rep).items() if k != "elapsed"
    }
    assert strip(serial) == strip(parallel)
    assert serial.value == 8  # strictly below the closed-form bound 9


def test_min_edges_validation():
    with pytest.raises(InputError):
        min_edges(0, 1, 1)
    with pytest.raises(InputError):
        min_edges(1, 1, 1, witness_limit=9)


def test_verify_theorems_small_scale():
    rep = verify_theorems(r_max=2, order_cap=5, gr_max=4)
    assert rep.ok, rep.failures()
    ids = {c.claim for c in rep.claims}
    assert "least-order-formula" in ids and "no-perfect-matching" in ids


def test_verify_theorems_selection():
    rep = verify_theorems(select=["clique-with-pendants"], gr_max=5)
    assert rep.ok and {c.claim for c in rep.claims} == {"clique-with-pendants"}
    with pytest.raises(InputError):
        verify_theorems(select=["no-such-claim"])


def test_check_upper_bounds_tightness_data():
    rep = check_upper_bounds(p_max=2, q_max=3, r_max=4, certify_cap=9)
    assert rep.ok
    by_target = {(e.family, e.target): e for e in rep.entries}
    tight = by_target[("hub-join", (2, 3, 3))]
    assert tight.certified_minimum == 7 and tight.gap == 0
    open_gap = by_target[("hub-join", (2, 3, 4))]
    assert open_gap.certified_minimum == 8 and open_gap.gap == 1
    assert by_target[("square-bipartite", (1, 2, 2))].gap == 0
    assert by_target[("square-bipartite", (1, 3, 3))].gap == 0
    frozen = by_target[("two-formula-min", (1, 10, 18))]
    assert frozen.bound == 206 and frozen.triple_ok


def test_check_upper_bounds_identities():
    rep = check_upper_bounds(p_max=2, q_max=2, r_max=4, certify_cap=0)
    idents = [e for e in rep.entries if e.family == "hub-join-identities"]
    assert {(e.target, e.bound) for e in idents} >= {
        ((2, 3, 3), 7), ((2, 3, 4), 9), ((2, 3, 6), 15),
        ((3, 4, 4), 9), ((3, 4, 5), 11), ((3, 4, 7), 17),
    }
    assert all(e.triple_ok for e in idents)


def test_tree_conjecture_small():
    rep = tree_conjecture_check(8)
    assert rep.ok and rep.counterexample is None
    assert rep.total == 48
    assert rep.per_order[-1] == (8, 23)
    with pytest.raises(InputError):
        tree_conjecture_check(MAX_TREE_ORDER + 1)


def test_tree_counterexample_needs_the_general_solvers(monkeypatch):
    # a dynamic-program value the general solvers do not confirm is a fault
    monkeypatch.setattr(extremal, "tree_pq", lambda parent: (1, 2))
    with pytest.raises(SolverFault):
        tree_conjecture_check(4)


def test_tree_counterexample_is_reported_with_full_counts(monkeypatch):
    real = extremal.min_maximal_matching_number
    monkeypatch.setattr(extremal, "tree_pq", lambda parent: (1, 2) if len(parent) == 3 else (1, 1))
    monkeypatch.setattr(extremal, "min_maximal_matching_number", lambda g: real(g) + 1)
    rep = tree_conjecture_check(6)
    assert rep.counterexample == ("BW", 1, 2)  # the path on three vertices
    assert rep.per_order == ((1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6))
    assert not rep.ok


@pytest.mark.parametrize("n", range(2, 11))
def test_paths_agree_with_conjecture(n):
    path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    want = -(-(n - 1) // 3)  # ceil
    assert induced_matching_number(path) == want
    assert min_maximal_matching_number(path) == want


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_stars_agree_with_conjecture(m):
    star = Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])
    assert induced_matching_number(star) == 1
    assert min_maximal_matching_number(star) == 1


def test_tree_closure_settles_the_tree_question():
    closure = tree_closure()
    assert closure.ok and closure.states == 5
    assert [kind[0] for kind, _ in closure.types] == [0, 0, 0]  # B_p - B_q
    # one vertex, one edge, and a path of three rooted at an end
    assert [tree for _, tree in closure.types] == [(-1,), (-1, 0), (-1, 0, 1)]


def tree_type(parent):
    """Fold the closure's clamped recurrence over a parent array, keeping
    absolute B_p and B_q: the root's type, which starts with (p, q)."""
    states = [extremal._LONE] * len(parent)
    for v in range(len(parent) - 1, 0, -1):
        states[parent[v]] = extremal._attach(states[parent[v]], extremal._finish(states[v]))
    return extremal._finish(states[0])


def test_tree_closure_witnesses_fold_to_their_types():
    for kind, tree in tree_closure().types:
        bp, bq, *rest = tree_type(tree)
        assert (bp - bq, 0, *rest) == kind


def test_tree_type_matches_tree_pq():
    for n in range(2, 17):
        for parent in free_tree_parents(n):
            assert tree_type(parent)[:2] == tree_pq(parent), parent
    rng = random.Random(2024)
    for _ in range(20000):
        parent = [-1] + [rng.randrange(v) for v in range(1, rng.randint(2, 40))]
        assert tree_type(parent)[:2] == tree_pq(parent), parent


def test_tree_type_matches_the_general_solvers():
    for n in range(2, 15):
        for parent in free_tree_parents(n):
            g = tree_graph(parent)
            want = (induced_matching_number(g), min_maximal_matching_number(g))
            assert tree_type(parent)[:2] == want, parent
