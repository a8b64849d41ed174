"""Enumeration tests against published class counts and the declared order caps."""

import pytest

from eml import enumeration
from eml.canon import canonical_form, key_and_order
from eml.enumeration import (
    MAX_TREE_ORDER,
    _children,
    enumerate_connected_graphs,
    enumerate_trees,
    free_tree_parents,
    seed_level,
    descend,
)
from eml.graphs import (
    Graph,
    InputError,
    component_masks,
    emit_graph6,
    induced_subgraph,
    is_connected,
    is_tree,
)

# OEIS A001349 and A000088
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
# OEIS A000055
TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235,
    12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}


# canonical labelings enumerate_connected_graphs(n) makes: a pruning
# regression shows up here before it shows up as a slower run
LABELINGS = {1: 0, 2: 1, 3: 4, 4: 12, 5: 42, 6: 189, 7: 1186, 8: 13374}


@pytest.mark.parametrize("n", sorted(CONNECTED_COUNTS))
def test_connected_class_counts(n, monkeypatch):
    calls = 0
    label = enumeration.key_and_order

    def counting(adj, order):  # the (adj, n) seam bench/trace_layers.py wraps
        nonlocal calls
        calls += 1
        return label(adj, order)

    monkeypatch.setattr(enumeration, "key_and_order", counting)
    enumeration.seed_level.cache_clear()  # count the seed level's labelings too
    assert sum(1 for _ in enumerate_connected_graphs(n)) == CONNECTED_COUNTS[n]
    assert calls == LABELINGS[n]


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_all_graph_class_counts(n):
    # descend without the connectivity requirement counts every class
    count = sum(1 for _ in descend(seed_level(min(n - 1, 6)), min(n - 1, 6), n, None, False))
    assert count == ALL_GRAPH_COUNTS[n]
    assert len(seed_level(n - 1)) == ALL_GRAPH_COUNTS[n - 1]


def _reference_children(parent, max_edges, require_covering):
    """Keys of the accepted children with no pruning: label every subset,
    accept a child C when C - m(C) is isomorphic to the parent, where m(C)
    is its canonical last vertex, and dedup by key."""
    adj, parent_key = parent
    k = len(adj)
    edges = sum(row.bit_count() for row in adj) // 2
    comps = component_masks(adj, (1 << k) - 1)
    keys = set()
    for s in range(1 << k):
        if max_edges is not None and edges + s.bit_count() > max_edges:
            continue
        if require_covering and any(not s & c for c in comps):
            continue
        child = tuple(row | (s >> v & 1) << k for v, row in enumerate(adj)) + (s,)
        key, order = key_and_order(child, k + 1)
        reduced = induced_subgraph(Graph(k + 1, child), (1 << k + 1) - 1 & ~(1 << order[-1]))
        if key_and_order(reduced.adj, k)[0] == parent_key:
            keys.add(key)
    return keys


def test_children_match_the_unpruned_augmentation():
    # every class of order 1..6 as a parent, with and without an edge cap
    # and with the covering requirement the last connected level uses
    for k in range(1, 7):
        for parent in seed_level(k):
            edges = sum(row.bit_count() for row in parent[0]) // 2
            for max_edges, covering in ((None, False), (edges + 2, False), (None, True)):
                keys = [key for _, key in _children(parent, max_edges, covering)]
                assert len(keys) == len(set(keys))
                assert set(keys) == _reference_children(parent, max_edges, covering), (
                    parent, max_edges, covering)


def test_no_two_emitted_graphs_are_isomorphic():
    keys = [canonical_form(g) for g in enumerate_connected_graphs(6)]
    assert len(keys) == len(set(keys)) == 112


def test_stream_is_deterministic():
    first = [emit_graph6(g) for g in enumerate_connected_graphs(5)]
    second = [emit_graph6(g) for g in enumerate_connected_graphs(5)]
    assert first == second


def test_emitted_graphs_are_connected_with_right_order():
    for g in enumerate_connected_graphs(5):
        assert g.n == 5 and is_connected(g)


def test_edge_cap_yields_exactly_the_trees():
    capped = list(enumerate_connected_graphs(7, max_edges=6))
    assert len(capped) == 11
    assert all(is_tree(g) for g in capped)


def test_edge_cap_partial():
    # trees plus the unicyclic classes of order 5
    assert sum(1 for _ in enumerate_connected_graphs(5, max_edges=5)) == 3 + 5


@pytest.mark.parametrize("n", sorted(TREE_COUNTS))
def test_tree_class_counts(n):
    trees = list(enumerate_trees(n))
    assert len(trees) == TREE_COUNTS[n]
    assert all(is_tree(g) for g in trees)


def test_tree_stream_has_no_isomorphic_pair():
    for n in range(1, 15):
        keys = {canonical_form(g) for g in enumerate_trees(n)}
        assert len(keys) == TREE_COUNTS[n], n


def test_tree_parent_arrays_are_in_preorder():
    for n in range(1, 11):
        for parent in free_tree_parents(n):
            assert len(parent) == n and parent[0] == -1
            assert all(0 <= parent[v] < v for v in range(1, n)), parent


def test_envelope_errors():
    with pytest.raises(InputError):
        list(enumerate_connected_graphs(0))
    with pytest.raises(InputError):
        list(enumerate_connected_graphs(11))
    with pytest.raises(InputError):
        list(enumerate_trees(MAX_TREE_ORDER + 1))
    with pytest.raises(InputError):
        list(enumerate_trees(0))


def test_single_vertex_streams():
    assert sum(1 for _ in enumerate_connected_graphs(1)) == 1
    assert sum(1 for _ in enumerate_trees(1)) == 1
