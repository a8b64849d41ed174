"""Enumeration tests against published class counts and the declared order caps."""

import pytest

from eml.canon import canonical_form
from eml.enumeration import (
    MAX_TREE_ORDER,
    enumerate_connected_graphs,
    enumerate_trees,
    free_tree_parents,
    seed_level,
    descend,
)
from eml.graphs import InputError, emit_graph6, is_connected, is_tree

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
# OEIS A000055
TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235,
    12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}


@pytest.mark.parametrize("n", sorted(CONNECTED_COUNTS))
def test_connected_class_counts(n):
    assert sum(1 for _ in enumerate_connected_graphs(n)) == CONNECTED_COUNTS[n]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_all_graph_class_counts(n):
    # descend without the connectivity requirement counts every class
    count = sum(1 for _ in descend(seed_level(min(n - 1, 6)), min(n - 1, 6), n, None, False))
    assert count == ALL_GRAPH_COUNTS[n]
    assert len(seed_level(n - 1)) == ALL_GRAPH_COUNTS[n - 1]


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
