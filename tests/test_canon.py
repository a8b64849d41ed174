"""Canonical-form tests: label invariance, oracle class counts, known keys."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from eml.canon import (
    automorphism_generators,
    canonical_form,
    canonical_graph,
    canonical_order,
    key_and_order,
)
from eml.families import complete, complete_bipartite, cycle
from eml.enumeration import seed_level
from eml.graphs import Graph, pack_graph6, parse_graph6


def permuted(g: Graph, perm) -> Graph:
    adj = [0] * g.n
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                adj[perm[u]] |= 1 << perm[v]
                adj[perm[v]] |= 1 << perm[u]
    return Graph(g.n, adj)


def test_complete_graph_key_is_frozen():
    # agrees with the standard graph6 encoding of K_5 under any labeling
    assert canonical_form(complete(5)) == "D~{"


def test_key_is_the_canonical_graph6_bit_vector():
    for g in (complete(5), cycle(7), complete_bipartite(2, 3), Graph(3, [0, 0, 0])):
        assert pack_graph6(g.n, key_and_order(g.adj, g.n)[0]) == canonical_form(g)


def test_cycle_relabelings_share_a_key():
    c5 = cycle(5)
    assert canonical_form(permuted(c5, [3, 1, 4, 0, 2])) == canonical_form(c5)


def test_path_and_star_differ():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = complete_bipartite(1, 3)
    assert canonical_form(p4) != canonical_form(star)


def test_all_labeled_paths_collapse_to_one_key():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    keys = set()
    labelings = set()
    for perm in itertools.permutations(range(4)):
        h = permuted(p4, perm)
        labelings.add(tuple(h.adj))
        keys.add(canonical_form(h))
    assert len(labelings) == 12  # 4!/|Aut(P_4)|
    assert len(keys) == 1


@pytest.mark.parametrize("n,classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_key_counts_match_naive_oracle(n, classes):
    # every labeled graph on n vertices, dedup by key: collisions across
    # classes are impossible (the key decodes to its graph), so an exact
    # class count proves the key never splits an isomorphism class
    total = n * (n - 1) // 2
    keys = set()
    for mask in range(1 << total):
        adj = [0] * n
        bit = 0
        for v in range(1, n):
            for u in range(v):
                if mask >> bit & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                bit += 1
        keys.add(canonical_form(Graph(n, adj)))
    assert len(keys) == classes


def test_symmetric_graphs_are_fast_and_stable():
    petersen = Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )
    key = canonical_form(petersen)
    assert canonical_form(permuted(petersen, [7, 2, 9, 0, 4, 1, 8, 3, 6, 5])) == key
    assert canonical_form(complete(9)) == canonical_form(permuted(complete(9), list(reversed(range(9)))))


def _group_order(n, gens):
    """Size of the permutation group the generators span, by closure."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = tuple(h[g[v]] for v in range(n))
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return len(group)


def _preserves_adjacency(adj, perm):
    n = len(adj)
    return sorted(perm) == list(range(n)) and all(
        (adj[u] >> v & 1) == (adj[perm[u]] >> perm[v] & 1)
        for u in range(n)
        for v in range(n)
    )


def test_automorphism_generators_span_the_whole_group():
    # every class of order 2..6 (207 of them), against a brute-force count
    classes = 0
    for n in range(2, 7):
        for adj, _ in seed_level(n):
            gens = automorphism_generators(adj, n)
            assert all(_preserves_adjacency(adj, g) for g in gens)
            brute = sum(
                _preserves_adjacency(adj, perm)
                for perm in itertools.permutations(range(n))
            )
            assert _group_order(n, gens) == brute, (n, adj)
            classes += 1
    assert classes == 207


@pytest.mark.parametrize(
    "g,order",
    [
        (Graph(7, [0] * 7), 5040),
        (complete_bipartite(4, 4), 1152),
        (cycle(9), 18),
        (
            Graph.from_edges(
                10,
                [(i, (i + 1) % 5) for i in range(5)]
                + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)],
            ),
            120,
        ),
    ],
)
def test_automorphism_generators_of_symmetric_graphs(g, order):
    gens = automorphism_generators(g.adj, g.n)
    assert all(_preserves_adjacency(g.adj, h) for h in gens)
    assert _group_order(g.n, gens) == order


def test_canonical_graph_is_idempotent_and_unlabeled():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)], labels=["a", "b", "c", "d", "e"])
    cg = canonical_graph(g)
    assert cg.labels is None
    assert canonical_form(cg) == canonical_form(g)
    assert tuple(canonical_graph(cg).adj) == tuple(cg.adj)


def test_canonical_order_is_a_permutation():
    g = complete_bipartite(2, 3)
    order = canonical_order(g)
    assert sorted(order) == list(range(5))
    assert canonical_form(permuted(g, [order.index(v) for v in range(5)])) == canonical_form(g)


def test_round_trip_through_graph6():
    g = cycle(6)
    assert parse_graph6(canonical_form(g)).n == 6


@st.composite
def graph_and_permutation(draw):
    n = draw(st.integers(2, 7))
    total = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << total) - 1))
    adj = [0] * n
    bit = 0
    for v in range(1, n):
        for u in range(v):
            if mask >> bit & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            bit += 1
    perm = draw(st.permutations(range(n)))
    return Graph(n, adj), list(perm)


@settings(max_examples=150, deadline=None)
@given(graph_and_permutation())
def test_key_is_label_invariant(pair):
    g, perm = pair
    assert canonical_form(permuted(g, perm)) == canonical_form(g)
