"""Canonical-form tests: label invariance, oracle class counts, known keys."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from eml import canon
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


def petersen() -> Graph:
    return Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )


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
    key = canonical_form(petersen())
    assert canonical_form(permuted(petersen(), [7, 2, 9, 0, 4, 1, 8, 3, 6, 5])) == key
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
        (petersen(), 120),
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
def graph_and_permutation(draw, max_n=7):
    n = draw(st.integers(2, max_n))
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


def test_canonical_keys_are_frozen():
    # the keys follow the ordered root partition: a change to it changes
    # every canonical graph6 string, and with them every witness
    strings = sorted(pack_graph6(7, key) for _, key in seed_level(7))
    assert len(strings) == 1044
    digest = hashlib.sha256("\n".join(strings).encode()).hexdigest()
    assert digest == "b0fe9c0d037a6d97df587dc2e6915d1960c7fac378a6389fc25f65797ec639ca"


# -- reference: the labeling kernel on vertex-list cells; the mask kernel in
# eml.canon must give the same partitions, keys, orders and generators


def _reference_refine(adj, cells, queue):
    while queue:
        splitter = queue.pop()
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) > 1:
                groups = {}
                for v in cell:
                    groups.setdefault((adj[v] & splitter).bit_count(), []).append(v)
                if len(groups) > 1:
                    parts = [groups[key] for key in sorted(groups)]
                    cells[i : i + 1] = parts
                    for part in parts:
                        queue.append(sum(1 << v for v in part))
                    i += len(parts) - 1
            i += 1


def _reference_root_cells(adj, n):
    cells = [list(range(n))]
    _reference_refine(adj, cells, [(1 << n) - 1])
    return cells


class _ReferenceSearch:
    def __init__(self, adj, n):
        self.adj, self.n = adj, n
        self.total = n * (n - 1) // 2
        self.best_enc = self.best_order = None
        self.gens = []

    def run(self):
        self.descend(_reference_root_cells(self.adj, self.n), [])
        return self.best_enc, self.best_order

    def descend(self, cells, path):
        enc = width = 0
        placed = []
        for cell in cells:
            if len(cell) != 1:
                break
            row = 0
            for u in placed:
                row = row << 1 | (self.adj[cell[0]] >> u & 1)
            enc = enc << len(placed) | row
            width += len(placed)
            placed.append(cell[0])
        if self.best_enc is not None and enc > self.best_enc >> (self.total - width):
            return
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [cell[0] for cell in cells]
            if self.best_enc is None or enc < self.best_enc:
                self.best_enc, self.best_order = enc, order
            elif enc == self.best_enc:
                auto = [0] * self.n
                for pos in range(self.n):
                    auto[self.best_order[pos]] = order[pos]
                self.gens.append(auto)
            return
        tried = []
        for v in cells[target]:
            if tried and self._in_earlier_orbit(v, tried, path):
                continue
            tried.append(v)
            branched = [list(c) for c in cells]
            branched[target : target + 1] = [[v], [u for u in branched[target] if u != v]]
            _reference_refine(self.adj, branched, [1 << v])
            self.descend(branched, path + [v])

    def _in_earlier_orbit(self, v, tried, path):
        root = list(range(self.n))

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for g in self.gens:
            if all(g[u] == u for u in path):
                for x in range(self.n):
                    rx, ry = find(x), find(g[x])
                    if rx != ry:
                        root[rx] = ry
        return any(find(u) == find(v) for u in tried)


def _assert_matches_reference(adj, n):
    adj = tuple(adj)
    cells = _reference_root_cells(adj, n)
    assert canon._root_cells(adj, n) == tuple(sum(1 << v for v in c) for c in cells)
    assert [canon.in_last_cell(adj, n, v) for v in range(n)] == [v in cells[-1] for v in range(n)]
    reference = _ReferenceSearch(adj, n)
    search = canon._Search(adj, n)
    assert search.run() == reference.run()
    assert search.gens == reference.gens


def test_mask_kernel_matches_the_list_reference_on_every_order_7_class():
    levels = seed_level(7)
    for adj, key in levels:
        _assert_matches_reference(adj, 7)
        assert key_and_order(adj, 7)[0] == key
    assert len(levels) == 1044


@pytest.mark.parametrize(
    "g", [petersen(), complete_bipartite(8, 8), cycle(40), cycle(64)],
    ids=["petersen", "K8,8", "C40", "C64"],
)
def test_mask_kernel_matches_the_list_reference_on_symmetric_graphs(g):
    _assert_matches_reference(g.adj, g.n)


@settings(max_examples=200, deadline=None)
@given(graph_and_permutation(max_n=16))
def test_mask_kernel_matches_the_list_reference_on_random_graphs(pair):
    g, perm = pair
    h = permuted(g, perm)
    _assert_matches_reference(h.adj, h.n)


@settings(max_examples=200, deadline=None)
@given(graph_and_permutation(max_n=16))
def test_in_last_cell_stopped_early_agrees_with_the_full_refinement(pair):
    g, perm = pair
    h = permuted(g, perm)
    adj, n = h.adj, h.n
    cells = tuple(sum(1 << u for u in c) for c in _reference_root_cells(adj, n))
    for v in range(n):
        canon._last_root[:] = [None, 0, ()]  # no kept partition: refine afresh
        assert canon.in_last_cell(adj, n, v) == bool(cells[-1] >> v & 1), (adj, v)
        # a refinement stopped early is not kept as the root partition
        assert canon._root_cells(adj, n) == cells
