"""Graph representation, set predicates, and the graph6 codec."""

import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from eml.graphs import (
    CapacityError,
    Graph,
    Graph6ParseError,
    InputError,
    bits,
    closed_neighborhood,
    component_masks,
    connected_components,
    degree,
    disjoint_union,
    emit_graph6,
    induced_subgraph,
    is_connected,
    is_independent,
    is_induced_matching,
    is_matching,
    is_maximal_matching,
    is_tree,
    matched_mask,
    pack_graph6,
    parse_graph6,
)


def complete(n):
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def whiskered_clique(r):
    """Clique x_0..x_{r-1} with a pendant y_k on each x_k."""
    edges = [(i, j) for i in range(r) for j in range(i + 1, r)]
    edges += [(k, r + k) for k in range(r)]
    return Graph.from_edges(2 * r, edges)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


# --- construction validation -------------------------------------------------


def test_rejects_loops_and_asymmetry():
    with pytest.raises(InputError):
        Graph(2, [1 << 0, 1 << 0])  # loop at 0
    with pytest.raises(InputError):
        Graph(2, [1 << 1, 0])  # 0-1 recorded only at 0
    with pytest.raises(InputError):
        Graph(2, [1 << 5, 0])  # out-of-range neighbor
    with pytest.raises(CapacityError):
        Graph(65, [0] * 65)


def test_labels_must_be_a_bijection():
    Graph.from_edges(2, [(0, 1)], labels=["x1", "y1"])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 1)], labels=["x1", "x1"])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 1)], labels=["x1"])


def test_graphs_are_immutable():
    g = complete(3)
    with pytest.raises(AttributeError):
        g.n = 4


def test_edges_are_lexicographic():
    g = Graph.from_edges(4, [(2, 3), (0, 2), (0, 1)])
    assert g.edges() == [(0, 1), (0, 2), (2, 3)]
    assert g.num_edges() == 3


# --- degrees and neighborhoods -----------------------------------------------


def test_degree_examples():
    assert all(degree(complete(4), v) == 3 for v in range(4))
    assert all(degree(cycle(5), v) == 2 for v in range(5))
    g = whiskered_clique(5)
    assert all(degree(g, 5 + k) == 1 for k in range(5))  # pendants
    with pytest.raises(InputError):
        degree(g, 99)


def test_closed_neighborhood_examples():
    assert closed_neighborhood(complete(4), 0) == 0b1111
    g3 = whiskered_clique(3)
    assert closed_neighborhood(g3, 0) == 0b001111 & ~(1 << 4) & ~(1 << 5) | (1 << 3)
    assert closed_neighborhood(Graph(1, [0]), 0) == 1


# --- independence and matchings ----------------------------------------------


def test_is_independent_examples():
    assert not is_independent(complete(4), 0b0011)
    g = whiskered_clique(4)
    assert is_independent(g, 0b11110000)  # the pendant side
    assert is_independent(g, 0)
    assert is_independent(g, 1 << 2)


def test_is_matching_examples():
    c5 = cycle(5)
    assert is_matching(c5, [(0, 1), (2, 3)])
    assert not is_matching(c5, [(0, 1), (1, 2)])  # shared vertex
    assert not is_matching(c5, [(0, 2)])  # not an edge
    g = whiskered_clique(4)
    assert is_matching(g, [(k, 4 + k) for k in range(4)])  # pendant perfect matching


def test_is_maximal_matching_examples():
    g4 = whiskered_clique(4)
    assert is_maximal_matching(g4, [(0, 2), (1, 3)])  # pairs up the clique
    assert not is_maximal_matching(cycle(5), [(0, 1)])
    assert is_maximal_matching(Graph.from_edges(2, [(0, 1)]), [(0, 1)])
    with pytest.raises(InputError):
        is_maximal_matching(cycle(5), [(0, 1), (1, 2)])


def test_is_induced_matching_examples():
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert is_induced_matching(two_k2, [(0, 1), (2, 3)])
    p4 = path(4)
    assert not is_induced_matching(p4, [(0, 1), (2, 3)])  # middle edge joins them
    with pytest.raises(InputError):
        is_induced_matching(p4, [(0, 1), (1, 2)])


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_maximality_matches_definitional_check(g):
    # complement-independence vs "no edge extends the matching", on a greedy matching
    matching = []
    used = 0
    for u, v in g.edges():
        e = (1 << u) | (1 << v)
        if not used & e and (u + v) % 3 != 0:  # leave some gaps on purpose
            matching.append((u, v))
            used |= e
    covered = matched_mask(matching)
    definitional = all(
        covered & ((1 << u) | (1 << v)) for u, v in g.edges()
    )
    assert is_maximal_matching(g, matching) == definitional


def test_induced_matching_implies_matching():
    g = path(6)
    m = [(0, 1), (3, 4)]
    assert is_induced_matching(g, m)
    assert is_matching(g, m)


# --- subgraphs and components ------------------------------------------------


def test_induced_subgraph_examples():
    g = complete(5)
    sub = induced_subgraph(g, 0b10110)
    assert sub.n == 3 and sub.num_edges() == 3
    empty = induced_subgraph(g, 0)
    assert empty.n == 0
    assert induced_subgraph(g, g.vertex_mask()) == g


def test_induced_subgraph_keeps_labels():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
    sub = induced_subgraph(g, 0b101)
    assert sub.labels == ("a", "c")


@given(graphs(max_n=9), st.integers(min_value=0, max_value=(1 << 9) - 1),
       st.integers(min_value=0, max_value=(1 << 9) - 1))
@settings(max_examples=150, deadline=None)
def test_induced_subgraph_is_functorial(g, w1, w2):
    w1 &= g.vertex_mask()
    inner = induced_subgraph(g, w1)
    keep = list(bits(w1))
    w2 &= w1
    # Recoordinatize w2 inside the w1-subgraph.
    w2_inner = 0
    for i, v in enumerate(keep):
        if w2 >> v & 1:
            w2_inner |= 1 << i
    assert induced_subgraph(inner, w2_inner) == induced_subgraph(g, w2)


def test_connected_components_examples():
    two_k2 = Graph.from_edges(4, [(0, 2), (1, 3)])
    assert connected_components(two_k2) == [0b0101, 0b1010]
    assert connected_components(complete(4)) == [0b1111]
    assert connected_components(Graph(0, [])) == []
    assert is_connected(Graph(1, [0]))
    assert is_tree(path(5))
    assert not is_tree(cycle(5))


def test_component_masks_respect_the_mask():
    p5 = path(5)
    assert component_masks(p5.adj, 0b11011) == [0b00011, 0b11000]
    assert component_masks(p5.adj, 0b10101) == [0b00001, 0b00100, 0b10000]
    assert component_masks(p5.adj, 0) == []


def test_disjoint_union_blocks():
    g = disjoint_union(path(2), path(3))
    assert g.n == 5
    assert g.edges() == [(0, 1), (2, 3), (3, 4)]
    with pytest.raises(CapacityError):
        disjoint_union(complete(40), complete(40))


# --- graph6 ------------------------------------------------------------------


def test_graph6_frozen_values():
    # Hand-decoded per the format definition: 'D' = 5 vertices, '~{' unpacks to
    # ten 1-bits -> K_5; K_1 has header '@' and no adjacency bytes.
    assert parse_graph6("D~{") == complete(5)
    assert emit_graph6(Graph(1, [0])) == "@"
    assert emit_graph6(complete(5)) == "D~{"


def test_graph6_parse_errors_carry_offsets():
    with pytest.raises(Graph6ParseError):
        parse_graph6("")
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("D~")  # truncated bit vector
    assert err.value.offset == 2
    with pytest.raises(Graph6ParseError):
        parse_graph6("D~{{")  # trailing byte
    with pytest.raises(Graph6ParseError):
        parse_graph6("D\x01\x01\x01")  # bytes outside the alphabet
    with pytest.raises(Graph6ParseError):
        # order 100 > 64: header '~' + 3 bytes encoding 100, no body needed to fail
        parse_graph6("~??c" + "?" * 1000)


def test_graph6_parse_error_survives_pickling():
    err = pickle.loads(pickle.dumps(Graph6ParseError("truncated adjacency bit vector", 2)))
    assert isinstance(err, Graph6ParseError)
    assert err.offset == 2
    assert str(err) == "truncated adjacency bit vector (byte offset 2)"


def test_pack_graph6_of_the_bit_vector_is_emit_graph6():
    for g in (Graph(0, []), Graph(1, [0]), complete(5), path(7), cycle(12)):
        vector = 0
        for v in range(1, g.n):
            for u in range(v):
                vector = vector << 1 | g.has_edge(u, v)
        assert pack_graph6(g.n, vector) == emit_graph6(g)


def test_graph6_optional_prefix():
    assert parse_graph6(">>graph6<<D~{") == complete(5)


@given(graphs(max_n=64))
@settings(max_examples=150, deadline=None)
def test_graph6_round_trip(g):
    text = emit_graph6(g)
    back = parse_graph6(text)
    assert back.n == g.n and back.adj == g.adj
    assert emit_graph6(back) == text


def test_graph6_matches_networkx_encoding():
    nx = pytest.importorskip("networkx")
    for build in (lambda: complete(7), lambda: cycle(9), lambda: whiskered_clique(5)):
        g = build()
        H = nx.Graph()
        H.add_nodes_from(range(g.n))
        H.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(H, header=False).decode().strip()
        assert emit_graph6(g) == theirs


def test_all_labelings_of_p4_round_trip():
    # every labeled copy of P_4 survives the codec unchanged
    for perm in itertools.permutations(range(4)):
        g = Graph.from_edges(4, [(perm[i], perm[i + 1]) for i in range(3)])
        assert parse_graph6(emit_graph6(g)) == g
