"""Family generators: counts, labels, invariant triples, formula evaluators."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from eml.graphs import CapacityError, Graph, InputError, is_tree
from eml.solvers import (
    has_perfect_matching,
    independence_number,
    invariant_triple,
    matching_number,
    min_maximal_matching_number,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_standard_families():
    assert complete(4).num_edges() == 6
    assert cycle(5).num_edges() == 5
    for q in range(1, 6):
        assert complete_bipartite(q, q).num_edges() == q * q
    k23 = complete_bipartite(2, 3)
    assert [k23.label_of(v) for v in range(5)] == ["x1", "x2", "y1", "y2", "y3"]
    with pytest.raises(InputError):
        complete(0)
    with pytest.raises(InputError):
        cycle(2)
    with pytest.raises(InputError):
        complete_bipartite(1, 0)


def test_whisker_shape():
    w = whisker(complete(1))
    assert (w.n, w.num_edges()) == (2, 1)
    w = whisker(complete(3))
    assert w.n == 6 and w.num_edges() == 6
    # each original vertex gains exactly one pendant neighbor
    for v in range(3):
        assert w.has_edge(v, 3 + v)
        assert w.adj[3 + v] == 1 << v
    assert w.label_of(3) == "w1"
    # pendant names never collide with labels already present
    ww = whisker(w)
    assert len({ww.label_of(v) for v in range(ww.n)}) == ww.n


def test_whisker_is_g_r():
    for r in range(2, 7):
        assert nx.is_isomorphic(to_nx(whisker(complete(r))), to_nx(g_r(r)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.data())
def test_whisker_matching_facts(n, data):
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda e: (min(e), max(e))
            ),
            max_size=n * (n - 1) // 2,
        )
    )
    g = Graph.from_edges(n, [e for e in edges if e[0] != e[1]])
    w = whisker(g)
    assert matching_number(w) == n
    assert independence_number(w) == n
    if has_perfect_matching(g):
        assert matching_number(w) == 2 * min_maximal_matching_number(w)


def test_g_r_family():
    assert g_r(4).num_edges() == 10
    for r in range(2, 9):
        g = g_r(r)
        assert g.n == 2 * r and g.num_edges() == math.comb(r + 1, 2)
        assert invariant_triple(g) == (1, (r + 1) // 2, r)
    with pytest.raises(InputError):
        g_r(1)


def test_g1_family():
    for q in range(2, 7):
        g = g1(q)
        assert (g.n, g.num_edges()) == (2 * q + 2, 2 * q + 1)
        assert invariant_triple(g) == (q, q, q + 1)
    assert is_tree(g1(3))
    assert invariant_triple(g1(2)) == (2, 2, 3)
    with pytest.raises(InputError):
        g1(1)


def test_g2_family():
    for q in range(2, 7):
        for r in range(q + 2, 2 * q + 1):
            g = g2(q, r)
            assert g.n == 2 * r and is_tree(g)
            assert invariant_triple(g) == (q, q, r)
    assert g2(5, 7).num_edges() == 13
    assert invariant_triple(g2(4, 6)) == (4, 4, 6)
    # r = q+2 leaves the u/v blocks empty but is still in range
    assert invariant_triple(g2(3, 5)) == (3, 3, 5)
    for q, r in [(1, 3), (3, 4), (3, 7), (2, 2)]:
        with pytest.raises(InputError):
            g2(q, r)


def test_g3_family():
    for r in range(2, 8):
        g = g3(r)
        assert (g.n, g.num_edges()) == (2 * r + 1, 2 * r)
        assert invariant_triple(g) == (r, r, r)
    assert not has_perfect_matching(g3(2))
    with pytest.raises(InputError):
        g3(1)


def test_g4_family():
    for q in range(2, 7):
        g = g4(q)
        assert g.num_edges() == q * q + 2
        assert invariant_triple(g) == (1, q, q + 1)
        assert has_perfect_matching(g)
    assert invariant_triple(g4(3)) == (1, 3, 4)
    with pytest.raises(InputError):
        g4(1)


def test_g5_family():
    for q in range(4, 7):
        for r in range(q + 2, 2 * q - 1):
            g = g5(q, r)
            assert g.num_edges() == f1(q, r)
            assert invariant_triple(g) == (1, q, r)
            assert has_perfect_matching(g)
    assert invariant_triple(g5(4, 6)) == (1, 4, 6)
    for q, r in [(3, 5), (4, 5), (4, 7), (5, 6)]:
        with pytest.raises(InputError):
            g5(q, r)


def test_formula_values():
    assert (f1(10, 17), f2(10, 17)) == (189, 204)
    assert (f1(10, 18), f2(10, 18)) == (207, 206)
    assert f1(4, 6) == 24
    with pytest.raises(InputError):
        f1(10, 11)
    with pytest.raises(InputError):
        f2(10, 19)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 40).flatmap(lambda q: st.tuples(st.just(q), st.integers(q + 2, 2 * q - 2))))
def test_formulas_match_direct_evaluation(qr):
    q, r = qr
    assert f1(q, r) == r * (q - 1) + math.comb(r - q + 2, 2)
    assert f2(q, r) == 2 * (r - q) + math.comb(2 * q, 2)


def test_divide():
    assert divide(7, 3) == BoundParams(2, 1, 3, 7)
    assert divide(0, 5) == BoundParams(0, 0, 5, 0)
    with pytest.raises(InputError):
        divide(4, 0)
    with pytest.raises(InputError):
        divide(-1, 2)


@given(st.integers(0, 10**6), st.integers(1, 10**4))
def test_divide_identity(dividend, divisor):
    p = divide(dividend, divisor)
    assert p.a * p.divisor + p.b == p.dividend == dividend
    assert 0 <= p.b < p.divisor == divisor


def test_bound34_example_instances():
    for p in range(2, 11):
        assert bound34_1(p, p + 1) == 2 * p + 3
        assert bound34_2(p, p + 1, p + 2) == 2 * p + 5
        assert bound34_3(p, p + 1, p + 4) == 2 * p + 11
        assert [bound34(p, p + 1, r) for r in (p + 1, p + 2, p + 4)] == [
            2 * p + 3, 2 * p + 5, 2 * p + 11
        ]
    with pytest.raises(InputError):
        bound34_1(1, 3)
    with pytest.raises(InputError):
        bound34_1(3, 3)
    with pytest.raises(InputError):
        bound34_2(2, 4, 8)  # r > 2q-p+1 belongs to case 3
    with pytest.raises(InputError):
        bound34_3(2, 4, 7)  # r <= 2q-p+1 belongs to case 2


def test_generators_reject_capacity_overflow():
    with pytest.raises(CapacityError):
        whisker(complete_bipartite(20, 20))
    with pytest.raises(CapacityError):
        g2(20, 40)
    with pytest.raises(CapacityError):
        g_r(40)
