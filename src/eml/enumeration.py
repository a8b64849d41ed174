"""Isomorphism-free enumeration of connected graphs and of trees.

Connected graphs are generated by canonical augmentation: grow order by
order through all graphs (disconnected intermediates included, since
deleting a vertex may disconnect), extending each parent by one new
vertex joined to every subset of the old vertices, and keeping a child
exactly when deleting the vertex at the last canonical position
reproduces the parent's canonical key.  Each isomorphism class then
appears once, under exactly one parent, without any global seen-set --
which is also what lets the extremal searches split the level-by-level
tree across worker processes.

Only children that could be kept are labeled (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26 (1998)).  The last canonical
position always holds a vertex of the last cell of the root equitable
partition, a cell of maximum-degree vertices, so a child whose new vertex
is not of maximum degree, or not in that cell, is rejected first; the
class is then reached from the subset that puts the new vertex there.  A
subset that one of the parent's automorphism generators maps to a smaller
subset gives an isomorphic child found earlier and is skipped too.

Trees are generated separately, as level sequences rooted at a center
(``free_tree_parents``), which needs neither canonical labeling nor a
seen-set and streams one order at a time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator

from eml.canon import automorphism_generators, in_last_cell, key_and_order
from eml.graphs import Graph, InputError, component_masks

MAX_ENUM_ORDER = 10
MAX_TREE_ORDER = 22
# order of the level at which every scan splits the augmentation tree
SEED_ORDER = 6

AdjKey = tuple[tuple[int, ...], int]  # adjacency rows + canonical encoding


def _delete_last_candidate(adj: tuple[int, ...], d: int) -> tuple[int, ...]:
    low = (1 << d) - 1
    return tuple(
        (row & low) | (row >> (d + 1) << d) for i, row in enumerate(adj) if i != d
    )


def _image(g: list[int], s: int) -> int:
    """The vertex mask s mapped through the permutation g."""
    t = 0
    while s:
        low = s & -s
        s ^= low
        t |= 1 << g[low.bit_length() - 1]
    return t


def _children(
    parent: AdjKey, max_edges: int | None, require_covering: bool
) -> Iterator[AdjKey]:
    """Accepted one-vertex extensions of parent, in deterministic order."""
    adj, parent_key = parent[0], parent[1]
    k = len(adj)
    parent_edges = sum(row.bit_count() for row in adj) // 2
    comps = component_masks(adj, (1 << k) - 1) if require_covering else []
    budget = None if max_edges is None else max_edges - parent_edges
    if budget is not None and budget < 0:
        return
    if require_covering and budget is not None and len(comps) > budget:
        return
    # Exact filters reject a child before it is labeled.
    # - The canonical deletion vertex lies in the last cell of the child's
    #   root equitable partition, a cell of maximum-degree vertices, so a
    #   child whose new vertex k lies outside it is rejected: if its class is
    #   accepted at all, the subset that puts k in the deletion vertex's
    #   place yields it.  As an accepted child loses exactly |s| edges with
    #   k, the cheap first step rejects a child of maximum degree above |s|.
    # - The parent's automorphisms carry a child onto an isomorphic one that
    #   fixes k, and every filter here is invariant under them.  Subsets are
    #   walked in increasing order and one that some generator maps lower is
    #   skipped, so each orbit's least member is still labeled.  The seen
    #   set dedups whatever the generators miss.
    top = max((row.bit_count() for row in adj), default=0)
    top_mask = sum(1 << v for v, row in enumerate(adj) if row.bit_count() == top)
    gens = automorphism_generators(adj, k)
    seen: set[int] = set()
    for s in range(1 if require_covering else 0, 1 << k):
        size = s.bit_count()
        if budget is not None and size > budget:
            continue
        if size < top or (size == top and s & top_mask):
            continue
        if require_covering and any(not s & c for c in comps):
            continue
        if any(_image(g, s) < s for g in gens):
            continue
        child = tuple(
            row | ((s >> v & 1) << k) for v, row in enumerate(adj)
        ) + (s,)
        if not in_last_cell(child, k + 1, k):
            continue
        key, order = key_and_order(child, k + 1)
        if key in seen:
            continue
        seen.add(key)
        d = order[-1]
        if d != k:
            reduced = _delete_last_candidate(child, d)
            if key_and_order(reduced, k)[0] != parent_key:
                continue
        yield child, key


def _spanning_deficit(adj: tuple[int, ...], k: int) -> int:
    """Edges any connected completion must still add: n-1-k + components."""
    return len(component_masks(adj, (1 << k) - 1)) - k


def _as_is(parent, children: Iterator[AdjKey]) -> Iterator[AdjKey]:
    return children


def descend(
    parents: list,
    k_from: int,
    n: int,
    max_edges: int | None,
    connected: bool,
    grow: Callable = _as_is,
) -> Iterator:
    """Stream accepted order-n descendants of the given order-k_from classes.

    With connected=True only connected graphs are emitted at order n, and
    intermediate parents that cannot reach a connected order-n graph within
    max_edges are pruned.

    Each class is a tuple led by its adjacency rows and canonical key.
    grow(parent, children) turns one parent's accepted children, as
    (adj, key) pairs, into the classes carried to the next level (or
    emitted, at order n), and may drop any of them together with everything
    below it; by default every child is carried as it is.
    """
    level = parents
    for k in range(k_from, n - 1):
        grown: list = []
        for parent in level:
            if connected and max_edges is not None:
                edges = sum(row.bit_count() for row in parent[0]) // 2
                if edges + n - 1 + _spanning_deficit(parent[0], k) > max_edges:
                    continue
            grown.extend(grow(parent, _children(parent, max_edges, False)))
        level = grown
    if n == k_from:
        yield from level
        return
    for parent in level:
        yield from grow(parent, _children(parent, max_edges, connected))


@lru_cache(maxsize=16)
def seed_level(k: int, max_edges: int | None = None) -> tuple[AdjKey, ...]:
    """All isomorphism classes of order k (connected or not), with keys.

    Built once per (k, max_edges): a least-edge search asks for the same
    level at every order it scans.
    """
    level: list[AdjKey] = [((0,), 0)]
    for _ in range(k - 1):
        level = [child for parent in level for child in _children(parent, max_edges, False)]
    return tuple(level)


def enumerate_connected_graphs(n: int, max_edges: int | None = None) -> Iterator[Graph]:
    """One representative per isomorphism class of connected order-n graphs."""
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise InputError(f"order {n} outside 1..{MAX_ENUM_ORDER}")
    if n == 1:
        yield Graph(1, (0,))
        return
    k = min(n - 1, SEED_ORDER)
    for adj, _ in descend(seed_level(k, max_edges), k, n, max_edges, True):
        yield Graph(n, adj)


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def free_tree_parents(n: int) -> Iterator[tuple[int, ...]]:
    """Parent arrays of one tree per isomorphism class of order n >= 1.

    Wright, Richmond, Odlyzko and McKay, "Constant time generation of free
    trees", SIAM J. Comput. 15 (1986).  Each tree is rooted at a center and
    written as its level sequence L (preorder depths, every vertex's subtrees
    in non-increasing order of their sequences); the sequences are walked in
    decreasing order by the Beyer-Hedetniemi successor, and a sequence that
    is not rooted at a center jumps past every successor sharing its first
    subtree.  Vertices are numbered in preorder, so parent[0] == -1 and
    parent[v] < v; the array is kept alongside L, as only a suffix changes.
    """
    if n == 1:
        yield (-1,)
        return
    # the path, rooted at its center
    half = n // 2
    level = list(range(half + 1)) + list(range(1, n - half))
    parent = list(range(-1, n - 1))
    if n > half + 1:
        parent[half + 1] = 0
    while True:
        while not _rooted_at_center(level, n):
            # successors keeping the root's first subtree only shrink the
            # rest, so move on from that subtree's last vertex
            p = _second_child(level, n) - 1
            deep = level[p] > 2
            _successor(level, parent, p, n)
            if deep:
                # the root now has one child: end on the path that makes
                # the rest as high as the first subtree
                k = max(level)
                s = n - k
                level[s:] = range(1, k + 1)
                parent[s:] = range(s - 1, n - 1)
                parent[s] = 0
        yield tuple(parent)
        p = n - 1
        while level[p] == 1:
            p -= 1
        if p == 0:
            return
        _successor(level, parent, p, n)


def _second_child(level: list[int], n: int) -> int:
    """Position of the root's second child, or n if it has only one."""
    try:
        return level.index(1, 2)
    except ValueError:
        return n


def _rooted_at_center(level: list[int], n: int) -> bool:
    """Whether the root is a center of the tree, and for a bicentral tree
    the chosen one: the root's first subtree T1 and the rest T2, each as its
    own level sequence, compare by height, then size, then sequence."""
    m = _second_child(level, n)
    t1 = [d - 1 for d in level[1:m]]
    t2 = [0] + level[m:]
    return (max(t1), len(t1), t1) <= (max(t2), len(t2), t2)


def _successor(level: list[int], parent: list[int], p: int, n: int) -> None:
    """Beyer-Hedetniemi step at position p, in place: the suffix from p
    becomes repeated copies of the block from p's parent q up to p."""
    q = parent[p]
    shift = p - q
    top = level[q]
    up = parent[q]
    for i in range(p, n):
        d = level[i - shift]
        level[i] = d
        parent[i] = up if d == top else parent[i - shift] + shift


def tree_graph(parent: tuple[int, ...]) -> Graph:
    """The tree with the given parent array (parent[0] == -1)."""
    return Graph.from_edges(len(parent), [(u, v) for v, u in enumerate(parent) if v])


def enumerate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees of order n."""
    if not 1 <= n <= MAX_TREE_ORDER:
        raise InputError(f"order {n} outside 1..{MAX_TREE_ORDER}")
    for parent in free_tree_parents(n):
        yield tree_graph(parent)
