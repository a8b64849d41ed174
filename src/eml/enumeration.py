"""Isomorphism-free enumeration of connected graphs and of trees.

Connected graphs are generated by canonical augmentation: grow order by
order through all graphs (disconnected intermediates included, since
deleting a vertex may disconnect), extending each parent by one new
vertex joined to every subset of the old vertices, and keeping a child
exactly when deleting the vertex at the last canonical position
reproduces the parent's canonical key.  Each isomorphism class then
appears once, under exactly one parent, without any global seen-set --
which is also what lets the extremal searches split the level-by-level
tree across worker processes.  The last canonical position always holds a
vertex of maximum degree, so children whose new vertex is not of maximum
degree are rejected before any canonical labeling.

Trees are generated separately by leaf augmentation with a rooted-code
(sorted-subtree) key at the tree centers, which reaches order 18 cheaply.
"""

from __future__ import annotations

from typing import Iterator

from eml.canon import key_and_order
from eml.graphs import Graph, InputError, bits, component_masks

MAX_ENUM_ORDER = 10
MAX_TREE_ORDER = 18
# order of the level at which every scan splits the augmentation tree
SEED_ORDER = 6

AdjKey = tuple[tuple[int, ...], int]  # adjacency rows + canonical encoding


def _delete_last_candidate(adj: tuple[int, ...], d: int) -> tuple[int, ...]:
    low = (1 << d) - 1
    return tuple(
        (row & low) | (row >> (d + 1) << d) for i, row in enumerate(adj) if i != d
    )


def _children(
    parent: AdjKey, max_edges: int | None, require_covering: bool
) -> Iterator[AdjKey]:
    """Accepted one-vertex extensions of parent, in deterministic order."""
    adj, parent_key = parent
    k = len(adj)
    parent_edges = sum(row.bit_count() for row in adj) // 2
    comps = component_masks(adj, (1 << k) - 1) if require_covering else []
    budget = None if max_edges is None else max_edges - parent_edges
    if budget is not None and budget < 0:
        return
    if require_covering and budget is not None and len(comps) > budget:
        return
    # The canonical deletion vertex lies in the last cell of the refined
    # partition, hence has maximum degree, and an accepted child loses
    # exactly |s| edges with it: a child whose maximum degree exceeds |s|
    # is rejected, as is every child isomorphic to it, so it is skipped
    # before labeling (the seen set only ever dedups isomorphic children).
    top = max((row.bit_count() for row in adj), default=0)
    top_mask = sum(1 << v for v, row in enumerate(adj) if row.bit_count() == top)
    seen: set[int] = set()
    for s in range(1 if require_covering else 0, 1 << k):
        size = s.bit_count()
        if budget is not None and size > budget:
            continue
        if size < top or (size == top and s & top_mask):
            continue
        if require_covering and any(not s & c for c in comps):
            continue
        child = tuple(
            row | ((s >> v & 1) << k) for v, row in enumerate(adj)
        ) + (s,)
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


def descend(
    parents: list[AdjKey],
    k_from: int,
    n: int,
    max_edges: int | None,
    connected: bool,
) -> Iterator[AdjKey]:
    """Stream accepted order-n descendants of the given order-k_from classes.

    With connected=True only connected graphs are emitted at order n, and
    intermediate parents that cannot reach a connected order-n graph within
    max_edges are pruned.
    """
    level = parents
    for k in range(k_from, n - 1):
        grown: list[AdjKey] = []
        for parent in level:
            if connected and max_edges is not None:
                edges = sum(row.bit_count() for row in parent[0]) // 2
                if edges + n - 1 + _spanning_deficit(parent[0], k) > max_edges:
                    continue
            grown.extend(_children(parent, max_edges, False))
        level = grown
    if n == k_from:
        yield from level
        return
    for parent in level:
        yield from _children(parent, max_edges, connected)


def seed_level(k: int, max_edges: int | None = None) -> list[AdjKey]:
    """All isomorphism classes of order k (connected or not), with keys."""
    level: list[AdjKey] = [((0,), 0)]
    for _ in range(k - 1):
        level = [child for parent in level for child in _children(parent, max_edges, False)]
    return level


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


def _tree_key(adj: tuple[int, ...], n: int) -> str:
    """Rooted-at-center code: equal exactly for isomorphic trees."""
    if n == 1:
        return "()"
    degree = [row.bit_count() for row in adj]
    alive = n
    removed = [False] * n
    leaves = [v for v in range(n) if degree[v] == 1]
    while alive > 2:
        next_leaves = []
        for v in leaves:
            removed[v] = True
            alive -= 1
            for u in bits(adj[v]):
                degree[u] -= 1
                if not removed[u] and degree[u] == 1:
                    next_leaves.append(u)
        leaves = next_leaves
    centers = [v for v in range(n) if not removed[v]]

    def code(v: int, parent: int) -> str:
        subs = sorted(code(u, v) for u in bits(adj[v]) if u != parent)
        return "(" + "".join(subs) + ")"

    return min(code(c, -1) for c in centers)


def tree_levels(n_max: int) -> Iterator[list[tuple[int, ...]]]:
    """Adjacency rows of one tree per isomorphism class, for each order
    1..n_max in turn; each level is grown from the one before."""
    level: list[tuple[int, ...]] = [(0,)]
    yield level
    for k in range(1, n_max):
        grown: dict[str, tuple[int, ...]] = {}
        for adj in level:
            for v in range(k):
                child = tuple(
                    row | ((1 << k) if i == v else 0) for i, row in enumerate(adj)
                ) + (1 << v,)
                key = _tree_key(child, k + 1)
                if key not in grown:
                    grown[key] = child
        level = list(grown.values())
        yield level


def enumerate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees of order n."""
    if not 1 <= n <= MAX_TREE_ORDER:
        raise InputError(f"order {n} outside 1..{MAX_TREE_ORDER}")
    for level in tree_levels(n):
        pass
    for adj in level:
        yield Graph(n, adj)
