"""Seeded inputs and frozen reference values for the benchmark.

Standard library only: run.py imports this module, and the processes it
launches inherit its peak RSS, so it must stay small.
"""

from __future__ import annotations

import random
from math import comb

# OEIS A001349: connected graphs on n unlabeled nodes; here n = 8.
A001349_8 = 11117
# OEIS A000055: trees on n unlabeled nodes, n = 1..16.
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)

INVARIANT_GRAPHS = 540
ORDERS = range(14, 23)
# edges beyond a spanning tree, per order: solver time grows with the order
# and with this excess, and its spread between graphs grows with both, so
# larger orders get fewer extra edges to keep every graph's cost moderate
EXCESS = {14: 22, 15: 20, 16: 19, 17: 17, 18: 15, 19: 13, 20: 11, 21: 10, 22: 8}
# above this order the edge count of G(n, p) varies too much for its cost:
# one G(22, p) graph cost as much as 60 others of its order
GNP_MAX_ORDER = 18


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _gnp(rng: random.Random, n: int) -> set[tuple[int, int]]:
    p = (n - 1 + EXCESS[n]) / comb(n, 2)
    while True:
        edges = {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
        if _connected(n, edges):
            return edges


def _tree_plus(rng: random.Random, n: int) -> set[tuple[int, int]]:
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + EXCESS[n]:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return edges


def graph6(n: int, edges) -> str:
    """graph6 text of an edge set on vertices 0..n-1 (n <= 62)."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    vector = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    vector += [0] * (-len(vector) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, vector[i : i + 6])), 2))
        for i in range(0, len(vector), 6)
    )
    return chr(63 + n) + body


def invariant_graphs(seed: int) -> list[str]:
    """The graph6 lines of the invariants workload for one seed.

    Orders cycle through 14..22.  Half the graphs of order at most
    GNP_MAX_ORDER are G(n, p) with n - 1 + EXCESS[n] edges expected (redrawn
    until connected); the rest are random recursive trees plus EXCESS[n]
    random extra edges.  Each graph is relabeled by a random permutation.
    """
    rng = random.Random(f"invariants:{seed}")
    lines = []
    for i in range(INVARIANT_GRAPHS):
        n = ORDERS[i % len(ORDERS)]
        edges = _gnp(rng, n) if n <= GNP_MAX_ORDER and i % 2 == 0 else _tree_plus(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        lines.append(graph6(n, [(perm[u], perm[v]) for u, v in edges]))
    return lines
