"""Exact solvers for the three matching invariants and the independence number.

For a graph G with at least one edge the package computes

* ``matching_number``            -- max |M| over matchings M,
* ``min_maximal_matching_number`` -- min |M| over maximal matchings
                                     (the edge domination number),
* ``induced_matching_number``    -- max |M| over induced matchings,
* ``independence_number``        -- alpha(G),

all exactly, never approximately.  ``brute_force_invariants`` is the
independent oracle: it enumerates every matching of the graph outright and
classifies each one, and the optimized solvers are tested against it
exhaustively on small orders.

All solvers are pure functions of (graph, budget).  Budgets cap search-tree
nodes and wall-clock time; exceeding one raises ``BudgetExceeded`` carrying
the best bounds established so far.
"""

from __future__ import annotations

import time
from typing import Iterator, NamedTuple

from eml.graphs import (
    Graph,
    InputError,
    bits,
    closed_neighborhood,
    matched_mask,
)


class SolverBudget(NamedTuple):
    """Limits for one solver call; ``None`` fields mean unlimited."""

    node_limit: int | None = None
    time_limit: float | None = None


class BudgetExceeded(RuntimeError):
    """A solver ran out of budget; ``lower``/``upper`` bound the true value."""

    def __init__(self, what: str, lower: int | None, upper: int | None):
        super().__init__(f"{what}: budget exhausted (bounds [{lower}, {upper}])")
        self.what = what
        self.lower = lower
        self.upper = upper

    def __reduce__(self):
        return type(self), (self.what, self.lower, self.upper)


class SolverFault(RuntimeError):
    """An internal consistency check failed; indicates a bug, never bad input."""


class InvariantTriple(NamedTuple):
    """(p, q, r) = (induced matching, min maximal matching, matching) numbers."""

    p: int
    q: int
    r: int


class _Meter:
    """Node/time accounting shared by the recursive solvers."""

    __slots__ = ("nodes", "node_limit", "deadline", "what", "lower", "upper")

    def __init__(self, what: str, budget: SolverBudget | None, upper: int):
        self.what = what
        self.nodes = 0
        self.node_limit = budget.node_limit if budget else None
        self.deadline = None
        if budget and budget.time_limit is not None:
            self.deadline = time.monotonic() + budget.time_limit
        self.lower: int | None = None
        self.upper = upper

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise BudgetExceeded(self.what, self.lower, self.upper)
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExceeded(self.what, self.lower, self.upper)


# ---------------------------------------------------------------------------
# Oracle: enumerate every matching outright and classify it.
# ---------------------------------------------------------------------------

BRUTE_FORCE_EDGE_CAP = 24


def brute_force_invariants(g: Graph) -> InvariantTriple:
    """Ground-truth (p, q, r) by enumerating all matchings of g.

    Walks the full include/exclude tree over the edge list (equivalently: all
    2^|E| edge subsets, with subsets that repeat a vertex classified at their
    first clash), so it is only usable for |E| <= 24.
    """
    edges = g.edges()
    m = len(edges)
    if m > BRUTE_FORCE_EDGE_CAP:
        raise InputError(f"brute force needs |E| <= {BRUTE_FORCE_EDGE_CAP}, got {m}")
    if m == 0:
        raise InputError("invariant triple needs at least one edge")
    emask = [(1 << u) | (1 << v) for u, v in edges]
    reach = [
        closed_neighborhood(g, u) | closed_neighborhood(g, v) for u, v in edges
    ]
    full = g.vertex_mask()
    best_match = 0
    best_induced = 0
    best_maximal = m + 1

    def classify(chosen: list[int], used: int, induced: bool) -> None:
        nonlocal best_match, best_induced, best_maximal
        k = len(chosen)
        if k > best_match:
            best_match = k
        if induced and k > best_induced:
            best_induced = k
        # maximal iff the uncovered vertices span no edge
        if k < best_maximal:
            free = full & ~used
            if all(em & ~free for em in emask):
                best_maximal = k

    def walk(i: int, chosen: list[int], used: int, blocked: int, induced: bool) -> None:
        classify(chosen, used, induced)
        for j in range(i, m):
            if emask[j] & used:
                continue
            chosen.append(j)
            walk(
                j + 1,
                chosen,
                used | emask[j],
                blocked | reach[j],
                induced and not (emask[j] & blocked),
            )
            chosen.pop()

    walk(0, [], 0, 0, True)
    return InvariantTriple(best_induced, best_maximal, best_match)


# ---------------------------------------------------------------------------
# Matching number: greedy start, then augmenting paths with blossom
# contraction (classic array formulation).
# ---------------------------------------------------------------------------


def _max_matching_mate(adj: tuple[int, ...], n: int, meter: _Meter | None = None) -> list[int]:
    """mate[v] = partner of v in a maximum matching, or -1."""
    mate = [-1] * n
    for u in range(n):
        if mate[u] < 0:
            for v in bits(adj[u]):
                if mate[v] < 0:
                    mate[u] = v
                    mate[v] = u
                    break

    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n

    def lowest_common_ancestor(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[mate[b]]

    def mark_blossom(v: int, ancestor: int, child: int, blossom: list[bool], queue: list[int]) -> None:
        while base[v] != ancestor:
            blossom[base[v]] = True
            blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def augment_from(root: int) -> bool:
        nonlocal parent, base, in_queue
        parent = [-1] * n
        base = list(range(n))
        in_queue = [False] * n
        queue = [root]
        in_queue[root] = True
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            if meter is not None:
                meter.tick()
            for w in bits(adj[v]):
                if base[v] == base[w] or mate[v] == w:
                    continue
                if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                    # odd cycle: contract the blossom
                    ancestor = lowest_common_ancestor(v, w)
                    blossom = [False] * n
                    mark_blossom(v, ancestor, w, blossom, queue)
                    mark_blossom(w, ancestor, v, blossom, queue)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = ancestor
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[w] < 0:
                    parent[w] = v
                    if mate[w] < 0:
                        # augmenting path found: flip it
                        while w >= 0:
                            v = parent[w]
                            nxt = mate[v]
                            mate[w] = v
                            mate[v] = w
                            w = nxt
                        return True
                    if not in_queue[mate[w]]:
                        in_queue[mate[w]] = True
                        queue.append(mate[w])
        return False

    for u in range(n):
        if mate[u] < 0:
            augment_from(u)
    return mate


def matching_number(g: Graph, budget: SolverBudget | None = None) -> int:
    """Largest size of a matching of g."""
    meter = _Meter("matching number", budget, g.n // 2)
    return sum(1 for v in _max_matching_mate(g.adj, g.n, meter) if v >= 0) // 2


def has_perfect_matching(g: Graph) -> bool:
    """True iff some matching covers every vertex (so n > 0 and n even)."""
    return g.n > 0 and 2 * matching_number(g) == g.n


# ---------------------------------------------------------------------------
# Minimum maximal matching: memoized recursion on the set of still-free
# vertices.  Any maximal matching must cover an endpoint of the first
# remaining edge, which gives the complete branch set; disjoint components
# of the free part are solved independently and summed.
# ---------------------------------------------------------------------------


def _min_maximal_size(adj: tuple[int, ...], free: int, memo: dict, meter: _Meter | None) -> int:
    total = 0
    remaining = free
    while remaining:
        # inline BFS rather than graphs.component_masks: this is the hottest loop of q
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            frontier = grow & remaining & ~comp
            comp |= frontier
        remaining &= ~comp
        if comp != (comp & -comp):  # singletons need no edges
            total += _min_maximal_component(adj, comp, memo, meter)
    return total


def _min_maximal_component(adj: tuple[int, ...], free: int, memo: dict, meter: _Meter | None) -> int:
    cached = memo.get(free)
    if cached is not None:
        return cached
    if meter is not None:
        meter.tick()
    # lexicographically first edge (u, v) inside the free set
    u = -1
    for x in bits(free):
        if adj[x] & free:
            u = x
            break
    if u < 0:
        memo[free] = 0
        return 0
    un = adj[u] & free
    v = (un & -un).bit_length() - 1
    best = free.bit_count()  # any maximal matching is smaller than this
    for w in bits(un):
        sub = 1 + _min_maximal_size(adj, free ^ (1 << u) ^ (1 << w), memo, meter)
        if sub < best:
            best = sub
    for w in bits(adj[v] & free & ~(1 << u)):
        sub = 1 + _min_maximal_size(adj, free ^ (1 << v) ^ (1 << w), memo, meter)
        if sub < best:
            best = sub
    memo[free] = best
    return best


def min_maximal_matching_number(g: Graph, budget: SolverBudget | None = None) -> int:
    """Smallest size of a maximal matching of g (edge domination number)."""
    meter = _Meter("min maximal matching", budget, g.n // 2)
    return _min_maximal_size(g.adj, g.vertex_mask(), {}, meter)


# ---------------------------------------------------------------------------
# Maximum independent set engine.  Works on an explicit neighbor-mask list so
# it serves both alpha(G) (masks over vertices) and the induced matching
# number (masks over edges -- which may exceed 64 bits; Python ints don't
# care).
# ---------------------------------------------------------------------------


def _mis_size(neigh: list[int], meter: _Meter | None = None, pool: int | None = None) -> int:
    """Size of a maximum independent set among ``pool`` (default: all of neigh)."""
    if pool is None:
        pool = (1 << len(neigh)) - 1
    if not pool:
        return 0
    best = 0

    def clique_cover_bound(pool: int) -> int:
        # greedy partition of the pool into cliques; each contributes <= 1
        cliques: list[int] = []
        for v in bits(pool):
            row = neigh[v]
            for i, c in enumerate(cliques):
                if c & ~row == 0:
                    cliques[i] = c | (1 << v)
                    break
            else:
                cliques.append(1 << v)
        return len(cliques)

    def expand(pool: int, size: int) -> None:
        nonlocal best
        if meter is not None:
            meter.tick()
        if size > best:
            best = size
            if meter is not None and best > (meter.lower or 0):
                meter.lower = best
        if not pool:
            return
        count = pool.bit_count()
        if size + count <= best:
            return
        if count > 8 and size + clique_cover_bound(pool) <= best:
            return
        # take vertices of maximum pool-degree first; isolated ones are free
        scan = pool
        while scan:
            low = scan & -scan
            v = low.bit_length() - 1
            if neigh[v] & pool == 0:
                size += 1
                pool ^= low
                if size > best:
                    best = size
                    if meter is not None and best > (meter.lower or 0):
                        meter.lower = best
            scan ^= low
        if not pool:
            return
        v_best, deg_best = -1, -1
        for v in bits(pool):
            d = (neigh[v] & pool).bit_count()
            if d > deg_best:
                v_best, deg_best = v, d
        v = v_best
        expand(pool & ~neigh[v] & ~(1 << v), size + 1)
        expand(pool & ~(1 << v), size)

    expand(pool, 0)
    return best


def independence_number(g: Graph, budget: SolverBudget | None = None) -> int:
    """alpha(g) = largest size of an independent vertex set."""
    meter = _Meter("independence number", budget, g.n)
    return _mis_size(list(g.adj), meter)


def _edge_conflicts(g: Graph) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges of g plus, per edge, the mask of edges it cannot join in an
    induced matching (shares a vertex, or some edge of g meets both)."""
    edges = g.edges()
    emask = [(1 << u) | (1 << v) for u, v in edges]
    reach = [closed_neighborhood(g, u) | closed_neighborhood(g, v) for u, v in edges]
    conflicts = [0] * len(edges)
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if emask[j] & reach[i]:
                conflicts[i] |= 1 << j
                conflicts[j] |= 1 << i
    return edges, conflicts


def induced_matching_number(g: Graph, budget: SolverBudget | None = None) -> int:
    """Largest size of an induced matching of g."""
    _, conflicts = _edge_conflicts(g)
    meter = _Meter("induced matching number", budget, len(conflicts))
    return _mis_size(conflicts, meter)


def checked_triple(g: Graph, p: int, q: int, r: int) -> InvariantTriple:
    """(p, q, r) of g once g has an edge and the values pass the chain check."""
    if g.num_edges() == 0:
        raise InputError("invariant triple needs at least one edge")
    if not (1 <= p <= q <= r <= 2 * q) or 2 * r > g.n:
        raise SolverFault(f"invariant chain violated: p={p} q={q} r={r} n={g.n}")
    return InvariantTriple(p, q, r)


def invariant_triple(g: Graph, budget: SolverBudget | None = None) -> InvariantTriple:
    """(p, q, r) for a graph with at least one edge, chain-checked."""
    r = matching_number(g, budget)
    q = min_maximal_matching_number(g, budget)
    p = induced_matching_number(g, budget)
    return checked_triple(g, p, q, r)


# ---------------------------------------------------------------------------
# Trees: p and q by one dynamic program over the rooted tree (Golumbic and
# Lewenstein 2000 for induced matchings, Yannakakis and Gavril 1980 for
# edge domination).  Each vertex has three states per invariant, summed over
# its subtree:
#   p: uncovered (free), matched to a child (down), matched to its parent;
#   q: matched to a child (down), unmatched with every child matched down
#      (idle), matched to its parent.
# Both gains are at most 0, so a leaf child (gains 0) sets its parent's
# p-gain to 0, caps its q-gain at 0 and makes its idle q-state infinite;
# leaves are folded without computing their states.
# ---------------------------------------------------------------------------


def tree_pq(parent) -> tuple[int, int]:
    """(induced matching number, min maximal matching number) of a tree.

    ``parent[v] < v`` for every vertex v > 0 (vertex 0 is the root), so one
    pass from the last vertex down visits every child before its parent.
    """
    n = len(parent)
    none = -n - 1  # no child yet; also the down p-state of a leaf
    inf = n + 1  # down q-state of a leaf, idle q-state above a leaf
    p_free = [0] * n  # sum of children's best p (vertex free)
    p_up = [0] * n  # sum of children's free p (vertex matched up)
    p_gain = [none] * n  # max over children of (matched-up p - free p)
    q_up = [0] * n  # sum of children's best q (vertex matched up)
    q_idle = [0] * n  # sum of children's down q
    q_gain = [inf] * n  # min over children of (matched-up q - best q)
    for v in range(n - 1, 0, -1):
        w = parent[v]
        gain = p_gain[v]
        if gain == none:  # v is a leaf
            p_gain[w] = 0
            if q_gain[w] > 0:
                q_gain[w] = 0
            q_idle[w] = inf
            continue
        free = p_free[v]
        up = p_up[v]
        down = up + 1 + gain
        p_free[w] += down if down > free else free
        p_up[w] += free
        if up - free > p_gain[w]:
            p_gain[w] = up - free
        up = q_up[v]
        down = up + 1 + q_gain[v]
        idle = q_idle[v]
        best = idle if idle < down else down
        q_up[w] += best
        q_idle[w] += down
        if up - best < q_gain[w]:
            q_gain[w] = up - best
    p = max(p_free[0], p_up[0] + 1 + p_gain[0])
    q = min(q_up[0] + 1 + q_gain[0], q_idle[0])
    return p, q


# ---------------------------------------------------------------------------
# Maximal-matching stream and the two vertex conditions.
# ---------------------------------------------------------------------------


def enumerate_maximal_matchings(
    g: Graph, size_filter: int | None = None
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every maximal matching of g exactly once.

    Include-first depth-first search over the lexicographic edge list, so
    matchings of equal size stream in lexicographic order of their sorted
    edge tuples.  ``size_filter`` keeps only matchings of that exact size.
    The empty matching is maximal (and streamed) iff g has no edges.
    """
    edges = g.edges()
    m = len(edges)
    emask = [(1 << u) | (1 << v) for u, v in edges]
    # union of endpoint masks of edges from position i onward
    later = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        later[i] = later[i + 1] | emask[i]

    def walk(i: int, used: int, chosen: list[tuple[int, int]]) -> Iterator:
        if size_filter is not None and len(chosen) > size_filter:
            return
        if i == m:
            if size_filter is None or len(chosen) == size_filter:
                if all(em & used for em in emask):
                    yield tuple(chosen)
            return
        em = emask[i]
        if em & used:
            yield from walk(i + 1, used, chosen)
            return
        chosen.append(edges[i])
        yield from walk(i + 1, used | em, chosen)
        chosen.pop()
        # skipping edge i is only viable if something later can dominate it
        if em & later[i + 1]:
            yield from walk(i + 1, used, chosen)

    yield from walk(0, 0, [])


def satisfies_star1(g: Graph, v: int) -> bool:
    """True iff v has a neighbor of degree one."""
    g._check_vertex(v)
    return any(g.adj[w].bit_count() == 1 for w in bits(g.adj[v]))


def satisfies_star2(g: Graph, v: int, budget: SolverBudget | None = None) -> bool:
    """True iff every minimum maximal matching covers v."""
    g._check_vertex(v)
    if g.num_edges() == 0:
        return False
    q = min_maximal_matching_number(g, budget)
    vbit = 1 << v
    for matching in enumerate_maximal_matchings(g, size_filter=q):
        if not matched_mask(matching) & vbit:
            return False
    return True


# ---------------------------------------------------------------------------
# Optimal witnesses.  All four come from one greedy self-reduction over the
# solver that computes their value, so each is the lexicographically least
# optimum under the fixed item order and reruns agree byte-for-byte.  One
# meter per call covers the value solve and every reduction step.
# ---------------------------------------------------------------------------


def _least_optimum(own: list[int], kill: list[int], pool: int, value, meter: _Meter) -> list[int]:
    """Indices of the least items, in order, that form an optimum of ``pool``.

    ``value(pool)`` returns the optimum of the pool and a mask of the items
    of one optimal solution of it, or 0 when the solver keeps none.  Item i
    is available while ``own[i]`` lies inside ``pool``, and taken when it is
    in the solution at hand or when ``1 + value(pool & ~kill[i])`` is the
    optimum still needed; either way the rest of a solution containing it
    stays optimal for the shrunk pool.  A rejected item stays in the pool:
    no optimum left can use it, or it would have been taken.
    """
    need, solution = value(pool)
    meter.lower = meter.upper = need  # proved; the steps below only pick items
    chosen = []
    for i, mask in enumerate(own):
        if need == 0:
            break
        if mask & ~pool:
            continue
        shrunk = pool & ~kill[i]
        if not solution >> i & 1:
            size, found = value(shrunk)
            if 1 + size != need:
                continue
            solution = found
        chosen.append(i)
        pool = shrunk
        need -= 1
    if need:
        raise SolverFault("witness reconstruction failed")
    return chosen


def _matching_witness(g: Graph, value, meter: _Meter) -> tuple[tuple[int, int], ...]:
    # edges are the items; the pool is the set of vertices still free
    edges = g.edges()
    ends = [(1 << u) | (1 << v) for u, v in edges]
    return tuple(edges[i] for i in _least_optimum(ends, ends, g.vertex_mask(), value, meter))


def maximum_matching(g: Graph, budget: SolverBudget | None = None) -> tuple[tuple[int, int], ...]:
    """Lexicographically least maximum matching of g."""
    meter = _Meter("matching number", budget, g.n // 2)
    index = {edge: i for i, edge in enumerate(g.edges())}

    def value(free: int) -> tuple[int, int]:
        rows = tuple(row & free if free >> v & 1 else 0 for v, row in enumerate(g.adj))
        mate = _max_matching_mate(rows, g.n, meter)
        solution = sum(1 << index[v, w] for v, w in enumerate(mate) if w > v)
        return solution.bit_count(), solution

    return _matching_witness(g, value, meter)


def minimum_maximal_matching(g: Graph, budget: SolverBudget | None = None) -> tuple[tuple[int, int], ...]:
    """Lexicographically least minimum maximal matching of g.

    A maximal matching containing S is S plus one of G - V(S), so the value
    of a free set is q of the graph it induces; one memo serves every call.
    """
    meter = _Meter("min maximal matching", budget, g.n // 2)
    memo: dict = {}
    return _matching_witness(g, lambda free: (_min_maximal_size(g.adj, free, memo, meter), 0), meter)


def _mis_witness(neigh: list[int], meter: _Meter) -> list[int]:
    # vertices of neigh are the items; taking one drops its closed neighborhood
    own = [1 << v for v in range(len(neigh))]
    kill = [bit | row for bit, row in zip(own, neigh)]
    pool = (1 << len(neigh)) - 1
    return _least_optimum(own, kill, pool, lambda pool: (_mis_size(neigh, meter, pool), 0), meter)


def maximum_induced_matching(g: Graph, budget: SolverBudget | None = None) -> tuple[tuple[int, int], ...]:
    """Lexicographically least maximum induced matching of g."""
    edges, conflicts = _edge_conflicts(g)
    meter = _Meter("induced matching number", budget, len(conflicts))
    return tuple(edges[i] for i in _mis_witness(conflicts, meter))


def maximum_independent_set(g: Graph, budget: SolverBudget | None = None) -> int:
    """Vertex mask of the lexicographically least maximum independent set."""
    meter = _Meter("independence number", budget, g.n)
    return sum(1 << v for v in _mis_witness(list(g.adj), meter))
