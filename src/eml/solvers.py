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


def _augment_from(
    adj: tuple[int, ...], mate: list[int], root: int, live: int, meter: _Meter | None
) -> int:
    """Grow an alternating tree from the free vertex root inside the vertex
    mask live.  If an augmenting path turns up it is flipped into mate and 0
    is returned; otherwise mate is untouched and the mask of the tree's even
    vertices (root, the mates of odd ones, and everything in a blossom) is
    returned: the vertices an even alternating path from root reaches.
    """
    n = len(mate)
    parent = [-1] * n
    base = list(range(n))
    even = 1 << root
    queue = [root]

    def lowest_common_ancestor(a: int, b: int) -> int:
        seen = 0
        while True:
            a = base[a]
            seen |= 1 << a
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen >> b & 1:
                return b
            b = parent[mate[b]]

    def mark_blossom(v: int, ancestor: int, child: int, blossom: list[bool]) -> None:
        while base[v] != ancestor:
            blossom[base[v]] = True
            blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        if meter is not None:
            meter.tick()
        # inline bit loops rather than graphs.bits(), lowest bit first
        scan = adj[v] & live
        while scan:
            low = scan & -scan
            scan ^= low
            w = low.bit_length() - 1
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                # odd cycle: contract the blossom
                ancestor = lowest_common_ancestor(v, w)
                blossom = [False] * n
                mark_blossom(v, ancestor, w, blossom)
                mark_blossom(w, ancestor, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = ancestor
                        if not even >> i & 1:
                            even |= 1 << i
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
                    return 0
                if not even >> mate[w] & 1:
                    even |= 1 << mate[w]
                    queue.append(mate[w])
    return even


def _max_matching_mate(adj: tuple[int, ...], n: int, meter: _Meter | None = None) -> list[int]:
    """mate[v] = partner of v in a maximum matching, or -1."""
    mate = [-1] * n
    for u in range(n):
        if mate[u] < 0:
            scan = adj[u]
            while scan:
                low = scan & -scan
                v = low.bit_length() - 1
                if mate[v] < 0:
                    mate[u] = v
                    mate[v] = u
                    break
                scan ^= low
    everything = (1 << n) - 1
    for u in range(n):
        if mate[u] < 0:
            _augment_from(adj, mate, u, everything, meter)
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
# vertices.  Disjoint components of the free part are solved independently
# and summed; a component of 2 or 3 vertices is an edge or a path and has
# q = 1, so ``_min_maximal_component`` only sees connected sets of at least
# 4 vertices.  For any edge uv of the component, every maximal matching
# covers u or v (else uv could be added), so the edges at u together with
# the edges at v are a complete branch set.
#
# Lemma: q(G - w) <= q(G) for every vertex w.  Take a minimum maximal
# matching M of G.  If M misses w, M is maximal in G - w.  If M matches w to
# y, M - wy leaves only y newly free; add one edge yz to a free z if there
# is one, and the result is maximal in G - w with at most |M| edges.
#
# Pendant rule.  If x has degree 1 with neighbour v, every maximal matching
# covers v, so v's edges are a complete branch set.  Among them an edge vx'
# to a pendant x' is never better than an edge vw to a non-pendant w:
# q(F - v - x') = q(F - v) >= q(F - v - w) by the lemma, as x' is isolated
# in F - v.  So only v's edges to non-pendants are branched on, and when v
# has none the component is a star with q = 1.  The pendant whose neighbour
# has the fewest such edges is taken; one such edge is a forced move.
# Without a pendant, the branch edge uv keeps the branch set small: u of
# least degree in the component, then v of least degree among u's
# neighbours, lowest index on ties.
# ---------------------------------------------------------------------------


def _min_maximal_size(adj: tuple[int, ...], free: int, memo: dict, meter: _Meter | None) -> int:
    total = 0
    remaining = free
    while remaining:
        # inline BFS and bit loops rather than graphs.component_masks and
        # bits(): this and _min_maximal_component are the hottest loops of q
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & remaining & ~comp
            comp |= frontier
        remaining &= ~comp
        if comp.bit_count() > 3:
            total += _min_maximal_component(adj, comp, memo, meter)
        elif comp != seed:  # singletons need no edges
            total += 1
    return total


def _min_maximal_component(adj: tuple[int, ...], free: int, memo: dict, meter: _Meter | None) -> int:
    cached = memo.get(free)
    if cached is not None:
        return cached
    if meter is not None:
        meter.tick()
    best = free.bit_count()  # exceeds every degree and every maximal matching
    pendants = 0
    u, du = -1, best
    scan = free
    while scan:
        low = scan & -scan
        x = low.bit_length() - 1
        d = (adj[x] & free).bit_count()
        if d == 1:
            pendants |= low
        elif d < du:
            u, du = x, d
        scan ^= low
    if pendants:
        branch, count = 0, best
        scan = pendants
        while scan:
            low = scan & -scan
            hub = adj[low.bit_length() - 1] & free
            out = adj[hub.bit_length() - 1] & free & ~pendants
            if out.bit_count() < count:
                v, branch, count = hub.bit_length() - 1, out, out.bit_count()
                if count <= 1:
                    break
            scan ^= low
        if not branch:  # v's neighbours are all pendants: a star
            memo[free] = 1
            return 1
        branches = ((v, branch),)
    else:
        un = adj[u] & free
        v, dv = -1, best
        scan = un
        while scan:
            low = scan & -scan
            x = low.bit_length() - 1
            d = (adj[x] & free).bit_count()
            if d < dv:
                v, dv = x, d
            scan ^= low
        branches = ((u, un), (v, adj[v] & free & ~(1 << u)))
    for end, scan in branches:
        rest = free ^ (1 << end)
        while scan:
            low = scan & -scan
            sub = 1 + _min_maximal_size(adj, rest ^ low, memo, meter)
            if sub < best:
                best = sub
            scan ^= low
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
        while pool:
            low = pool & -pool
            row = neigh[low.bit_length() - 1]
            for i, c in enumerate(cliques):
                if c & ~row == 0:
                    cliques[i] = c | low
                    break
            else:
                cliques.append(low)
            pool ^= low
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
        # domination: if v and w are adjacent and N[v] & pool lies inside
        # N[w], swapping w for v keeps an independent set independent, so w
        # leaves the pool.  An isolated v is the degree-0 case: it is taken.
        scan = pool
        while scan:
            low = scan & -scan
            scan ^= low
            if not pool & low:  # left the pool earlier in this pass
                continue
            near = neigh[low.bit_length() - 1] & pool
            if not near:
                size += 1
                pool ^= low
                if size > best:
                    best = size
                    if meter is not None and best > (meter.lower or 0):
                        meter.lower = best
                continue
            rest = near
            while rest:
                w = rest & -rest
                rest ^= w
                if (near ^ w) & ~neigh[w.bit_length() - 1] == 0:
                    near ^= w
                    pool ^= w
        if not pool:
            return
        # branch on a vertex of maximum pool-degree, taking it first
        v_best, deg_best = -1, -1
        scan = pool
        while scan:
            low = scan & -scan
            v = low.bit_length() - 1
            d = (neigh[v] & pool).bit_count()
            if d > deg_best:
                v_best, deg_best = v, d
            scan ^= low
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


def check_chain(n: int, p: int, q: int, r: int) -> None:
    """Raise SolverFault unless 1 <= p <= q <= r <= 2q and 2r <= n, as holds
    for every graph of order n with an edge."""
    if not (1 <= p <= q <= r <= 2 * q) or 2 * r > n:
        raise SolverFault(f"invariant chain violated: p={p} q={q} r={r} n={n}")


def checked_triple(g: Graph, p: int, q: int, r: int) -> InvariantTriple:
    """(p, q, r) of g once g has an edge and the values pass the chain check."""
    if g.num_edges() == 0:
        raise InputError("invariant triple needs at least one edge")
    check_chain(g.n, p, q, r)
    return InvariantTriple(p, q, r)


def invariant_triple(g: Graph, budget: SolverBudget | None = None) -> InvariantTriple:
    """(p, q, r) for a graph with at least one edge, chain-checked."""
    r = matching_number(g, budget)
    q = min_maximal_matching_number(g, budget)
    p = induced_matching_number(g, budget)
    return checked_triple(g, p, q, r)


# ---------------------------------------------------------------------------
# One vertex more.  Each of p, q and r of a graph G is its value on G - v or
# that value + 1, for any vertex v, so the triple of a child G = P + v of
# canonical augmentation is three yes/no questions about the parent P and
# the new vertex's neighbourhood S.  The parent is solved and summarised
# once; every child is then decided from the summary.
#
# r needs the Gallai-Edmonds set D(P) of vertices some maximum matching
# misses (Lovasz and Plummer, Matching Theory, 1986).  Given one maximum
# matching M, s is in D(P) iff an even M-alternating path joins a free
# vertex to s (flip it to free s), so D(P) is the union of the even
# vertices of one failed alternating search from each free vertex.
#
# q needs the vertex sets of P's minimum maximal matchings: the sets C of
# 2q(P) vertices that meet every edge (the uncovered vertices are
# independent) and have a perfect matching.  A depth-first walk decides the
# vertices in index order, each into C first and then out of it.  A vertex
# left out forces all its neighbours in, so a forced vertex stays in.  The
# walk prunes once more vertices are forced in than C has room for, and
# runs a blossom solve only at its leaves, the vertex covers of exactly
# 2q(P) vertices.
# ---------------------------------------------------------------------------


class AugmentationParent(NamedTuple):
    """What deciding a child P + v needs to know about the parent P."""

    triple: tuple[int, int, int]  # (p, q, r) of P; (0, 0, 0) when P is edgeless
    dmask: int  # vertices some maximum matching misses: r(P - s) = r(P)
    drop: int  # vertices s with q(P - s) = q(P) - 1
    covers: tuple[int, ...]  # vertex sets of the minimum maximal matchings
    conflicts: list[int]  # edge-conflict rows of P, as in _edge_conflicts
    edges: int  # mask of all of P's edges
    incident: tuple[int, ...]  # per vertex, the mask of P's edges at it
    near: tuple[int, ...]  # per vertex s, the mask of P's edges meeting N(s)


def _matched_covers(adj: tuple[int, ...], size: int, meter: _Meter) -> list[int]:
    """Masks of the vertex covers of the given size that have a perfect
    matching, in lexicographic order of their vertex lists."""
    n = len(adj)
    covers = []

    def walk(v: int, cover: int, forced: int, room: int) -> None:
        # cover holds the vertices below v taken, forced the neighbours of
        # those left out, and room the places left in the cover
        if (forced >> v).bit_count() > room:
            return
        if v == n:
            rows = tuple(row & cover if cover >> u & 1 else 0 for u, row in enumerate(adj))
            if sum(w >= 0 for w in _max_matching_mate(rows, n, meter)) == size:
                covers.append(cover)
            return
        if room:
            walk(v + 1, cover | 1 << v, forced, room - 1)
        if room < n - v and not forced >> v & 1:
            walk(v + 1, cover, forced | adj[v], room)

    walk(0, 0, 0, size)
    return covers


def augmentation_parent(
    g: Graph, triple: tuple[int, int, int], budget: SolverBudget | None = None
) -> AugmentationParent:
    """Summary of a parent g whose (p, q, r) is already known."""
    _, q, _ = triple
    n, adj = g.n, g.adj
    full = g.vertex_mask()
    meter = _Meter("matching number", budget, n // 2)
    mate = _max_matching_mate(adj, n, meter)
    dmask = 0
    for s in range(n):
        if mate[s] < 0:
            even = _augment_from(adj, mate, s, full, meter)
            if not even:
                raise SolverFault("augmenting path found after a maximum matching")
            dmask |= even
    meter = _Meter("min maximal matching", budget, n // 2)
    memo: dict = {}
    drop = 0
    for s in range(n):
        if 1 + _min_maximal_size(adj, full ^ (1 << s), memo, meter) == q:
            drop |= 1 << s
    covers = _matched_covers(adj, 2 * q, meter)
    edge_list, conflicts = _edge_conflicts(g)
    incident = [0] * n
    for i, (u, v) in enumerate(edge_list):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    near = []
    for row in adj:
        mask = 0
        while row:
            low = row & -row
            mask |= incident[low.bit_length() - 1]
            row ^= low
        near.append(mask)
    return AugmentationParent(
        tuple(triple), dmask, drop, tuple(covers), conflicts,
        (1 << len(edge_list)) - 1, tuple(incident), tuple(near),
    )


def augmented_triple(
    parent: AugmentationParent, s_mask: int, budget: SolverBudget | None = None
) -> tuple[int, int, int]:
    """(p, q, r) of the parent plus a vertex v joined to the vertex set S,
    given as the mask s_mask."""
    p, q, r = parent.triple
    # r rises iff an augmenting path starts at v, that is iff some maximum
    # matching of P misses a neighbour of v.
    r += bool(s_mask & parent.dmask)
    # q(P) <= q(G): a minimum maximal matching M of G not covering v is
    # maximal in P; if M matches v to s, drop vs and add one edge s-x where
    # x is uncovered (the uncovered vertices are independent), which gives a
    # maximal matching of P no larger than M.  q(G) <= q(P) + 1: add one
    # edge at v to a minimum maximal matching of P, if v is still free.
    # So q(G) = q(P) iff a minimum maximal matching of P covers S (v stays
    # free), or some s in S has q(P - s) = q(P) - 1 (v is matched to s).
    if not s_mask & parent.drop and all(s_mask & ~cover for cover in parent.covers):
        q += 1
    # p rises iff some edge vs extends an induced matching of size p(P)
    # inside P - S - N(s); the conflicts of that induced subgraph are P's
    # restricted to its edges, as an edge meeting two of them lies inside it.
    incident, near = parent.incident, parent.near
    live = parent.edges
    scan = s_mask
    while scan:
        low = scan & -scan
        live &= ~incident[low.bit_length() - 1]
        scan ^= low
    meter = _Meter("induced matching number", budget, p + 1)
    meter.lower = p
    scan = s_mask
    while scan:
        low = scan & -scan
        pool = live & ~near[low.bit_length() - 1]
        if pool.bit_count() >= p and _mis_size(parent.conflicts, meter, pool) >= p:
            return p + 1, q, r
        scan ^= low
    return p, q, r


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
# Optimal witnesses.  Each walks its items in a fixed order and takes an item
# iff some optimum of what is left contains it, so each is the
# lexicographically least optimum under that order and reruns agree
# byte-for-byte.  The matching witness decides an edge by alternating search
# against one maximum matching; the other three by a greedy self-reduction
# over the solver that computes their value.  One meter per call covers the
# value solve and every reduction step.
# ---------------------------------------------------------------------------


def _least_optimum(own: list[int], kill: list[int], pool: int, value, meter: _Meter) -> list[int]:
    """Indices of the least items, in order, that form an optimum of ``pool``.

    ``value(pool)`` returns the optimum of the pool.  Item i is available
    while ``own[i]`` lies inside ``pool``, and taken when
    ``1 + value(pool & ~kill[i])`` is the optimum still needed, as the rest
    of a solution containing it stays optimal for the shrunk pool.  A
    rejected item stays in the pool: no optimum left can use it, or it
    would have been taken.
    """
    need = value(pool)
    meter.lower = meter.upper = need  # proved; the steps below only pick items
    chosen = []
    for i, mask in enumerate(own):
        if need == 0:
            break
        if mask & ~pool:
            continue
        shrunk = pool & ~kill[i]
        if 1 + value(shrunk) != need:
            continue
        chosen.append(i)
        pool = shrunk
        need -= 1
    if need:
        raise SolverFault("witness reconstruction failed")
    return chosen


def maximum_matching(g: Graph, budget: SolverBudget | None = None) -> tuple[tuple[int, int], ...]:
    """Lexicographically least maximum matching of g.

    The edges are walked in order, keeping a maximum matching M of the
    vertices still free, and uv is taken iff some maximum matching of them
    contains it.  It does if uv is in M or one end is free in M.  Otherwise
    M's edges ua and vb are dropped, and the rest of M is one edge short of
    a maximum matching of the free vertices other than u and v iff an
    augmenting path exists, which must end at a or b: one avoiding both
    would already augment M.  So two alternating searches decide the edge.
    """
    meter = _Meter("matching number", budget, g.n // 2)
    adj = g.adj
    mate = _max_matching_mate(adj, g.n, meter)
    need = sum(w >= 0 for w in mate) // 2
    meter.lower = meter.upper = need  # proved; the steps below only pick edges
    pool = g.vertex_mask()
    chosen = []
    for u, v in g.edges():
        if not need:
            break
        ends = (1 << u) | (1 << v)
        if ends & ~pool:
            continue
        a, b = mate[u], mate[v]
        if a >= 0 and b >= 0 and a != v:
            mate[u] = mate[v] = mate[a] = mate[b] = -1
            live = pool ^ ends
            # a search that finds a path flips it into mate
            if _augment_from(adj, mate, a, live, meter) and _augment_from(adj, mate, b, live, meter):
                mate[u], mate[a], mate[v], mate[b] = a, u, b, v
                continue
        else:  # uv is in M, or one end is free: drop M's edge at the other
            for x in (a, b, u, v):
                if x >= 0:
                    mate[x] = -1
        chosen.append((u, v))
        pool ^= ends
        need -= 1
    if need:
        raise SolverFault("witness reconstruction failed")
    return tuple(chosen)


def minimum_maximal_matching(g: Graph, budget: SolverBudget | None = None) -> tuple[tuple[int, int], ...]:
    """Lexicographically least minimum maximal matching of g.

    A maximal matching containing S is S plus one of G - V(S), so the value
    of a free set is q of the graph it induces; one memo serves every call.
    """
    meter = _Meter("min maximal matching", budget, g.n // 2)
    memo: dict = {}
    # edges are the items; the pool is the set of vertices still free
    edges = g.edges()
    ends = [(1 << u) | (1 << v) for u, v in edges]

    def value(free: int) -> int:
        return _min_maximal_size(g.adj, free, memo, meter)

    return tuple(edges[i] for i in _least_optimum(ends, ends, g.vertex_mask(), value, meter))


def _mis_witness(neigh: list[int], meter: _Meter) -> list[int]:
    # vertices of neigh are the items; taking one drops its closed neighborhood
    own = [1 << v for v in range(len(neigh))]
    kill = [bit | row for bit, row in zip(own, neigh)]
    pool = (1 << len(neigh)) - 1
    return _least_optimum(own, kill, pool, lambda pool: _mis_size(neigh, meter, pool), meter)


def maximum_induced_matching(g: Graph, budget: SolverBudget | None = None) -> tuple[tuple[int, int], ...]:
    """Lexicographically least maximum induced matching of g."""
    edges, conflicts = _edge_conflicts(g)
    meter = _Meter("induced matching number", budget, len(conflicts))
    return tuple(edges[i] for i in _mis_witness(conflicts, meter))


def maximum_independent_set(g: Graph, budget: SolverBudget | None = None) -> int:
    """Vertex mask of the lexicographically least maximum independent set."""
    meter = _Meter("independence number", budget, g.n)
    return sum(1 << v for v in _mis_witness(list(g.adj), meter))
