"""Canonical forms for graphs up to isomorphism.

The canonical label order is found by equitable partition refinement plus
individualization with backtracking.  Among all label orders compatible
with the refinement process, the one whose upper-triangle adjacency bits
(read in graph6 column order, most significant bit first) are smallest is
chosen, so two graphs receive the same key exactly when they are
isomorphic, and the key doubles as the lexicographically least graph6
string over those orders.  Discovered automorphisms prune equivalent
branches, which keeps highly symmetric graphs (empty, complete,
complete bipartite) from exploding the search; they generate the whole
automorphism group, and ``automorphism_generators`` returns them.  Every
canonical order ends in the last cell of the root equitable partition,
which ``in_last_cell`` tests without labeling.

Worst-case cost is exponential, as for any exact isomorphism method; the
intended envelope is the package's search range (n <= 10, trees larger),
although any graph within the 64-vertex cap is accepted.
"""

from __future__ import annotations

from functools import lru_cache

from eml.graphs import Graph, bits, pack_graph6


def _refine(adj: tuple[int, ...], cells: list[list[int]], queue: list[int]) -> None:
    """Equitable refinement in place; splitter masks are consumed from queue."""
    while queue:
        splitter = queue.pop()
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) > 1:
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((adj[v] & splitter).bit_count(), []).append(v)
                if len(groups) > 1:
                    parts = [groups[key] for key in sorted(groups)]
                    cells[i : i + 1] = parts
                    for part in parts:
                        mask = 0
                        for v in part:
                            mask |= 1 << v
                        queue.append(mask)
                    i += len(parts) - 1
            i += 1


@lru_cache(maxsize=1)
def _root_cells(adj: tuple[int, ...], n: int) -> list[list[int]]:
    """The root equitable partition; callers must not modify it.

    The last graph's is kept: the enumerator labels a child right after
    testing it with ``in_last_cell``.
    """
    cells = [list(range(n))]
    _refine(adj, cells, [(1 << n) - 1])
    return cells


def _leading_bits(adj: tuple[int, ...], cells: list[list[int]]) -> tuple[int, int]:
    """Encoded upper-triangle bits of the leading singleton run, plus bit count."""
    enc = 0
    width = 0
    placed: list[int] = []
    for cell in cells:
        if len(cell) != 1:
            break
        v = cell[0]
        row = 0
        for u in placed:
            row = row << 1 | (adj[v] >> u & 1)
        enc = enc << len(placed) | row
        width += len(placed)
        placed.append(v)
    return enc, width


class _Search:
    __slots__ = ("adj", "n", "total", "best_enc", "best_order", "gens")

    def __init__(self, adj: tuple[int, ...], n: int):
        self.adj = adj
        self.n = n
        self.total = n * (n - 1) // 2
        self.best_enc: int | None = None
        self.best_order: list[int] | None = None
        self.gens: list[list[int]] = []

    def run(self) -> tuple[int, list[int]]:
        self.descend(_root_cells(self.adj, self.n), [])
        assert self.best_order is not None
        return self.best_enc, self.best_order

    def descend(self, cells: list[list[int]], path: list[int]) -> None:
        enc, width = _leading_bits(self.adj, cells)
        if self.best_enc is not None:
            best_prefix = self.best_enc >> (self.total - width)
            if enc > best_prefix:
                return
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [cell[0] for cell in cells]
            if self.best_enc is None or enc < self.best_enc:
                self.best_enc = enc
                self.best_order = order
            elif enc == self.best_enc:
                # equal certificates expose an automorphism: the map sending
                # the incumbent's vertex at each position to this leaf's
                auto = [0] * self.n
                for pos in range(self.n):
                    auto[self.best_order[pos]] = order[pos]
                self.gens.append(auto)
            return
        tried: list[int] = []
        for v in cells[target]:
            if tried and self._in_earlier_orbit(v, tried, path):
                continue
            tried.append(v)
            branched = [list(c) for c in cells]
            rest = [u for u in branched[target] if u != v]
            branched[target : target + 1] = [[v], rest]
            _refine(self.adj, branched, [1 << v])
            self.descend(branched, path + [v])

    def _in_earlier_orbit(self, v: int, tried: list[int], path: list[int]) -> bool:
        """Is v mapped to an already-tried vertex by automorphisms fixing path?"""
        fixed = [g for g in self.gens if all(g[u] == u for u in path)]
        if not fixed:
            return False
        root = list(range(self.n))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for g in fixed:
            for x in range(self.n):
                rx, ry = find(x), find(g[x])
                if rx != ry:
                    root[rx] = ry
        mark = find(v)
        return any(find(u) == mark for u in tried)


def key_and_order(adj: tuple[int, ...], n: int) -> tuple[int, list[int]]:
    """Canonical encoding int plus an achieving order, for raw adjacency rows.

    The encoding packs the canonically relabeled upper-triangle bits in
    graph6 column order, most significant first, so for fixed n it compares
    exactly like the canonical graph6 string.  The last entry of the order
    is well defined up to automorphism, which the augmentation-based
    enumerator relies on.
    """
    if n <= 1:
        return 0, list(range(n))
    return _Search(adj, n).run()


def automorphism_generators(adj: tuple[int, ...], n: int) -> list[list[int]]:
    """Generators of the automorphism group, each a map vertex -> image.

    These are the automorphisms the canonical search records when a leaf
    ties the incumbent.  A branch is pruned only when its prefix exceeds
    the incumbent's or when a recorded automorphism fixing the path maps it
    onto a tried branch, so every minimum leaf is the image of a visited
    one under the recorded maps; as the minimum leaves form one regular
    orbit of the group, the recorded maps generate all of it.
    """
    if n <= 1:
        return []
    search = _Search(adj, n)
    search.run()
    return search.gens


def in_last_cell(adj: tuple[int, ...], n: int, v: int) -> bool:
    """Whether v lies in the last cell of the root equitable partition.

    Refinement and individualization keep each cell's slot, so every
    canonical order (``key_and_order``) ends with a vertex of that cell.
    """
    return v in _root_cells(adj, n)[-1]


def canonical_order(g: Graph) -> list[int]:
    """A label order achieving the canonical form: position -> original vertex."""
    return key_and_order(g.adj, g.n)[1]


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of g (labels dropped)."""
    order = canonical_order(g)
    position = [0] * g.n
    for pos, v in enumerate(order):
        position[v] = pos
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in bits(g.adj[v]):
            row |= 1 << position[u]
        adj[position[v]] = row
    return Graph(g.n, adj)


def canonical_form(g: Graph) -> str:
    """Label-invariant key: equal for two graphs exactly when isomorphic."""
    return pack_graph6(g.n, key_and_order(g.adj, g.n)[0])
