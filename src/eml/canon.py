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

An ordered partition is a list of cells, each a vertex mask, as in the
bit-vector partitions of nauty and Traces (McKay and Piperno, "Practical
graph isomorphism, II", J. Symbolic Comput. 60 (2014)).  Refinement
replaces a cell by its parts in ascending neighbour count, and
individualization puts the chosen vertex's singleton just before the rest
of its cell.  A vertex list split that way from the root cell 0..n-1 stays
in ascending order, the order a mask lists its vertices, so the search
tries the same vertices in the same order with either representation.
Keys, orders and generators are therefore those of the vertex-list kernel
that the tests keep as a reference; the tests also freeze a hash of the
keys of all 1,044 graphs of order 7.

Worst-case cost is exponential, as for any exact isomorphism method; the
intended envelope is the package's search range (n <= 10, trees larger),
although any graph within the 64-vertex cap is accepted.
"""

from __future__ import annotations

from eml.graphs import Graph, bits, pack_graph6


def _refine(
    adj: tuple[int, ...], cells: list[int], queue: list[int], keep: int = -1
) -> list[int] | None:
    """The equitable refinement of cells; splitter masks are consumed from queue.

    Each popped splitter splits every cell by the number of neighbours its
    vertices have in the splitter, into parts of ascending count, each part
    pushed as a new splitter in that order.  A singleton splitter {u} (every
    individualization starts with one) splits a cell C into C & ~adj[u] and
    C & adj[u].  A larger one first adds up adj[w] over its vertices w into
    bit-sliced counter planes, plane j holding bit j of every vertex's count,
    and each cell splits on the planes from the most significant down, so
    its parts come out in ascending count.  Once every cell is a singleton
    nothing can split, and the splitters left in the queue are dropped.

    Cells are only ever split in place, so a vertex that leaves the last
    cell never returns to it: the refinement stops, returning None, after
    the first pass whose last cell misses the mask keep.
    """
    n = len(adj)
    while queue and len(cells) < n:
        splitter = queue.pop()
        out: list[int] = []
        if not splitter & (splitter - 1):
            row = adj[splitter.bit_length() - 1]
            for cell in cells:
                hi = cell & row
                if hi and hi != cell:
                    lo = cell ^ hi
                    out += (lo, hi)
                    queue += (lo, hi)
                else:
                    out.append(cell)
        else:
            planes: list[int] = []
            while splitter:
                low = splitter & -splitter
                splitter ^= low
                carry = adj[low.bit_length() - 1]
                for j, plane in enumerate(planes):
                    planes[j] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    if carry:
                        planes.append(carry)
            planes.reverse()
            for cell in cells:
                for plane in planes:
                    hi = cell & plane
                    if hi and hi != cell:
                        break
                else:
                    out.append(cell)
                    continue
                parts = [cell]
                for plane in planes:
                    split = []
                    for part in parts:
                        hi = part & plane
                        if hi and hi != part:
                            split += (part ^ hi, hi)
                        else:
                            split.append(part)
                    parts = split
                out += parts
                queue += parts
        if not out[-1] & keep:
            return None
        cells = out
    return cells


_last_root: list = [None, 0, ()]  # adj, n and root cells of the last full refinement


def _root_cells(adj: tuple[int, ...], n: int, keep: int = -1) -> tuple[int, ...] | None:
    """The root equitable partition, refined from all of V by splitter V, or
    None once its last cell misses the mask keep.

    The last completed partition is kept: the enumerator labels a child
    right after testing it with ``in_last_cell``.  A refinement stopped
    early is not.
    """
    if _last_root[1] == n and _last_root[0] == adj:
        return _last_root[2]
    everything = (1 << n) - 1
    cells = _refine(adj, [everything], [everything], keep)
    if cells is None:
        return None
    _last_root[:] = adj, n, tuple(cells)
    return _last_root[2]


class _Search:
    __slots__ = ("adj", "n", "total", "best_enc", "best_order", "gens", "fixes")

    def __init__(self, adj: tuple[int, ...], n: int):
        self.adj = adj
        self.n = n
        self.total = n * (n - 1) // 2
        self.best_enc: int | None = None
        self.best_order: list[int] | None = None
        self.gens: list[list[int]] = []
        self.fixes: list[int] = []  # the fixed-point mask of each generator

    def run(self) -> tuple[int, list[int]]:
        self.descend(list(_root_cells(self.adj, self.n)), 0, 0, 0, 0)
        assert self.best_order is not None
        return self.best_enc, self.best_order

    def descend(self, cells: list[int], path: int, enc: int, width: int, run: int) -> None:
        """Search below cells; path masks the individualized vertices, and
        enc holds the width upper-triangle bits of the first run cells, which
        are singletons (refinement never splits or moves those again)."""
        adj = self.adj
        size = len(cells)
        while run < size:
            cell = cells[run]
            if cell & (cell - 1):
                break
            nbrs = adj[cell.bit_length() - 1]
            row = 0
            for i in range(run):
                row = row << 1 | (nbrs & cells[i] != 0)
            enc = enc << run | row
            width += run
            run += 1
        if self.best_enc is not None and enc > self.best_enc >> (self.total - width):
            return
        if run == size:
            order = [cell.bit_length() - 1 for cell in cells]
            if self.best_enc is None or enc < self.best_enc:
                self.best_enc = enc
                self.best_order = order
            elif enc == self.best_enc:
                # equal certificates expose an automorphism: the map sending
                # the incumbent's vertex at each position to this leaf's
                auto = [0] * self.n
                fixed = 0
                for u, v in zip(self.best_order, order):
                    auto[u] = v
                    if u == v:
                        fixed |= 1 << u
                self.gens.append(auto)
                self.fixes.append(fixed)
            return
        target = cells[run]
        rest = target
        tried = 0
        built = -1
        orbit = None
        while rest:
            low = rest & -rest
            rest ^= low
            if tried:
                if built != len(self.gens):
                    built = len(self.gens)
                    orbit = self._orbits(path)
                if orbit is not None and orbit[low.bit_length() - 1] & tried:
                    continue
            tried |= low
            branched = cells.copy()
            branched[run : run + 1] = (low, target ^ low)
            self.descend(_refine(adj, branched, [low]), path | low, enc, width, run)

    def _orbits(self, path: int) -> list[int] | None:
        """Orbit masks, per vertex, of the recorded generators fixing path;
        None when none fixes it."""
        orbit = None
        for g, fixed in zip(self.gens, self.fixes):
            if path & ~fixed:
                continue
            if orbit is None:
                orbit = [1 << x for x in range(self.n)]
            moved = ((1 << self.n) - 1) & ~fixed
            while moved:
                low = moved & -moved
                moved ^= low
                x = low.bit_length() - 1
                a, b = orbit[x], orbit[g[x]]
                if a != b:
                    merged = rest = a | b
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        orbit[low.bit_length() - 1] = merged
        return orbit


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
    The refinement stops as soon as a split leaves v outside the last cell.
    """
    cells = _root_cells(adj, n, 1 << v)
    return cells is not None and bool(cells[-1] >> v & 1)


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
