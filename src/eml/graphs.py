"""Immutable simple graphs on at most 64 vertices, stored as adjacency bitsets.

Every graph value is frozen after construction, so all operations in this
package are pure functions and can be shipped between worker processes
without locking.  Vertex sets are plain Python ints used as bitmasks
(bit v set <=> vertex v in the set); edges are ordered pairs (u, v) with
u < v, and edge lists are always in lexicographic order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_VERTICES = 64


class InputError(ValueError):
    """A caller violated an operation's precondition."""


class CapacityError(InputError):
    """A construction would exceed the 64-vertex cap."""


class Graph6ParseError(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset

    def __reduce__(self):
        return type(self), (self.message, self.offset)


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """A labeled simple graph: vertex count plus one neighbor bitmask per vertex.

    ``labels`` optionally records construction-role names (such as "x3" or
    "z1") for pretty-printing; algorithms never consult it.
    """

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, adj: Iterable[int], labels: Iterable[str] | None = None):
        adj = tuple(adj)
        if not 0 <= n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if len(adj) != n:
            raise InputError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise InputError(f"adjacency row {v} mentions vertices >= {n}")
            if row >> v & 1:
                raise InputError(f"loop at vertex {v}")
        for v, row in enumerate(adj):
            for u in bits(row):
                if not adj[u] >> v & 1:
                    raise InputError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n or len(set(labels)) != n:
                raise InputError("labels must name each vertex exactly once")
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("Graph values are immutable")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Iterable[str] | None = None,
    ) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj, labels)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                out.append((u, v))
        return out

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def label_of(self, v: int) -> str:
        self._check_vertex(v)
        return self.labels[v] if self.labels is not None else str(v)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} outside 0..{self.n - 1}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def degree(g: Graph, v: int) -> int:
    """deg(v) = number of neighbors of v."""
    g._check_vertex(v)
    return g.adj[v].bit_count()


def neighborhood(g: Graph, v: int) -> int:
    """Open neighborhood of v as a bitmask."""
    g._check_vertex(v)
    return g.adj[v]


def closed_neighborhood(g: Graph, v: int) -> int:
    """Closed neighborhood N[v] = N(v) plus v itself, as a bitmask."""
    g._check_vertex(v)
    return g.adj[v] | (1 << v)


def is_independent(g: Graph, s: int) -> bool:
    """True iff no edge of g joins two vertices of the set ``s``.

    The empty set and singletons are independent.
    """
    if s & ~g.vertex_mask():
        raise InputError("set mentions vertices outside the graph")
    for v in bits(s):
        if g.adj[v] & s:
            return False
    return True


def _as_edge_tuple(matching) -> tuple[tuple[int, int], ...]:
    out = []
    for u, v in matching:
        if u > v:
            u, v = v, u
        out.append((u, v))
    return tuple(sorted(out))


def matched_mask(matching) -> int:
    """Bitmask of vertices covered by the given edge set."""
    mask = 0
    for u, v in matching:
        mask |= (1 << u) | (1 << v)
    return mask


def is_matching(g: Graph, matching) -> bool:
    """True iff every member is an edge of g and no two members share a vertex."""
    seen = 0
    for u, v in matching:
        if u == v or not (0 <= u < g.n and 0 <= v < g.n):
            return False
        if not g.adj[u] >> v & 1:
            return False
        e = (1 << u) | (1 << v)
        if seen & e:
            return False
        seen |= e
    return True


def is_maximal_matching(g: Graph, matching) -> bool:
    """True iff ``matching`` is a matching no edge of g can extend.

    Decided by the complement test: the uncovered vertices must form an
    independent set.  (That this agrees with "no extendable edge exists"
    is itself a tested property.)
    """
    if not is_matching(g, matching):
        raise InputError("is_maximal_matching requires a matching")
    uncovered = g.vertex_mask() & ~matched_mask(matching)
    return is_independent(g, uncovered)


def is_induced_matching(g: Graph, matching) -> bool:
    """True iff ``matching`` is a matching and no edge of g meets two of its edges."""
    if not is_matching(g, matching):
        raise InputError("is_induced_matching requires a matching")
    edges = _as_edge_tuple(matching)
    # Edge f conflicts with e = (u, v) iff f has an endpoint inside N[u] | N[v]
    # and the other endpoint in e... more directly: for distinct e, f the pair
    # is legal iff no endpoint of f is adjacent-or-equal to an endpoint of e.
    for i, (u, v) in enumerate(edges):
        reach = closed_neighborhood(g, u) | closed_neighborhood(g, v)
        for x, y in edges[i + 1 :]:
            if reach >> x & 1 or reach >> y & 1:
                return False
    return True


def induced_subgraph(g: Graph, w: int) -> Graph:
    """Subgraph on the vertex set ``w`` (bitmask), vertices renumbered in order."""
    if w & ~g.vertex_mask():
        raise InputError("set mentions vertices outside the graph")
    keep = list(bits(w))
    index = {v: i for i, v in enumerate(keep)}
    adj = []
    for v in keep:
        row = 0
        for u in bits(g.adj[v] & w):
            row |= 1 << index[u]
        adj.append(row)
    labels = None
    if g.labels is not None:
        labels = [g.labels[v] for v in keep]
    return Graph(len(keep), adj, labels)


def component_masks(adj, mask: int) -> list[int]:
    """Components of the subgraph of raw adjacency rows induced by ``mask``,
    ordered by smallest contained vertex."""
    out = []
    while mask:
        seed = mask & -mask
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            frontier = grow & mask & ~comp
            comp |= frontier
        out.append(comp)
        mask &= ~comp
    return out


def connected_components(g: Graph) -> list[int]:
    """Vertex sets of the components, ordered by smallest contained vertex."""
    return component_masks(g.adj, g.vertex_mask())


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and is_connected(g) and g.num_edges() == g.n - 1


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertex blocks keep the argument order."""
    n = sum(g.n for g in graphs)
    if n > MAX_VERTICES:
        raise CapacityError(f"union has {n} > {MAX_VERTICES} vertices")
    adj: list[int] = []
    offset = 0
    for g in graphs:
        adj.extend(row << offset for row in g.adj)
        offset += g.n
    labeled = all(g.labels is not None for g in graphs) and graphs
    labels = None
    if labeled:
        labels = []
        for i, g in enumerate(graphs):
            labels.extend(f"{name}.{i}" for name in g.labels)
    return Graph(n, adj, labels)


# ---------------------------------------------------------------------------
# graph6 codec (bit-exact): header byte n+63 for n <= 62, else '~' + 3 bytes;
# upper-triangle adjacency bits in column order x(0,1), x(0,2), x(1,2), ...,
# zero-padded to a multiple of 6; each 6-bit group + 63 is one printable byte.
# ---------------------------------------------------------------------------


def pack_graph6(n: int, bit_vector: int) -> str:
    """graph6 text of order n from its upper-triangle bits, x(0,1) most significant."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0))
    nbits = n * (n - 1) // 2
    pad = (-nbits) % 6
    bit_acc = bit_vector << pad
    nbits += pad
    body = []
    for shift in range(nbits - 6, -1, -6):
        body.append(chr(((bit_acc >> shift) & 0x3F) + 63))
    return head + "".join(body)


def emit_graph6(g: Graph) -> str:
    bit_acc = 0
    for v in range(1, g.n):
        for u in range(v):
            bit_acc = (bit_acc << 1) | (g.adj[u] >> v & 1)
    return pack_graph6(g.n, bit_acc)


def parse_graph6(text: str) -> Graph:
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    if not text:
        raise Graph6ParseError("empty graph6 text", 0)
    data = [ord(c) - 63 for c in text]
    for i, value in enumerate(data):
        if not 0 <= value <= 63:
            raise Graph6ParseError(f"byte {text[i]!r} outside graph6 alphabet", i)
    if data[0] < 63:
        n = data[0]
        pos = 1
    else:
        if len(data) < 4:
            raise Graph6ParseError("truncated extended-order header", len(text))
        if data[1] == 63:
            raise Graph6ParseError("order beyond supported range", 1)
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    if n > MAX_VERTICES:
        raise Graph6ParseError(f"order {n} exceeds the {MAX_VERTICES}-vertex cap", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6ParseError("truncated adjacency bit vector", len(text))
    if len(data) - pos > nbytes:
        raise Graph6ParseError("trailing bytes after adjacency bit vector", pos + nbytes)
    bit_acc = 0
    for value in data[pos:]:
        bit_acc = (bit_acc << 6) | value
    total = nbytes * 6
    adj = [0] * n
    index = 0
    for v in range(1, n):
        for u in range(v):
            if bit_acc >> (total - 1 - index) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            index += 1
    tail = bit_acc & ((1 << (total - nbits)) - 1) if total > nbits else 0
    if tail:
        raise Graph6ParseError("nonzero padding bits", len(text) - 1)
    return Graph(n, adj)
