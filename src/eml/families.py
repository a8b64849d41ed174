"""Named graph families and the closed-form edge-count bound formulas.

Each generator numbers its vertices family by family (X block first, then
Y, then Z, then U/V/W) and records role names like "x3" or "z1" in the
graph's labels, so figures, witnesses, and error messages stay legible.
All generators validate their parameter ranges and the 64-vertex cap.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from eml.graphs import Graph, InputError


def _names(prefix: str, k: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(k)]


def complete(n: int) -> Graph:
    """The complete graph on n vertices."""
    if n < 1:
        raise InputError(f"complete graph needs n >= 1, got {n}")
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


def complete_bipartite(m: int, n: int) -> Graph:
    """The complete bipartite graph with sides x1..xm and y1..yn."""
    if m < 1 or n < 1:
        raise InputError(f"complete bipartite graph needs m, n >= 1, got ({m}, {n})")
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    return Graph.from_edges(m + n, edges, _names("x", m) + _names("y", n))


def cycle(n: int) -> Graph:
    """The cycle on n >= 3 vertices."""
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def whisker(g: Graph) -> Graph:
    """Attach one new pendant vertex to every vertex of g."""
    n = g.n
    if n < 1:
        raise InputError("whisker needs a non-empty graph")
    adj = [row for row in g.adj] + [0] * n
    for v in range(n):
        adj[v] |= 1 << (n + v)
        adj[n + v] = 1 << v
    taken = {g.label_of(v) for v in range(n)}
    pendants = []
    for name in _names("w", n):
        while name in taken:
            name += "'"
        taken.add(name)
        pendants.append(name)
    return Graph(2 * n, adj, [g.label_of(v) for v in range(n)] + pendants)


def g_r(r: int) -> Graph:
    """Clique x1..xr with a pendant yk on each xk; C(r+1, 2) edges."""
    if r < 2:
        raise InputError(f"g_r needs r >= 2, got {r}")
    edges = [(i, j) for i in range(r) for j in range(i + 1, r)]
    edges += [(k, r + k) for k in range(r)]
    return Graph.from_edges(2 * r, edges, _names("x", r) + _names("y", r))


def g1(q: int) -> Graph:
    """Pendant paths x_i-y_i feeding z2 on the path z1-z2-z3-z4; 2q+1 edges."""
    if q < 2:
        raise InputError(f"g1 needs q >= 2, got {q}")
    k = q - 1  # size of the X and Y blocks
    z = 2 * k  # first Z index
    edges = [(i, k + i) for i in range(k)]
    edges += [(k + i, z + 1) for i in range(k)]
    edges += [(z + i, z + i + 1) for i in range(3)]
    labels = _names("x", k) + _names("y", k) + _names("z", 4)
    return Graph.from_edges(2 * k + 4, edges, labels)


def g2(q: int, r: int) -> Graph:
    """The tree on 2r vertices with invariant triple (q, q, r).

    Pendant paths x_i-y_i feed z2 on the path z1..z_{2r-2q+2}; extra pendant
    paths u_i-v_i feed every second chain vertex from z7 on.  The U and V
    blocks are empty when r = q + 2.
    """
    if q < 2 or not q + 2 <= r <= 2 * q:
        raise InputError(f"g2 needs q >= 2 and q+2 <= r <= 2q, got ({q}, {r})")
    a = 2 * q - r + 1  # size of the X and Y blocks
    c = 2 * r - 2 * q + 2  # size of the Z chain
    d = r - q - 2  # size of the U and V blocks
    zs = 2 * a
    us = zs + c
    vs = us + d
    edges = [(i, a + i) for i in range(a)]
    edges += [(a + i, zs + 1) for i in range(a)]
    edges += [(zs + i, zs + i + 1) for i in range(c - 1)]
    edges += [(us + i, vs + i) for i in range(d)]
    edges += [(vs + i, zs + 2 * i + 6) for i in range(d)]  # v_i meets z_{2i+5}
    labels = (
        _names("x", a) + _names("y", a) + _names("z", c) + _names("u", d) + _names("v", d)
    )
    return Graph.from_edges(2 * r, edges, labels)


def g3(r: int) -> Graph:
    """Spider with r legs x_i-y_i-z; 2r edges and triple (r, r, r)."""
    if r < 2:
        raise InputError(f"g3 needs r >= 2, got {r}")
    edges = [(i, r + i) for i in range(r)]
    edges += [(r + i, 2 * r) for i in range(r)]
    return Graph.from_edges(2 * r + 1, edges, _names("x", r) + _names("y", r) + ["z"])


def g4(q: int) -> Graph:
    """K_{q,q} plus pendants z1 on x_q and z2 on y_q; q^2 + 2 edges."""
    if q < 2:
        raise InputError(f"g4 needs q >= 2, got {q}")
    edges = [(i, q + j) for i in range(q) for j in range(q)]
    edges += [(q - 1, 2 * q), (2 * q - 1, 2 * q + 1)]
    labels = _names("x", q) + _names("y", q) + _names("z", 2)
    return Graph.from_edges(2 * q + 2, edges, labels)


def g5(q: int, r: int) -> Graph:
    """The f1-extremal graph with triple (1, q, r).

    K_{q-1,q-1} on X and Y; a clique z1..z_{r-q+1} carrying one pendant w_i
    per z_i; every x joined to z_{r-q} and z_{r-q+1}, every y joined to
    z_1..z_{r-q-1}.
    """
    if not (q + 2 <= r <= 2 * q - 2):
        raise InputError(f"g5 needs q+2 <= r <= 2q-2, got ({q}, {r})")
    k = q - 1  # size of the X and Y blocks
    c = r - q + 1  # size of the Z clique / W pendant row
    zs = 2 * k
    ws = zs + c
    edges = [(i, k + j) for i in range(k) for j in range(k)]
    edges += [(i, zs + c - 2) for i in range(k)]
    edges += [(i, zs + c - 1) for i in range(k)]
    edges += [(k + i, zs + j) for i in range(k) for j in range(c - 2)]
    edges += [(zs + i, zs + j) for i in range(c) for j in range(i + 1, c)]
    edges += [(zs + i, ws + i) for i in range(c)]
    labels = _names("x", k) + _names("y", k) + _names("z", c) + _names("w", c)
    return Graph.from_edges(2 * k + 2 * c, edges, labels)


def _check_f_range(q: int, r: int, what: str) -> None:
    if not (q + 2 <= r <= 2 * q - 2):
        raise InputError(f"{what} needs q+2 <= r <= 2q-2, got ({q}, {r})")


def f1(q: int, r: int) -> int:
    """Edge count of g5(q, r): r(q-1) + C(r-q+2, 2)."""
    _check_f_range(q, r, "f1")
    return r * (q - 1) + comb(r - q + 2, 2)


def f2(q: int, r: int) -> int:
    """The competing edge-count bound 2(r-q) + C(2q, 2)."""
    _check_f_range(q, r, "f2")
    return 2 * (r - q) + comb(2 * q, 2)


class BoundParams(NamedTuple):
    """Euclidean-division record dividend = a * divisor + b, 0 <= b < divisor."""

    a: int
    b: int
    divisor: int
    dividend: int


def divide(dividend: int, divisor: int) -> BoundParams:
    if divisor < 1:
        raise InputError(f"divisor must be positive, got {divisor}")
    if dividend < 0:
        raise InputError(f"dividend must be non-negative, got {dividend}")
    a, b = divmod(dividend, divisor)
    return BoundParams(a, b, divisor, dividend)


def _check_34_common(p: int, q: int) -> None:
    if not 2 <= p < q:
        raise InputError(f"bound needs 2 <= p < q, got p={p}, q={q}")


def bound34_1(p: int, q: int) -> int:
    """Edge-count bound for triples (p, q, q): (a^2+1)p + (2a+1)b, q = ap + b."""
    _check_34_common(p, q)
    a, b, _, _ = divide(q, p)
    return (a * a + 1) * p + (2 * a + 1) * b


def bound34_2(p: int, q: int, r: int) -> int:
    """Edge-count bound for q < r <= 2q-p+1, via 2q-r = a(p-1) + b."""
    _check_34_common(p, q)
    if not q < r <= 2 * q - p + 1:
        raise InputError(f"bound34_2 needs q < r <= 2q-p+1, got ({p}, {q}, {r})")
    a, b, _, _ = divide(2 * q - r, p - 1)
    return a * a * (p - 1) + (2 * a + 1) * b + p + comb(2 * (r - q) + 1, 2)


def bound34_3(p: int, q: int, r: int) -> int:
    """Edge-count bound for 2q-p+1 < r <= 2q, via r-q = a(p-2q+r) + b."""
    _check_34_common(p, q)
    if not 2 * q - p + 1 < r <= 2 * q:
        raise InputError(f"bound34_3 needs 2q-p+1 < r <= 2q, got ({p}, {q}, {r})")
    a, b, _, _ = divide(r - q, p - 2 * q + r)
    return p + 2 * q - r + (p - 2 * q + r) * comb(2 * a + 1, 2) + b * (4 * a + 3)


def bound34(p: int, q: int, r: int) -> int:
    """The hub-join edge bound for (p, q, r): bound34_1, _2 or _3 by the case r falls in."""
    if r == q:
        return bound34_1(p, q)
    if r <= 2 * q - p + 1:
        return bound34_2(p, q, r)
    return bound34_3(p, q, r)
