"""Extremal searches: census by invariant triple, least-order and
least-edge-count certification, and batch verification of the closed-form
results the constructions realize.

Both exhaustive searches run on one scan driver, ``_scan``.  Canonical
augmentation puts every connected class under exactly one class of the
seed order, so the driver enumerates that level (edge-capped or not),
deals the seeds to lanes, and each lane descends from its seeds to order n
and folds a per-graph visit into its own accumulator.  The lanes run in a
fork pool when more than one worker is asked for, and are merged in lane
order; every fold and merge here is independent of order, so results are
identical for any worker count.  An exception raised in a lane, such as
an exhausted solver budget, reaches the caller as it would at one worker.

Only the seeds are solved from scratch.  Canonical augmentation hands over
the children of one parent together, each being the parent plus a new last
vertex, and each of p, q and r of a child is the parent's value or that
value + 1.  So ``_classes`` solves each seed once (through
``invariant_triple``; an edgeless seed is (0, 0, 0)) and carries every
class's triple down the augmentation tree through ``descend``'s grow hook:
on a class's first accepted child it summarises the class with
``solvers.augmentation_parent``, and it decides every child with
``solvers.augmented_triple``: r rises iff the new vertex sees a vertex some
maximum matching misses, q stays iff a minimum maximal matching covers the
new vertex's neighbourhood or matching it to a neighbour s costs nothing
more (q(P - s) = q(P) - 1), and p rises iff some neighbour s leaves an
induced matching of size p(P) clear of the neighbourhoods of the new
vertex and s.  Every solve and decision runs under the request's budget,
and every triple of a class with an edge is chain-checked.

Carrying the triples makes the least-edge searches hereditary (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26 (1998)).  p, q
and r never fall and rise by at most 1 when a vertex is added, and a
class's canonical parent is an induced subgraph of it.  So a class of
order k with triple x has an order-n descendant on target t only if
t_i - (n - k) <= x_i <= t_i for each coordinate (``_reachable``), and a
search drops every other class with all it would generate.  Every
on-target class keeps its whole chain of canonical ancestors, so the
search stays exhaustive.  A search's ``scanned`` counts the order-n
classes reached through kept parents, hit or not: 21 rather than 2,681
for (1, 3, 4).  The census and the least-order search keep everything.

The census folds every connected graph of a given order into per-triple
aggregates (class count, least edge count, and the lexicographically least
canonical graph6 witnesses), memoized per order and budget.

Least-edge-count searches fold the (edges, key) pairs that hit the target
triple over edge-capped scans, taking orders from the least order upward
(a graph whose matching number is r has at least 2r vertices, and at
least 2r + 1 when also p >= 2 and q = r: least-order-formula) and
stopping once every remaining order would need more edges than the
incumbent, where a triple with p < q needs as many edges as vertices (no
tree has p < q: see ``tree_closure``).  Proven edge floors and construction
witnesses close most searches without any enumeration at all; searches the
envelope cannot certify come back flagged, never silently truncated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from math import comb
from multiprocessing import get_context
from typing import Callable, Iterable

from eml.canon import canonical_form, key_and_order
from eml.enumeration import (
    MAX_ENUM_ORDER,
    MAX_TREE_ORDER,
    SEED_ORDER,
    descend,
    free_tree_parents,
    seed_level,
    tree_graph,
)
from eml.families import (
    bound34,
    complete,
    complete_bipartite,
    cycle,
    f1,
    f2,
    g1,
    g2,
    g3,
    g4,
    g5,
    g_r,
)
from eml.graphs import Graph, InputError, pack_graph6
from eml.solvers import (
    SolverBudget,
    SolverFault,
    augmentation_parent,
    augmented_triple,
    check_chain,
    induced_matching_number,
    invariant_triple,
    min_maximal_matching_number,
    tree_pq,
)
from eml.starjoin import extremal_spec, star_join

_ROW_WITNESSES = 4


def _validate_triple(p: int, q: int, r: int) -> None:
    if not 1 <= p <= q <= r <= 2 * q:
        raise InputError(f"triple must satisfy 1 <= p <= q <= r <= 2q, got ({p}, {q}, {r})")


def _witness_strings(n: int, keys: Iterable[int]) -> tuple[str, ...]:
    # a canonical key is the graph6 upper-triangle bit vector of its class
    return tuple(pack_graph6(n, key) for key in keys)


def _least(keys: Iterable[int], more: Iterable[int], limit: int) -> list[int]:
    """The limit least distinct keys of keys and more, in order."""
    return sorted(set(keys).union(more))[:limit]


# ---------------------------------------------------------------------------
# the scan driver
# ---------------------------------------------------------------------------


def _reachable(target: tuple, n: int, k: int, triple: tuple) -> bool:
    """Whether an order-k class with this triple can have an order-n
    descendant on target: each of p, q and r only grows, by at most 1 per
    vertex added, and a class's canonical parent is an induced subgraph."""
    return all(t - (n - k) <= x <= t for t, x in zip(target, triple))


def _classes(
    seeds: list,
    k: int,
    n: int,
    cap: int | None,
    budget: SolverBudget | None,
    keep: Callable | None = None,
):
    """(adj, key, triple) of every connected order-n descendant of the seeds
    whose ancestors all pass keep(order, triple); keep=None keeps everything.

    Each seed is solved once; every other class's triple is decided from its
    parent's summary, built on the parent's first accepted child.
    """

    def grow(parent, children):
        adj, _, triple = parent
        m = len(adj) + 1
        summary = None
        for child, key in children:
            if summary is None:
                summary = augmentation_parent(Graph(m - 1, adj), triple, budget)
            t = augmented_triple(summary, child[-1], budget)
            if t[2]:  # an edgeless class has no chain to check
                check_chain(m, *t)
            if m == n or keep is None or keep(m, t):
                yield child, key, t

    level = []
    for adj, key in seeds:
        g = Graph(k, adj)
        triple = invariant_triple(g, budget) if g.num_edges() else (0, 0, 0)
        if keep is None or keep(k, triple):
            level.append((adj, key, triple))
    return descend(level, k, n, cap, True, grow)


def _lane(task) -> tuple[object, int]:
    """Fold visit over every connected order-n descendant of one lane's seeds."""
    seeds, k, n, cap, visit, budget, acc, keep = task
    scanned = 0
    for adj, key, triple in _classes(seeds, k, n, cap, budget, keep):
        scanned += 1
        visit(acc, triple, sum(row.bit_count() for row in adj) // 2, key)
    return acc, scanned


def _scan(
    n: int,
    cap: int | None,
    visit: Callable,
    acc: Callable[[], object],
    merge: Callable,
    workers: int | None,
    budget: SolverBudget | None,
    keep: Callable | None = None,
) -> tuple[object, int]:
    """Fold visit(acc, triple, edges, key) over the connected order-n classes
    with at most cap edges whose ancestors pass keep (see _classes), one
    fresh acc() per lane, then merge(total, part) the lanes in order; returns
    the merged accumulator and the graphs scanned.
    """
    k = min(n - 1, SEED_ORDER)
    seeds = seed_level(k, cap)
    lanes = 1 if not workers or workers <= 1 else 4 * workers
    tasks = [
        (seeds[lane::lanes], k, n, cap, visit, budget, acc(), keep)
        for lane in range(min(lanes, max(len(seeds), 1)))
    ]
    if len(tasks) <= 1:
        parts = [_lane(task) for task in tasks]
    else:
        with get_context("fork").Pool(processes=min(workers, len(tasks))) as pool:
            parts = pool.map(_lane, tasks, chunksize=1)
    total = acc()
    scanned = 0
    for part, part_scanned in parts:
        merge(total, part)
        scanned += part_scanned
    return total, scanned


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRow:
    n: int
    triple: tuple[int, int, int]
    count: int
    min_edges: int
    witnesses: tuple[str, ...]  # lexicographically least canonical graph6 keys


_census_cache: dict[tuple[int, SolverBudget | None], tuple[tuple[CensusRow, ...], int]] = {}

_Agg = dict[tuple[int, int, int], list]  # triple -> [count, min_edges, [keys]]


def _aggregate(agg: _Agg, triple: tuple[int, int, int], edges: int, key: int) -> None:
    row = agg.get(triple)
    if row is None:
        agg[triple] = [1, edges, [key]]
        return
    row[0] += 1
    if edges < row[1]:
        row[1] = edges
    if len(row[2]) < _ROW_WITNESSES or key < row[2][-1]:
        row[2] = _least(row[2], (key,), _ROW_WITNESSES)


def _merge(into: _Agg, other: _Agg) -> None:
    for triple, row in other.items():
        mine = into.get(triple)
        if mine is None:
            into[triple] = row
            continue
        mine[0] += row[0]
        mine[1] = min(mine[1], row[1])
        mine[2] = _least(mine[2], row[2], _ROW_WITNESSES)


def census(
    n: int, workers: int | None = None, budget: SolverBudget | None = None
) -> list[CensusRow]:
    """Per-triple class counts, least edge counts, and witnesses at order n."""
    rows, _ = _census_full(n, workers, budget)
    return list(rows)


def _census_full(
    n: int, workers: int | None = None, budget: SolverBudget | None = None
) -> tuple[tuple[CensusRow, ...], int]:
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise InputError(f"order {n} outside 1..{MAX_ENUM_ORDER}")
    cached = _census_cache.get((n, budget))
    if cached is not None:
        return cached
    if n == 1:
        return (), 1  # the one-vertex graph has no edge, hence no triple
    agg, scanned = _scan(n, None, _aggregate, dict, _merge, workers, budget)
    rows = tuple(
        CensusRow(n, triple, row[0], row[1], _witness_strings(n, row[2]))
        for triple, row in sorted(agg.items())
    )
    for row in rows:
        p, q, r = row.triple
        if not (1 <= p <= q <= r <= 2 * q and 2 * r <= n):
            raise SolverFault(f"census row violates invariant chain: {row}")
    result = (rows, scanned)
    _census_cache[n, budget] = result
    return result


# ---------------------------------------------------------------------------
# least order / least edge count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    objective: str  # "vertices" or "edges"
    target: tuple[int, int, int]
    value: int | None  # certified minimum; None with certified=True means none within budget
    certified: bool
    lower_bound: int
    upper_bound: int | None
    witnesses: tuple[str, ...]
    scanned: int
    searched_to: int | None
    elapsed: float


def min_vertices(
    p: int,
    q: int,
    r: int,
    n_budget: int | None = None,
    workers: int | None = None,
    witness_limit: int = 1,
    budget: SolverBudget | None = None,
) -> SearchReport:
    """Least order of a connected graph with the given invariant triple."""
    _validate_triple(p, q, r)
    if not 1 <= witness_limit <= _ROW_WITNESSES:
        raise InputError(f"witness_limit must be 1..{_ROW_WITNESSES}")
    started = time.perf_counter()
    floor = 2 * r
    if n_budget is None:
        n_budget = min(2 * r + 1, MAX_ENUM_ORDER - 1)
    if n_budget > MAX_ENUM_ORDER:
        raise InputError(f"n_budget {n_budget} outside envelope {MAX_ENUM_ORDER}")
    scanned = 0
    searched_to = None
    for n in range(floor, n_budget + 1):
        rows, order_scanned = _census_full(n, workers, budget)
        scanned += order_scanned
        searched_to = n
        for row in rows:
            if row.triple == (p, q, r):
                return SearchReport(
                    "vertices", (p, q, r), n, True, floor, n,
                    row.witnesses[:witness_limit], scanned, searched_to,
                    time.perf_counter() - started,
                )
    # every order up to the budget was scanned: certified absence below it
    return SearchReport(
        "vertices", (p, q, r), None, True, floor, None, (), scanned,
        searched_to, time.perf_counter() - started,
    )


def _edge_floor(p: int, q: int, r: int) -> int:
    # matching number r forces >= 2r vertices, and >= 2r+1 when p >= 2 and
    # q == r (no such graph attains 2r); edges >= vertices - 1, and >= vertices
    # when p < q, as p = q on every tree (tree_closure);
    # p == 1 makes the r matching edges pairwise joined: r + C(r,2) edges.
    floor = 2 * r + (p >= 2 and q == r) - (p == q)
    if p == 1:
        floor = max(floor, comb(r + 1, 2))
    return floor


def _paper_edge_bound(p: int, q: int, r: int) -> tuple[int, Graph | None]:
    """Best closed-form upper bound for the least edge count, with its witness."""
    if p == q == r:
        return (1, complete_bipartite(1, 1)) if r == 1 else (2 * r, g3(r))
    if p == q:  # q < r <= 2q
        if r == q + 1:
            return (3, g_r(2)) if q == 1 else (2 * q + 1, g1(q))
        return 2 * r - 1, g2(q, r)
    if p == 1:
        if r == q:
            return q * q, complete_bipartite(q, q)
        if r == q + 1:
            return q * q + 2, g4(q)
        if r == 2 * q:
            return comb(2 * q + 1, 2), g_r(2 * q)
        if r == 2 * q - 1:
            return comb(2 * q, 2), g_r(2 * q - 1)
        one, two = f1(q, r), f2(q, r)
        # no generator is provided for the bound "two"; the witness covers "one"
        return (one, g5(q, r)) if one <= two else (two, None)
    return bound34(p, q, r), star_join(extremal_spec(p, q, r))


class _EdgeHits:
    """Least-edge-count hits with deterministic least-key witnesses."""

    def __init__(self, limit: int):
        self.limit = limit
        self.edges: int | None = None
        self.n = 0
        self.keys: list[int] = []

    def offer_key(self, n: int, edges: int, key: int) -> None:
        if self.edges is None or edges < self.edges:
            self.edges = edges
            self.keys = [key]
            self.n = n
            return
        if edges == self.edges and (len(self.keys) < self.limit or key < self.keys[-1]):
            self.keys = _least(self.keys, (key,), self.limit)


def _hit_visit(target, found: list, triple, edges: int, key: int) -> None:
    if triple == target:
        found.append((edges, key))


def min_edges(
    p: int,
    q: int,
    r: int,
    edge_budget: int | None = None,
    workers: int | None = None,
    witness_limit: int = 1,
    budget: SolverBudget | None = None,
) -> SearchReport:
    """Least edge count over connected graphs of any order with the triple.

    The default edge budget is the best applicable closed-form bound, whose
    construction seeds the incumbent; enumeration then only has to rule out
    anything strictly better.  A report with value None and certified True
    means no such graph has at most edge_budget edges.
    """
    _validate_triple(p, q, r)
    if not 1 <= witness_limit <= _ROW_WITNESSES:
        raise InputError(f"witness_limit must be 1..{_ROW_WITNESSES}")
    started = time.perf_counter()
    floor = _edge_floor(p, q, r)
    bound, witness_graph = _paper_edge_bound(p, q, r)
    if edge_budget is None:
        edge_budget = bound
    hits = _EdgeHits(witness_limit)
    if witness_graph is not None and witness_graph.num_edges() <= edge_budget:
        if invariant_triple(witness_graph, budget) != (p, q, r):
            raise SolverFault(f"construction for {(p, q, r)} has the wrong triple")
        hits.offer_key(witness_graph.n, witness_graph.num_edges(),
                       key_and_order(witness_graph.adj, witness_graph.n)[0])
    if hits.edges is not None and hits.edges < floor:
        raise SolverFault(f"construction for {(p, q, r)} beats the proven floor")
    scanned = 0
    searched_to = None
    certified = True
    n = max(2, 2 * r + (p >= 2 and q == r))  # least order (least-order-formula)
    while hits.edges != floor:  # a floor-meeting witness is already optimal
        cap = edge_budget if hits.edges is None else min(edge_budget, hits.edges - 1)
        if cap < floor or n - (p == q) > cap:  # p < q needs >= n edges at order n
            break
        if n <= MAX_ENUM_ORDER:
            found, order_scanned = _scan(
                n, cap, partial(_hit_visit, (p, q, r)), list, list.extend, workers,
                budget, partial(_reachable, (p, q, r), n),
            )
            scanned += order_scanned
            for edges, key in sorted(found):
                hits.offer_key(n, edges, key)
        else:
            certified = False  # orders beyond the envelope could still matter
            break
        searched_to = n
        n += 1
    value = hits.edges
    return SearchReport(
        "edges", (p, q, r), value, certified, floor, bound,
        _witness_strings(hits.n, hits.keys),
        scanned, searched_to, time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# batch verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    instance: str
    ok: bool
    expected: object
    actual: object
    witness: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    claims: tuple[ClaimResult, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.claims)

    def failures(self) -> tuple[ClaimResult, ...]:
        return tuple(c for c in self.claims if not c.ok)


def _chain_triples(r_max: int):
    for r in range(1, r_max + 1):
        for q in range((r + 1) // 2, r + 1):
            for p in range(1, q + 1):
                yield p, q, r


CLAIM_IDS = (
    "small-extremal-pairs",
    "clique-with-pendants",
    "least-order-formula",
    "no-perfect-matching",
    "edge-count-floors",
    "least-edges-formulas",
)


def verify_theorems(
    select: Iterable[str] | None = None,
    r_max: int = 4,
    order_cap: int = 8,
    gr_max: int = 12,
    workers: int | None = None,
    budget: SolverBudget | None = None,
) -> VerificationReport:
    """Machine-check the closed-form results instance by instance.

    Claims are selected by id (default: all of CLAIM_IDS) and checked at
    desk scale; failures carry a counterexample in graph6 form where one
    exists.  r_max caps the triples submitted to the search layer,
    order_cap the exhaustive per-graph scans, gr_max the pendant-clique
    family sweep.
    """
    started = time.perf_counter()
    chosen = CLAIM_IDS if select is None else tuple(select)
    unknown = set(chosen) - set(CLAIM_IDS)
    if unknown:
        raise InputError(f"unknown claim ids: {sorted(unknown)}")
    claims: list[ClaimResult] = []

    if "small-extremal-pairs" in chosen:
        for g, name, n_want, e_want in (
            (complete(4), "K_4", 4, 6),
            (cycle(5), "C_5", 5, 5),
        ):
            t = invariant_triple(g, budget)
            ok = t == (1, 2, 2) and g.n == n_want and g.num_edges() == e_want
            claims.append(ClaimResult(
                "small-extremal-pairs", name, ok,
                ((1, 2, 2), n_want, e_want), (tuple(t), g.n, g.num_edges()),
                canonical_form(g),
            ))

    if "clique-with-pendants" in chosen:
        for m in range(2, gr_max + 1):
            g = g_r(m)
            t = tuple(invariant_triple(g, budget))
            want = (1, (m + 1) // 2, m)
            claims.append(ClaimResult(
                "clique-with-pendants", f"m={m}", t == want, want, t,
            ))

    if "least-order-formula" in chosen:
        for p, q, r in _chain_triples(r_max):
            want = 2 * r + 1 if p >= 2 and q == r else 2 * r
            rep = min_vertices(p, q, r, workers=workers, budget=budget)
            claims.append(ClaimResult(
                "least-order-formula", f"({p},{q},{r})",
                rep.certified and rep.value == want, want, rep.value,
                rep.witnesses[0] if rep.witnesses else None,
            ))

    if {"no-perfect-matching", "edge-count-floors"} & set(chosen):
        tight_bad = None
        floor_bad = None
        examined = 0
        for n in range(2, order_cap + 1):
            for row in _census_full(n, workers, budget)[0]:
                examined += row.count
                p, q, r = row.triple
                # a perfect matching exists exactly when n = 2*match, so the
                # row data decides the claim for every class in the row
                if p >= 2 and q == r and n == 2 * r and tight_bad is None:
                    tight_bad = row.witnesses[0]
                if row.min_edges < _edge_floor(p, q, r) and floor_bad is None:
                    floor_bad = row.witnesses[0]
        if "no-perfect-matching" in chosen:
            claims.append(ClaimResult(
                "no-perfect-matching", f"connected n<={order_cap}",
                tight_bad is None,
                "no perfect matching when induced >= 2 and minimum = matching",
                f"{examined} classes checked" if tight_bad is None else "counterexample",
                tight_bad,
            ))
        if "edge-count-floors" in chosen:
            claims.append(ClaimResult(
                "edge-count-floors", f"connected n<={order_cap}",
                floor_bad is None, "per-triple edge floors hold",
                f"{examined} classes checked" if floor_bad is None else "counterexample",
                floor_bad,
            ))

    if "least-edges-formulas" in chosen:
        instances: list[tuple[tuple[int, int, int], int]] = []
        for rr in range(1, r_max + 1):
            instances.append(((rr, rr, rr), 1 if rr == 1 else 2 * rr))
        for qq in range(1, r_max):
            instances.append(((qq, qq, qq + 1), 2 * qq + 1))
        for qq in range(2, r_max + 1):
            for rr in range(qq + 2, min(2 * qq, r_max) + 1):
                instances.append(((qq, qq, rr), 2 * rr - 1))
        for qq in range(1, r_max + 1):
            if 2 * qq <= r_max:
                instances.append(((1, qq, 2 * qq), comb(2 * qq + 1, 2)))
            if qq >= 2 and 2 * qq - 1 <= r_max:
                instances.append(((1, qq, 2 * qq - 1), comb(2 * qq, 2)))
        for pp in range(2, r_max):
            instances.append(((pp, pp + 1, pp + 1), 2 * pp + 3))
        seen_instances = set()
        for triple, want in instances:
            if triple in seen_instances:
                continue
            seen_instances.add(triple)
            rep = min_edges(*triple, workers=workers, budget=budget)
            claims.append(ClaimResult(
                "least-edges-formulas", f"{triple}",
                rep.certified and rep.value == want, want, rep.value,
                rep.witnesses[0] if rep.witnesses else None,
            ))

    return VerificationReport(tuple(claims), time.perf_counter() - started)


@dataclass(frozen=True)
class BoundCheck:
    family: str
    target: tuple[int, int, int]
    bound: int
    witness_edges: int | None  # edge count of the constructed witness
    triple_ok: bool
    certified_minimum: int | None
    gap: int | None  # bound - certified minimum, where certification ran
    note: str = ""

    @property
    def ok(self) -> bool:
        if self.witness_edges is None:
            return True  # formula-only row: nothing constructed to disagree
        return self.triple_ok and self.witness_edges <= self.bound


@dataclass(frozen=True)
class BoundsReport:
    entries: tuple[BoundCheck, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def _bound_entry(
    family: str,
    triple: tuple[int, int, int],
    bound: int,
    witness: Graph | None,
    certify_cap: int,
    workers,
    budget,
    note: str = "",
) -> BoundCheck:
    edges = triple_ok = None
    if witness is not None:
        edges = witness.num_edges()
        triple_ok = tuple(invariant_triple(witness, budget)) == triple
    certified = gap = None
    if bound <= certify_cap:
        rep = min_edges(*triple, workers=workers, budget=budget)
        if rep.certified and rep.value is not None:
            certified = rep.value
            gap = bound - certified
    return BoundCheck(
        family, triple, bound, edges, bool(triple_ok), certified, gap, note,
    )


def check_upper_bounds(
    p_max: int = 4,
    q_max: int = 7,
    r_max: int = 8,
    certify_cap: int = 11,
    workers: int | None = None,
    budget: SolverBudget | None = None,
) -> BoundsReport:
    """Construct each closed-form witness and confirm it meets its bound.

    Where the certified least edge count is reachable within certify_cap
    the entry also reports the gap to the bound (tightness data).  Entries
    whose bound has no in-package generator carry the formula value only.
    """
    started = time.perf_counter()
    entries: list[BoundCheck] = []
    for q in range(2, q_max + 1):
        entries.append(_bound_entry(
            "square-bipartite", (1, q, q), q * q,
            complete_bipartite(q, q), certify_cap, workers, budget,
        ))
    for q in range(2, q_max + 1):
        entries.append(_bound_entry(
            "near-square-bipartite", (1, q, q + 1), q * q + 2,
            g4(q), certify_cap, workers, budget,
        ))
    for q in range(4, q_max + 1):
        for r in range(q + 2, 2 * q - 1):
            one, two = f1(q, r), f2(q, r)
            if one <= two:
                if r > r_max:
                    continue
                entries.append(_bound_entry(
                    "two-formula-min", (1, q, r), one,
                    g5(q, r), certify_cap, workers, budget,
                    note=f"f1={one} <= f2={two}",
                ))
            else:
                entries.append(_bound_entry(
                    "two-formula-min", (1, q, r), two,
                    None, certify_cap, workers, budget,
                    note=f"f2={two} < f1={one}; no generator for the f2 witness",
                ))
    for p in range(2, p_max + 1):
        for q in range(p + 1, r_max + 1):
            for r in range(q, min(2 * q, r_max) + 1):
                entries.append(_bound_entry(
                    "hub-join", (p, q, r), bound34(p, q, r),
                    star_join(extremal_spec(p, q, r)), certify_cap, workers, budget,
                ))
    for p in (2, 3):
        for dr, want in ((0, 2 * p + 3), (1, 2 * p + 5), (3, 2 * p + 11)):
            q, r = p + 1, p + 1 + dr
            bound = bound34(p, q, r)
            entries.append(BoundCheck(
                "hub-join-identities", (p, q, r), bound, None,
                bound == want, None, None,
                note=f"closed form {want}",
            ))
    # frozen two-formula reference points, far beyond construction scale
    for (q, r), want_f1, want_f2 in (((10, 17), 189, 204), ((10, 18), 207, 206)):
        entries.append(BoundCheck(
            "two-formula-min", (1, q, r), min(want_f1, want_f2), None,
            f1(q, r) == want_f1 and f2(q, r) == want_f2, None, None,
            note=f"f1={f1(q, r)} f2={f2(q, r)}",
        ))
    return BoundsReport(tuple(entries), time.perf_counter() - started)


@dataclass(frozen=True)
class TreeConjectureReport:
    n_max: int
    per_order: tuple[tuple[int, int], ...]  # (order, trees scanned)
    counterexample: tuple[str, int, int] | None  # graph6, induced, minimum

    @property
    def total(self) -> int:
        return sum(count for _, count in self.per_order)

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def tree_conjecture_check(n_max: int) -> TreeConjectureReport:
    """Scan every tree of order <= n_max for induced != minimum maximal.

    Each order streams through the tree generator and the tree dynamic
    program; a counterexample is reported only once the general solvers
    agree with the dynamic program on it.
    """
    if not 1 <= n_max <= MAX_TREE_ORDER:
        raise InputError(f"n_max {n_max} outside 1..{MAX_TREE_ORDER}")
    per_order = []
    counterexample = None
    for n in range(1, n_max + 1):
        count = 0
        for parent in free_tree_parents(n):
            count += 1
            if n == 1 or counterexample is not None:
                continue  # order 1 has no edge; past a counterexample only counts remain
            ind, low = tree_pq(parent)
            if ind != low:
                g = tree_graph(parent)
                if (induced_matching_number(g), min_maximal_matching_number(g)) != (ind, low):
                    raise SolverFault(f"tree dynamic program is wrong on {canonical_form(g)}")
                counterexample = (canonical_form(g), ind, low)
        per_order.append((n, count))
    return TreeConjectureReport(n_max, tuple(per_order), counterexample)


# ---------------------------------------------------------------------------
# the tree question, settled: tree_pq's recurrence over finitely many types
# ---------------------------------------------------------------------------

# A rooted tree reaches its parent in tree_pq only through its type
# (B_p, B_q, F - B_p, U - F, D - B_q, U - B_q) of best, free, matched-up p and
# best, matched-down, matched-up q.  A vertex folds its children so far into
# a partial state (S_p, S_q, dU, gain_p, dI, gain_q): tree_pq's p_free, q_up,
# p_up - p_free, p_gain, q_idle - q_up, q_gain.  A childless vertex cannot be
# matched down: gain_p = -1 puts down at up <= free, and gain_q = 1 puts down
# 2 above idle, which D - B_q reads as never best.
_LONE = (0, 0, 0, -1, 0, 1)


def _attach(state: tuple, kind: tuple) -> tuple:
    """The partial state after one more child of the given type."""
    sp, sq, du, gp, di, gq = state
    bp, bq, fb, uf, db, ub = kind
    # dU <= -1 gives down = S_p + dU + 1 + gain_p <= free, as gain_p <= 0, so
    # B_p = free and U - F = -1 however low dU goes: clamp dU at -1.  gain_p
    # <= -1 likewise gives down <= up <= free, so U - F loses nothing at -1.
    # dI >= 1 gives idle >= S_q + 1 >= down (gain_q <= 0 once a child is in),
    # so B_q = down however high dI goes: clamp dI, and D - B_q, at 1.
    # S_q <= B_q <= S_q + 1 keeps U - B_q in {0, -1} with no clamp.
    return (sp + bp, sq + bq, max(du + fb, -1), max(gp, uf), min(di + db, 1), min(gq, ub))


def _finish(state: tuple) -> tuple:
    """The type of the rooted tree whose root has this partial state."""
    sp, sq, du, gp, di, gq = state
    bp = max(sp, sp + du + 1 + gp)
    down = sq + 1 + gq
    bq = min(sq + di, down)
    return (bp, bq, sp - bp, du, min(down - bq, 1), sq - bq)


@dataclass(frozen=True)
class TreeClosure:
    ok: bool  # every type has B_p = B_q, so p = q on every (rooted) tree
    states: int  # partial states in the fixpoint
    types: tuple  # (type, smallest witness parent array) pairs


def tree_closure() -> TreeClosure:
    """Close "attach one more child" over partial states to a fixpoint.

    Shifting a child's B_p and B_q by one constant shifts its parent's alike,
    so states and types are kept with S_q = B_q = 0.  States settle smallest
    witness first, so each type carries a smallest tree of its type; a type
    with B_p != B_q stops the closure at a smallest tree with p != q.
    """
    states, types, pending = {}, {}, {_LONE: (-1,)}  # each with its smallest witness
    while pending:
        state = min(pending, key=lambda s: len(pending[s]))
        tree = states[state] = pending.pop(state)
        bp, bq, *rest = _finish(state)
        kind = (bp - bq, 0, *rest)
        types.setdefault(kind, tree)
        if kind[0]:
            break
        for s, w in states.items():
            for k, kw in types.items():
                grown = _attach(s, k)
                if grown not in states:
                    bigger = w + (0,) + tuple(x + len(w) for x in kw[1:])
                    pending[grown] = min(pending.get(grown, bigger), bigger, key=len)
    ok = all(kind[0] == 0 for kind in types)
    return TreeClosure(ok, len(states), tuple(types.items()))
