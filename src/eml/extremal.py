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

The census folds every connected graph of a given order into per-triple
aggregates (class count, least edge count, and the lexicographically least
canonical graph6 witnesses), memoized per order and budget.

Least-edge-count searches fold the (edges, key) pairs that hit the target
triple over edge-capped scans, taking orders from the elementary floor 2r
upward (a graph whose matching number is r has at least 2r vertices) and
stopping once every remaining order would need more edges than the
incumbent.  Orders beyond the general envelope are reachable only when the
cap equals order-1, in which case the admissible graphs are exactly trees
and the tree enumerator takes over.  Proven edge floors and construction
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
    enumerate_trees,
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


# ---------------------------------------------------------------------------
# the scan driver
# ---------------------------------------------------------------------------


def _lane(task) -> tuple[object, int]:
    """Fold visit over every connected order-n descendant of one lane's seeds."""
    seeds, k, n, cap, visit, acc = task
    scanned = 0
    for adj, key in descend(seeds, k, n, cap, True):
        scanned += 1
        visit(acc, n, adj, sum(row.bit_count() for row in adj) // 2, key)
    return acc, scanned


def _scan(
    n: int,
    cap: int | None,
    visit: Callable,
    acc: Callable[[], object],
    merge: Callable,
    workers: int | None,
) -> tuple[object, int]:
    """Fold visit(acc, n, adj, edges, key) over the connected order-n classes
    with at most cap edges, one fresh acc() per lane, then merge(total, part)
    the lanes in order; returns the merged accumulator and the graphs scanned.
    """
    k = min(n - 1, SEED_ORDER)
    seeds = seed_level(k, cap)
    lanes = 1 if not workers or workers <= 1 else 4 * workers
    tasks = [
        (seeds[lane::lanes], k, n, cap, visit, acc())
        for lane in range(min(lanes, max(len(seeds), 1)))
    ]
    if len(tasks) <= 1:
        parts = [_lane(task) for task in tasks]
    else:
        with get_context("fork").Pool(processes=workers) as pool:
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
    keys = row[2]
    if len(keys) < _ROW_WITNESSES or key < keys[-1]:
        keys.append(key)
        keys.sort()
        del keys[_ROW_WITNESSES:]


def _merge(into: _Agg, other: _Agg) -> None:
    for triple, row in other.items():
        mine = into.get(triple)
        if mine is None:
            into[triple] = row
            continue
        mine[0] += row[0]
        mine[1] = min(mine[1], row[1])
        mine[2] = sorted(set(mine[2]) | set(row[2]))[:_ROW_WITNESSES]


def _census_visit(budget, agg: _Agg, n: int, adj, edges: int, key: int) -> None:
    _aggregate(agg, tuple(invariant_triple(Graph(n, adj), budget)), edges, key)


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
    agg, scanned = _scan(n, None, partial(_census_visit, budget), dict, _merge, workers)
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
    # connected with matching number r forces >= 2r vertices, so >= 2r-1 edges;
    # p >= 2 with q == r forces >= 2r+1 vertices (no such graph attains 2r);
    # p == 1 makes the r matching edges pairwise joined: r + C(r,2) edges.
    floor = 2 * r if p >= 2 and q == r else 2 * r - 1
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
            self.keys = sorted(set(self.keys) | {key})[: self.limit]

    def offer_graph(self, g: Graph) -> None:
        self.offer_key(g.n, g.num_edges(), key_and_order(g.adj, g.n)[0])


def _hit_visit(triple, budget, found: list, n: int, adj, edges: int, key: int) -> None:
    if invariant_triple(Graph(n, adj), budget) == triple:
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
        hits.offer_graph(witness_graph)
    if hits.edges is not None and hits.edges < floor:
        raise SolverFault(f"construction for {(p, q, r)} beats the proven floor")
    scanned = 0
    searched_to = None
    certified = True
    n = max(2, 2 * r)
    while hits.edges != floor:  # a floor-meeting witness is already optimal
        cap = edge_budget if hits.edges is None else min(edge_budget, hits.edges - 1)
        if n - 1 > cap:
            break
        if n <= MAX_ENUM_ORDER:
            found, order_scanned = _scan(
                n, cap, partial(_hit_visit, (p, q, r), budget), list, list.extend, workers
            )
            scanned += order_scanned
            for edges, key in sorted(found):
                hits.offer_key(n, edges, key)
        elif cap == n - 1 and n <= MAX_TREE_ORDER:
            for g in enumerate_trees(n):
                scanned += 1
                if invariant_triple(g, budget) == (p, q, r):
                    hits.offer_graph(g)
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
    "least-edges-vs-least-order",
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
            if qq + 1 <= 2 * qq:
                instances.append(((qq, qq, qq + 1), 2 * qq + 1))
        for qq in range(2, r_max + 1):
            for rr in range(qq + 2, min(2 * qq, r_max) + 1):
                instances.append(((qq, qq, rr), 2 * rr - 1))
        for qq in range(1, r_max + 1):
            if 2 * qq <= r_max:
                instances.append(((1, qq, 2 * qq), comb(2 * qq + 1, 2)))
            if qq >= 2 and 2 * qq - 1 <= r_max:
                instances.append(((1, qq, 2 * qq - 1), comb(2 * qq, 2)))
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

    if "least-edges-vs-least-order" in chosen:
        for p, q, r in _chain_triples(r_max):
            vrep = min_vertices(p, q, r, workers=workers, budget=budget)
            erep = min_edges(p, q, r, workers=workers, budget=budget)
            if not (vrep.certified and vrep.value and erep.certified and erep.value):
                continue  # only certified pairs are comparable
            claims.append(ClaimResult(
                "least-edges-vs-least-order", f"({p},{q},{r})",
                erep.value >= vrep.value - 1,
                f">= {vrep.value - 1}", erep.value,
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


@dataclass(frozen=True)
class ConditionalCheck:
    p: int
    expected: int  # 2p + 3, the value forced if the tree question holds
    report: SearchReport
    status: str  # "consistent" | "refuting" | "inconclusive"


@dataclass(frozen=True)
class ConditionalReport:
    entries: tuple[ConditionalCheck, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(e.status == "consistent" for e in self.entries)


def conditional_theorem42_check(
    p_max: int = 3, workers: int | None = None, budget: SolverBudget | None = None
) -> ConditionalReport:
    """Certify min-edges at (p, p+1, p+1) against the conditional value 2p+3.

    A certified value below 2p+3 would resolve the tree question negatively;
    equality is consistent with it.  p_max is capped at 4 by search cost.
    """
    if not 2 <= p_max <= 4:
        raise InputError("p_max must be 2..4 (search feasibility)")
    started = time.perf_counter()
    entries = []
    for p in range(2, p_max + 1):
        rep = min_edges(p, p + 1, p + 1, workers=workers, budget=budget)
        expected = 2 * p + 3
        if not rep.certified or rep.value is None:
            status = "inconclusive"
        elif rep.value == expected:
            status = "consistent"
        else:
            status = "refuting"
        entries.append(ConditionalCheck(p, expected, rep, status))
    return ConditionalReport(tuple(entries), time.perf_counter() - started)
