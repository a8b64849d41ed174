"""Off-the-clock checks of the benchmark's outputs, against independent oracles.

    python3 bench/checks.py WORKLOAD SEED SETUP_OUTPUT OUTPUT...

Prints a JSON list of the problems found (empty when every output is
correct).  Nothing here imports eml: r comes from networkx's
maximum-cardinality matching, p is the largest clique of the
edge-compatibility graph built below, q is an exact 0/1 program solved by
scipy's HiGHS MILP, and alpha is the largest clique of the complement.
The checks run in their own process so that the benchmark process stays
small: a child inherits its parent's peak RSS across fork and exec.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations
from math import comb

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

import inputs


def from_graph6(text: str) -> nx.Graph:
    return nx.from_graph6_bytes(text.strip().encode("ascii"))


def _edges(g: nx.Graph) -> list[tuple[int, int]]:
    return sorted((min(u, v), max(u, v)) for u, v in g.edges())


def matching_number(g: nx.Graph) -> int:
    return len(nx.max_weight_matching(g, maxcardinality=True))


def compatibility_graph(g: nx.Graph) -> nx.Graph:
    """Edges of g as vertices, joined when both fit in one induced matching:
    no shared endpoint and no edge of g between their endpoints."""
    edges = _edges(g)
    c = nx.Graph()
    c.add_nodes_from(range(len(edges)))
    for i, j in combinations(range(len(edges)), 2):
        a, b = edges[i]
        x, y = edges[j]
        if {a, b} & {x, y}:
            continue
        if any(g.has_edge(s, t) for s in (a, b) for t in (x, y)):
            continue
        c.add_edge(i, j)
    return c


def induced_matching_number(g: nx.Graph) -> int:
    if g.number_of_edges() == 0:
        return 0
    clique, _ = nx.max_weight_clique(compatibility_graph(g), weight=None)
    return len(clique)


def min_maximal_matching_number(g: nx.Graph) -> int:
    """Exact 0/1 program: min sum x_e such that every vertex meets at most
    one chosen edge (a matching) and every edge meets a chosen edge
    (maximality)."""
    edges = _edges(g)
    if not edges:
        return 0
    rows = [[1 if v in e else 0 for e in edges] for v in g.nodes()]
    rows += [[1 if {a, b} & set(f) else 0 for f in edges] for a, b in edges]
    n = g.number_of_nodes()
    res = milp(
        c=np.ones(len(edges)),
        constraints=LinearConstraint(
            np.array(rows, dtype=float),
            [0] * n + [1] * len(edges),
            [1] * n + [np.inf] * len(edges),
        ),
        integrality=np.ones(len(edges)),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"MILP oracle failed: {res.message}")
    return int(round(res.fun))


def independence_number(g: nx.Graph) -> int:
    clique, _ = nx.max_weight_clique(nx.complement(g), weight=None)
    return len(clique)


def triple(g: nx.Graph) -> tuple[int, int, int]:
    return induced_matching_number(g), min_maximal_matching_number(g), matching_number(g)


def is_matching(g: nx.Graph, m) -> bool:
    ends = [v for e in m for v in e]
    return len(ends) == len(set(ends)) and all(g.has_edge(u, v) for u, v in m)


def is_maximal_matching(g: nx.Graph, m) -> bool:
    covered = {v for e in m for v in e}
    return is_matching(g, m) and all(u in covered or v in covered for u, v in g.edges())


def is_induced_matching(g: nx.Graph, m) -> bool:
    if not is_matching(g, m):
        return False
    for (a, b), (x, y) in combinations(m, 2):
        if any(g.has_edge(s, t) for s in (a, b) for t in (x, y)):
            return False
    return True


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def check_census(rec: dict, seed: int) -> list[str]:
    bad = []
    rows = rec["outputs"]
    total = sum(row["count"] for row in rows)
    if total != inputs.A001349_8:
        bad.append(f"census 8 counts sum to {total}, not A001349(8) = {inputs.A001349_8}")
    triples = [tuple(row["triple"]) for row in rows]
    if triples != sorted(set(triples)):
        bad.append("census rows are not distinct sorted triples")
    for row in rows:
        p, q, r = row["triple"]
        tag = f"row {p, q, r}"
        if row["n"] != 8 or not (1 <= p <= q <= r <= 2 * q and 2 * r <= 8):
            bad.append(f"{tag}: violates 1 <= p <= q <= r <= 2q, 2r <= n")
        if not 1 <= len(row["witnesses"]) <= min(4, row["count"]):
            bad.append(f"{tag}: {len(row['witnesses'])} witnesses for {row['count']} classes")
        graphs = []
        for w in row["witnesses"]:
            g = from_graph6(w)
            if g.number_of_nodes() != 8 or not nx.is_connected(g):
                bad.append(f"{tag}: witness {w} is not a connected order-8 graph")
                continue
            if g.number_of_edges() < row["min_edges"]:
                bad.append(f"{tag}: witness {w} has fewer than min_edges edges")
            if triple(g) != (p, q, r):
                bad.append(f"{tag}: witness {w} has oracle triple {triple(g)}")
            if any(nx.is_isomorphic(g, h) for h in graphs):
                bad.append(f"{tag}: witness {w} repeats an isomorphism class")
            graphs.append(g)
    return bad


def check_least_edges(rec: dict, seed: int) -> list[str]:
    p, q, r = 1, 3, 4
    out = rec["outputs"]
    floor, bound = comb(r + 1, 2), q * q + 2
    if out.get("objective") != "edges" or out.get("target") != [p, q, r]:
        return [f"unexpected search record {out!r}"]
    bad = []
    if not out["certified"]:
        bad.append("least-edges report is not certified")
    value = out["value"]
    if value is None or not floor <= value <= bound:
        return bad + [f"least edges {value} outside [{floor}, {bound}]"]
    if not out["witnesses"]:
        return bad + ["least-edges report has no witness"]
    g = from_graph6(out["witnesses"][0])
    if not nx.is_connected(g) or g.number_of_edges() != value:
        bad.append(f"witness is not a connected graph with {value} edges")
    if triple(g) != (p, q, r):
        bad.append(f"witness has oracle triple {triple(g)}")
    return bad


def sampled_trees(seed: int, k: int = 8) -> list:
    """k trees drawn by seed from networkx's own generator, orders 12..16."""
    rng = random.Random(f"trees:{seed}")
    picks: dict[int, set[int]] = {}
    for _ in range(k):
        n = rng.randint(12, 16)
        picks.setdefault(n, set()).add(rng.randrange(inputs.A000055[n - 1]))
    out = []
    for n, wanted in sorted(picks.items()):
        for i, t in enumerate(nx.nonisomorphic_trees(n)):
            if i in wanted:
                out.append(t)
            if i == max(wanted):
                break
    return out


def check_trees(rec: dict, seed: int) -> list[str]:
    out = rec["outputs"]
    bad = []
    want = [[n, c] for n, c in enumerate(inputs.A000055, 1)]
    if out["per_order"] != want:
        bad.append(f"tree counts {out['per_order']} differ from A000055")
    if out["total"] != sum(inputs.A000055) or out["counterexample"] is not None or not out["ok"]:
        bad.append("trees report has a wrong total or a counterexample")
    for t in sampled_trees(seed):
        p, q, _ = triple(t)
        if p != q:
            bad.append(f"sampled tree {nx.to_graph6_bytes(t, header=False)!r}: p={p} q={q}")
    return bad


def check_invariants(rec: dict, seed: int, lines: list[str]) -> list[str]:
    out = rec["outputs"]
    if out["errors"] or [e["graph6"] for e in out["results"]] != lines:
        return [f"invariants errors {out['errors'][:3]} or lines out of order"]
    bad = []
    for entry in out["results"]:
        g = from_graph6(entry["graph6"])
        tag = entry["graph6"]
        p, q, r = triple(g)
        if entry["triple"] != [p, q, r]:
            bad.append(f"{tag}: triple {entry['triple']}, oracles {[p, q, r]}")
        if entry["n"] != g.number_of_nodes() or entry["edges"] != g.number_of_edges():
            bad.append(f"{tag}: wrong order or size")
        if entry["alpha"] != independence_number(g):
            bad.append(f"{tag}: alpha {entry['alpha']} differs from the oracle")
        if entry["perfect_matching"] != (2 * r == g.number_of_nodes()):
            bad.append(f"{tag}: perfect_matching flag disagrees with r")
        wit = {k: [tuple(e) for e in v] for k, v in entry["optimal"].items()}
        if len(wit["maximum_matching"]) != r or not is_matching(g, wit["maximum_matching"]):
            bad.append(f"{tag}: maximum matching witness is not a matching of size {r}")
        mm = wit["minimum_maximal_matching"]
        if len(mm) != q or not is_maximal_matching(g, mm):
            bad.append(f"{tag}: minimum maximal witness is not a maximal matching of size {q}")
        im = wit["maximum_induced_matching"]
        if len(im) != p or not is_induced_matching(g, im):
            bad.append(f"{tag}: induced witness is not an induced matching of size {p}")
    return bad


def check_setup(name: str, rec: dict) -> list[str]:
    out = rec["outputs"]
    ok = {
        "census": lambda: out == [],
        "least_edges": lambda: out["value"] == 6 and out["certified"] and out["scanned"] == 0,
        "trees": lambda: out["per_order"] == [[1, 1]] and out["ok"],
        "invariants": lambda: [e["triple"] for e in out["results"]] == [[1, 2, 2]],
    }[name]()
    return [] if ok else [f"{name} setup command gave {out!r}"]


CHECKS = {
    "census": check_census,
    "least_edges": check_least_edges,
    "trees": check_trees,
    "invariants": check_invariants,
}


def main(argv: list[str]) -> int:
    name, seed, setup_path, *paths = argv
    seed = int(seed)

    def load(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    extra = (inputs.invariant_graphs(seed),) if name == "invariants" else ()
    problems = check_setup(name, load(setup_path))
    for path in paths:
        problems += CHECKS[name](load(path), seed, *extra)
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
