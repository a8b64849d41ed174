"""The traced run: per-layer metrics from in-process calls into eml.

Every block below times one layer through its public functions.  Counts
come from wrappers installed on the names the modules import (for example
eml.enumeration.key_and_order), and spans (name, start, end, parent) are
kept in memory and written to bench/out/trace-<workload>.tsv when
the run ends.  The suite is the same for every workload, so every traced
run reports every per-layer metric.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from array import array
from contextlib import ExitStack, contextmanager
from math import comb
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent


class Tracer:
    """Spans in parallel arrays; a span's parent is the span open around it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def wrap_generator(self, name: str, fn):
        """Each step of the generator is one span; none is open across a yield."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                yield item

        return traced

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Self time per layer (the name's prefix) over spans first..last-1."""
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(first, last):
            layer = self.names[self.name[i]].split(".")[0]
            own = self.end[i] - self.start[i] - child[i - first]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.7f}"
                    f"\t{self.end[i] - t0:.7f}\t{self.parent[i]}\n"
                )


@contextmanager
def patched(module, name: str, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


def _pool_child(workers: int, env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "pool_child.py"), str(workers)],
        env=env, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise SystemExit(f"pool_child.py {workers} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run(workload: str, seed: int, deadline: float, out_dir: Path, env: dict) -> dict:
    import eml.enumeration as enumeration
    import eml.extremal as extremal
    from eml.canon import canonical_form
    from eml.graphs import Graph, parse_graph6
    from eml.solvers import (
        independence_number,
        induced_matching_number,
        matching_number,
        maximum_induced_matching,
        maximum_matching,
        min_maximal_matching_number,
        minimum_maximal_matching,
    )

    tr = Tracer()
    m: dict[str, tuple[float, str]] = {}
    bad: list[str] = []
    blocks = 0

    # -- enumeration: connected order-8 classes, counting canonical labelings
    calls = 0
    key_and_order = enumeration.key_and_order

    def counting(adj, n):
        nonlocal calls
        calls += 1
        return key_and_order(adj, n)

    with patched(enumeration, "key_and_order", counting), tr.span("enumeration.connected_8") as s:
        classes = list(enumeration.enumerate_connected_graphs(8))
    enum_s = tr.duration(s)
    blocks += 1
    m["enumeration.classes"] = (len(classes), "count")
    m["enumeration.classes_per_s"] = (len(classes) / enum_s, "1/s")
    m["canon.calls_per_class"] = (calls / len(classes), "count")

    # -- canon: canonical_form of every class under a seeded relabeling
    rng = random.Random(f"canon:{seed}")
    relabeled = []
    for g in classes:
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled.append(Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    with tr.span("canon.canonical_form") as s:
        forms = [canonical_form(h) for h in relabeled]
    blocks += 1
    m["canon.labels_per_s"] = (len(forms) / tr.duration(s), "1/s")
    if len(set(forms)) != len(classes):
        bad.append("canonical forms of distinct classes collide")
    for i in rng.sample(range(len(classes)), 64):
        if canonical_form(classes[i]) != forms[i]:
            bad.append(f"canonical form changed under relabeling of class {i}")

    # -- solvers over every order-8 class
    class_solver_s = 0.0
    values = {}
    for key, fn in (
        ("r", matching_number),
        ("q", min_maximal_matching_number),
        ("p", induced_matching_number),
    ):
        with tr.span(f"solvers.{key}_order8") as s:
            values[key] = [fn(g) for g in classes]
        blocks += 1
        class_solver_s += tr.duration(s)
        m[f"solvers.{key}_per_s"] = (len(classes) / tr.duration(s), "1/s")
    if any(not p <= q <= r <= 2 * q for p, q, r in zip(values["p"], values["q"], values["r"])):
        bad.append("solver values over order-8 classes break p <= q <= r <= 2q")

    # -- the census itself, with a span around every call into each layer
    with ExitStack() as stack:
        for module, name, label, wrap in (
            (enumeration, "key_and_order", "canon.key_and_order", tr.wrap),
            (extremal, "seed_level", "enumeration.seed_level", tr.wrap),
            (extremal, "descend", "enumeration.descend", tr.wrap_generator),
            (extremal, "invariant_triple", "solvers.invariant_triple", tr.wrap),
        ):
            stack.enter_context(patched(module, name, wrap(label, getattr(module, name))))
        root = tr.open("extremal.census_8")
        rows = extremal.census(8, workers=1)
        tr.close(root)
    blocks += 1
    census_s = tr.duration(root)
    for layer, seconds in tr.self_times(root, len(tr.start)).items():
        m[f"{layer}.self_s"] = (seconds, "s")
    m["trace.census_s"] = (census_s, "s")
    # the untraced census is the same enumeration plus r, q and p per class
    m["trace.overhead"] = (census_s / (enum_s + class_solver_s), "ratio")
    counted = sum(row.count for row in rows)
    if not counted == len(classes) == inputs.A001349_8:
        bad.append(
            f"census 8 counts {counted}, enumeration {len(classes)}, "
            f"A001349(8) {inputs.A001349_8}"
        )

    # -- graph6 parsing and the solvers over the invariants workload's file
    lines = inputs.invariant_graphs(seed)
    rounds = 20  # one round takes a few milliseconds
    with tr.span("graphs.parse_graph6") as s:
        for _ in range(rounds):
            graphs = [parse_graph6(line) for line in lines]
    blocks += 1
    m["graphs.parse_per_s"] = (rounds * len(lines) / tr.duration(s), "1/s")
    sizes = {}
    for metric, fn in (
        ("solvers.r_s", matching_number),
        ("solvers.q_s", min_maximal_matching_number),
        ("solvers.p_s", induced_matching_number),
        ("solvers.alpha_s", independence_number),
        ("witness.r_s", maximum_matching),
        ("witness.q_s", minimum_maximal_matching),
        ("witness.p_s", maximum_induced_matching),
    ):
        with tr.span(metric[:-2]) as s:
            sizes[metric] = [fn(g) for g in graphs]
        blocks += 1
        m[metric] = (tr.duration(s), "s")
    for key in "rqp":
        if [len(w) for w in sizes[f"witness.{key}_s"]] != sizes[f"solvers.{key}_s"]:
            bad.append(f"{key} witnesses differ in size from the {key} values")

    # -- trees: leaf-augmentation generation at order 16, then p and q
    with tr.span("trees.enumerate_16") as s:
        trees = list(enumeration.enumerate_trees(16))
    blocks += 1
    m["trees.emitted"] = (len(trees), "count")
    m["trees.gen_per_s"] = (len(trees) / tr.duration(s), "1/s")
    tree_values = {}
    for key, fn in (("p", induced_matching_number), ("q", min_maximal_matching_number)):
        with tr.span(f"trees.{key}_16") as s:
            tree_values[key] = [fn(t) for t in trees]
        blocks += 1
        m[f"trees.{key}_per_s"] = (len(trees) / tr.duration(s), "1/s")
    if len(trees) != inputs.A000055[15]:
        bad.append(f"{len(trees)} trees of order 16, A000055 says {inputs.A000055[15]}")
    if tree_values["p"] != tree_values["q"]:
        bad.append("a tree of order 16 has p != q")

    # -- worker pool: min_edges(1, 3, 4) in fresh processes at 1 and 2 workers
    runs = {}
    for workers in (1, 2):
        with tr.span(f"extremal.min_edges_{workers}w"):
            runs[workers] = _pool_child(workers, env, deadline)
        blocks += 1
    one, two = runs[1], runs[2]
    m["extremal.pool_1w_s"] = (one["seconds"], "s")
    m["extremal.pool_2w_s"] = (two["seconds"], "s")
    m["extremal.pool_speedup"] = (one["seconds"] / two["seconds"], "ratio")
    m["extremal.scanned"] = (one["report"]["scanned"], "count")
    m["canon.calls_per_scanned"] = (one["calls"] / one["report"]["scanned"], "count")
    if one["report"] != two["report"]:
        bad.append("min_edges(1, 3, 4) reports differ between 1 and 2 workers")
    value = one["report"]["value"]
    if not one["report"]["certified"] or value is None or not comb(5, 2) <= value <= 11:
        bad.append(f"min_edges(1, 3, 4) gave {one['report']}")

    tr.write(out_dir / f"trace-{workload}.tsv")
    return {
        "correct": not bad,
        "attempted": blocks,
        "failed": 0,
        "problems": bad,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())},
    }
