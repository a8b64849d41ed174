"""Command-line front end: graph6 in, JSON/CSV/text records out.

Every invocation builds one ResultRecord: a schema-versioned envelope with
the normalized command echo, inputs, outputs, the claim ids a verification
touched, and wall-clock timing.  JSON output is deterministic (sorted keys,
nested elapsed fields stripped) so identical configurations are
byte-comparable across runs and worker counts; only the top-level timing
field varies.  An optional content-addressed cache keyed by the normalized
command plus the package version replays earlier output byte-for-byte.

Each command handler returns its CSV rows (header first) and its text
lines along with its JSON outputs, built from the same results, so each
output shape is written once and the renderers never ask which command ran.

Exit codes: 0 for success or an inconclusive-within-budget result, 1 when
a verification claim is refuted, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import time
from math import comb

from eml import __version__
from eml.canon import canonical_form
from eml.enumeration import MAX_TREE_ORDER
from eml.extremal import (
    CLAIM_IDS,
    census,
    check_upper_bounds,
    min_edges,
    min_vertices,
    tree_closure,
    tree_conjecture_check,
    verify_theorems,
)
from eml.families import (
    bound34_1,
    bound34_2,
    bound34_3,
    complete,
    complete_bipartite,
    cycle,
    f1,
    g1,
    g2,
    g3,
    g4,
    g5,
    g_r,
    whisker,
)
from eml.graphs import (
    CapacityError,
    Graph6ParseError,
    InputError,
    emit_graph6,
    parse_graph6,
)
from eml.solvers import (
    BudgetExceeded,
    SolverBudget,
    checked_triple,
    independence_number,
    invariant_triple,
    maximum_induced_matching,
    maximum_matching,
    minimum_maximal_matching,
)
from eml.starjoin import (
    StarJoinSpec,
    check_thm_ind_hypotheses,
    check_thm_min_hypotheses,
    extremal_spec_1,
    extremal_spec_2,
    extremal_spec_3,
    predicted_invariants,
    star_join,
)

SCHEMA_VERSION = 1
FORMATS = ("json", "csv", "text")

# short aliases accepted by `verify` alongside the canonical claim ids
CLAIM_ALIASES = {
    "notpm": "no-perfect-matching",
    "floors": "edge-count-floors",
    "minv": "least-order-formula",
    "mine": "least-edges-formulas",
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    budget_nodes: int | None
    budget_seconds: float | None
    workers: int | None
    fmt: str
    cache: str | None
    witnesses: int

    def solver_budget(self) -> SolverBudget | None:
        if self.budget_nodes is None and self.budget_seconds is None:
            return None
        return SolverBudget(self.budget_nodes, self.budget_seconds)

    def normalized(self) -> dict:
        return {
            "name": self.command,
            "params": self.params,
            "budget_nodes": self.budget_nodes,
            "budget_seconds": self.budget_seconds,
            "witnesses": self.witnesses,
            "format": self.fmt,
        }


@dataclasses.dataclass(frozen=True)
class ResultRecord:
    schema_version: int
    command: dict
    inputs: dict
    outputs: object
    provenance: tuple[str, ...]
    timing: float


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, (list, tuple)):
        return [_strip_elapsed(v) for v in obj]
    return obj


def _record_dict(record: ResultRecord) -> dict:
    d = dataclasses.asdict(record)
    d["outputs"] = _strip_elapsed(d["outputs"])
    return d


def _env(name: str, cast, default=None):
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise InputError(f"environment variable {name}={raw!r} is not valid")


# ---------------------------------------------------------------------------
# command handlers: each returns (inputs, outputs, rows, lines, provenance,
# exit_code), where outputs is the JSON payload, rows the CSV rows (header
# first) and lines the text lines, all built from the same results
# ---------------------------------------------------------------------------


def _key_value(outputs: dict):
    """CSV rows and text lines of a flat key/value record."""
    items = sorted(outputs.items())
    rows = [["key", "value"]] + [
        [key, json.dumps(value, sort_keys=True) if isinstance(value, (dict, list)) else value]
        for key, value in items
    ]
    return rows, [f"{key}: {value}" for key, value in items]


def _cmd_invariants(cfg: RunConfig):
    source = cfg.params["input"]
    try:
        if source == "-":
            lines = sys.stdin.read().splitlines()
            origin = "<stdin>"
        elif os.path.exists(source):
            # undecodable bytes become per-line graph6 errors, as on stdin
            with open(source, encoding="ascii", errors="surrogateescape") as fh:
                lines = fh.read().splitlines()
            origin = source
        else:
            parse_graph6(source)  # a literal argument must itself be graph6
            lines = [source]
            origin = "<argument>"
    except OSError as exc:
        raise InputError(f"cannot read {source}: {exc}")
    except Graph6ParseError as exc:
        raise InputError(f"cannot read {source}: no such file, and not graph6 ({exc})")
    budget = cfg.solver_budget()
    results = []
    errors = []
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
            if cfg.witnesses >= 1:
                # the witness sizes are the triple; solved in the order r, q, p
                optimal = {
                    "maximum_matching": maximum_matching(g, budget),
                    "minimum_maximal_matching": minimum_maximal_matching(g, budget),
                    "maximum_induced_matching": maximum_induced_matching(g, budget),
                }
                r, q, p = map(len, optimal.values())
                p, q, r = checked_triple(g, p, q, r)
            else:
                p, q, r = invariant_triple(g, budget)
            entry = {
                "graph6": text,
                "n": g.n,
                "edges": g.num_edges(),
                "triple": [p, q, r],
                "alpha": independence_number(g, budget),
                "perfect_matching": 2 * r == g.n,
            }
            if cfg.witnesses >= 1:
                entry["optimal"] = {key: [list(e) for e in edges] for key, edges in optimal.items()}
            results.append(entry)
        except (Graph6ParseError, InputError, CapacityError) as exc:
            errors.append({"line": lineno, "text": text, "error": str(exc)})
        except BudgetExceeded as exc:
            errors.append({"line": lineno, "text": text, "error": str(exc), "inconclusive": True})
    rows = [["graph6", "n", "edges", "p", "q", "r", "alpha", "perfect_matching"]] + [
        [e["graph6"], e["n"], e["edges"], *e["triple"], e["alpha"], e["perfect_matching"]]
        for e in results
    ]
    text_lines = [
        f"{e['graph6']}: triple={tuple(e['triple'])} alpha={e['alpha']}"
        f" perfect_matching={e['perfect_matching']}"
        for e in results
    ] + [f"line {err['line']}: ERROR {err['error']}" for err in errors]
    inputs = {"source": origin, "lines": len(lines)}
    return inputs, {"results": results, "errors": errors}, rows, text_lines, (), 0


def _parse_parts(texts, command: str) -> StarJoinSpec:
    if len(texts or ()) < 2:
        raise InputError(f"{command} requires at least two --part GRAPH6:ATTACH:TAG")
    parts = []
    for text in texts:
        try:
            g6, attach, tag = text.rsplit(":", 2)
            parts.append((parse_graph6(g6), int(attach), tag))
        except (ValueError, Graph6ParseError) as exc:
            raise InputError(f"part {text!r} is not GRAPH6:ATTACH:TAG ({exc})")
    return StarJoinSpec(tuple(parts))


def _whisker(base_text: str):
    base = parse_graph6(base_text)
    return whisker(base), None, base.num_edges() + base.n, {"base_order": base.n}


def _starjoin(texts):
    spec = _parse_parts(texts, "starjoin")
    g = star_join(spec)
    try:
        predicted = tuple(predicted_invariants(spec))
    except InputError:
        predicted = None
    return g, predicted, None, {"parts": len(texts)}


# family -> (options it needs, builder called with their values).  A builder
# returns the graph, the predicted triple (None where no formula applies) and
# the formula edge count (None where there is none), then optionally a dict of
# extra output fields.
FAMILIES = {
    "kn": (("n",), lambda n: (complete(n), (1, n // 2, n // 2) if n >= 2 else None, comb(n, 2))),
    "kmn": (("m", "n"), lambda m, n: (complete_bipartite(m, n), (1, min(m, n), min(m, n)), m * n)),
    "cn": (("n",), lambda n: (cycle(n), (n // 3, -(-n // 3), n // 2), n)),
    "whisker": (("base",), _whisker),
    "gr": (("r",), lambda r: (g_r(r), (1, (r + 1) // 2, r), comb(r + 1, 2))),
    "g1": (("q",), lambda q: (g1(q), (q, q, q + 1), 2 * q + 1)),
    "g2": (("q", "r"), lambda q, r: (g2(q, r), (q, q, r), 2 * r - 1)),
    "g3": (("r",), lambda r: (g3(r), (r, r, r), 2 * r)),
    "g4": (("q",), lambda q: (g4(q), (1, q, q + 1), q * q + 2)),
    "g5": (("q", "r"), lambda q, r: (g5(q, r), (1, q, r), f1(q, r))),
    "starjoin": (("part",), _starjoin),
    "thm34-1": (("p", "q"), lambda p, q: (
        star_join(extremal_spec_1(p, q)), (p, q, q), bound34_1(p, q))),
    "thm34-2": (("p", "q", "r"), lambda p, q, r: (
        star_join(extremal_spec_2(p, q, r)), (p, q, r), bound34_2(p, q, r))),
    "thm34-3": (("p", "q", "r"), lambda p, q, r: (
        star_join(extremal_spec_3(p, q, r)), (p, q, r), bound34_3(p, q, r))),
}


def _cmd_construct(cfg: RunConfig):
    params = cfg.params
    family = params["family"]
    names, build = FAMILIES[family]
    # a short part list is reported by _parse_parts
    missing = ["--" + k for k in names if params[k] is None and k != "part"]
    if missing:
        raise InputError(f"{family} requires {', '.join(missing)}")
    g, predicted, formula_edges, *extra = build(*(params[k] for k in names))
    budget = cfg.solver_budget()
    solver = tuple(invariant_triple(g, budget)) if g.num_edges() else None
    outputs = {
        "family": family,
        "graph6": emit_graph6(g),
        "canonical": canonical_form(g),
        "n": g.n,
        "edges": g.num_edges(),
        "labels": [g.label_of(v) for v in range(g.n)],
        "predicted_triple": list(predicted) if predicted else None,
        "solver_triple": list(solver) if solver else None,
        "formula_edges": formula_edges,
        "triple_ok": predicted is None or solver == predicted,
        "edges_ok": formula_edges is None or g.num_edges() == formula_edges,
        **dict(*extra),
    }
    return {"params": params}, outputs, *_key_value(outputs), (), 0


def _part_report_dict(report) -> dict:
    return {
        "ok": report.ok,
        "parts": [
            {"index": pr.index, "ok": pr.ok, "problems": list(pr.problems), "notes": list(pr.notes)}
            for pr in report.parts
        ],
    }


def _cmd_compose(cfg: RunConfig):
    parts = cfg.params.get("part") or []
    spec = _parse_parts(parts, "compose")
    budget = cfg.solver_budget()
    g = star_join(spec)
    ind_rep = check_thm_ind_hypotheses(spec)
    min_rep = check_thm_min_hypotheses(spec, budget)
    solver = tuple(invariant_triple(g, budget))
    predicted = None
    if ind_rep.ok and min_rep.ok:
        predicted = tuple(predicted_invariants(spec, budget))
    outputs = {
        "graph6": emit_graph6(g),
        "n": g.n,
        "edges": g.num_edges(),
        "labels": [g.label_of(v) for v in range(g.n)],
        "induced_hypotheses": _part_report_dict(ind_rep),
        "minimum_hypotheses": _part_report_dict(min_rep),
        "predicted_triple": list(predicted) if predicted else None,
        "solver_triple": list(solver),
        "triple_ok": predicted is None or predicted == solver,
    }
    return {"parts": parts}, outputs, *_key_value(outputs), (), 0


def _cmd_search(cfg: RunConfig):
    p = cfg.params
    limit = max(cfg.witnesses, 1)
    kwargs = dict(
        workers=cfg.workers, witness_limit=limit, budget=cfg.solver_budget()
    )
    if p["objective"] == "minv":
        report = min_vertices(p["p"], p["q"], p["r"], n_budget=p.get("n_budget"), **kwargs)
    else:
        report = min_edges(p["p"], p["q"], p["r"], edge_budget=p.get("edge_budget"), **kwargs)
    witnesses = list(report.witnesses) if cfg.witnesses else []
    outputs = {**dataclasses.asdict(report), "witnesses": witnesses}
    rows = [
        ["objective", "p", "q", "r", "value", "certified", "lower_bound",
         "upper_bound", "scanned", "searched_to", "witnesses"],
        [report.objective, *report.target, report.value, report.certified,
         report.lower_bound, report.upper_bound, report.scanned,
         report.searched_to, " ".join(witnesses)],
    ]
    lines = [
        f"target={report.target} {report.objective}:"
        f" value={report.value} certified={report.certified}"
        f" bounds=[{report.lower_bound}, {report.upper_bound}]"
        f" scanned={report.scanned}",
        *(f"witness {w}" for w in witnesses),
    ]
    return {"triple": [p["p"], p["q"], p["r"]]}, outputs, rows, lines, (), 0


def _cmd_census(cfg: RunConfig):
    n = cfg.params["n"]
    result = census(n, workers=cfg.workers, budget=cfg.solver_budget())
    outputs = [
        {
            "n": row.n,
            "triple": list(row.triple),
            "count": row.count,
            "min_edges": row.min_edges,
            "witnesses": list(row.witnesses[: cfg.witnesses]),
        }
        for row in result
    ]
    rows = [["n", "p", "q", "r", "count", "min_edges"]] + [
        [row.n, *row.triple, row.count, row.min_edges] for row in result
    ]
    lines = [
        f"n={row.n} triple={row.triple} count={row.count}"
        f" min_edges={row.min_edges} witnesses={','.join(row.witnesses[: cfg.witnesses])}"
        for row in result
    ]
    return {"n": n}, outputs, rows, lines, (), 0


def _cmd_trees(cfg: RunConfig):
    report = tree_conjecture_check(cfg.params["n_max"])
    closure = tree_closure()
    outputs = {
        "n_max": report.n_max,
        "total": report.total,
        "per_order": [list(pair) for pair in report.per_order],
        "counterexample": list(report.counterexample) if report.counterexample else None,
        "ok": report.ok,
        "closure": dataclasses.asdict(closure),
    }
    rows = [["order", "trees"], *outputs["per_order"]]
    lines = [f"order {order}: {count} trees, no counterexample" for order, count in report.per_order]
    if report.counterexample:
        g6, ind, low = report.counterexample
        lines.append(f"COUNTEREXAMPLE {g6}: induced={ind} minimum={low}")
    lines.append(f"closure: {closure.states} states, {len(closure.types)} types, ok={closure.ok}")
    code = 0 if report.ok and closure.ok else 1
    return {"n_max": cfg.params["n_max"]}, outputs, rows, lines, ("tree-conjecture",), code


def _cmd_verify(cfg: RunConfig):
    p = cfg.params
    requested = p.get("claims") or []
    canon_claims = [CLAIM_ALIASES.get(name, name) for name in requested]
    run_bounds = "bounds" in canon_claims
    theorem_claims = [c for c in canon_claims if c != "bounds"]
    unknown = set(theorem_claims) - set(CLAIM_IDS)
    if unknown:
        raise InputError(f"unknown claims: {sorted(unknown)}; known: {list(CLAIM_IDS) + ['bounds']}")
    outputs = {}
    rows = [["claim", "instance", "ok", "expected", "actual", "witness"]]
    lines = []
    provenance = []
    failed = False
    if theorem_claims or not run_bounds:
        selection = theorem_claims or None
        rep = verify_theorems(
            select=selection,
            r_max=p["r_max"],
            order_cap=p["order_cap"],
            gr_max=p["gr_max"],
            workers=cfg.workers,
            budget=cfg.solver_budget(),
        )
        outputs["claims"] = [dataclasses.asdict(c) for c in rep.claims]
        outputs["ok"] = rep.ok
        for c in rep.claims:
            rows.append([c.claim, c.instance, c.ok, c.expected, c.actual, c.witness])
            lines.append(f"[{'pass' if c.ok else 'FAIL'}] {c.claim} {c.instance}: {c.actual}")
        provenance.extend(sorted({c.claim for c in rep.claims}))
        failed |= not rep.ok
    if run_bounds:
        rep = check_upper_bounds(
            p_max=p["p_max"],
            q_max=p["q_max"],
            r_max=p["bounds_r_max"],
            certify_cap=p["certify_cap"],
            workers=cfg.workers,
            budget=cfg.solver_budget(),
        )
        outputs["bounds"] = {
            "ok": rep.ok,
            "entries": [{**dataclasses.asdict(e), "ok": e.ok} for e in rep.entries],
        }
        for e in rep.entries:
            rows.append([f"bounds/{e.family}", e.target, e.ok, f"<= {e.bound}", e.witness_edges, e.gap])
            gap = f" gap={e.gap}" if e.gap is not None else ""
            lines.append(f"[{'pass' if e.ok else 'FAIL'}] {e.family} {e.target} <= {e.bound}{gap}")
        provenance.append("bounds")
        failed |= not rep.ok
    return {"claims": requested}, outputs, rows, lines, tuple(provenance), 1 if failed else 0


_HANDLERS = {
    "invariants": _cmd_invariants,
    "construct": _cmd_construct,
    "compose": _cmd_compose,
    "search": _cmd_search,
    "census": _cmd_census,
    "verify": _cmd_verify,
    "trees": _cmd_trees,
}


# ---------------------------------------------------------------------------
# rendering: JSON from the record; CSV and text from the handler's rows and lines
# ---------------------------------------------------------------------------


def _render_json(record: ResultRecord) -> str:
    return json.dumps(_record_dict(record), sort_keys=True, indent=2) + "\n"


def _render_csv(rows) -> str:
    sink = io.StringIO()
    csv.writer(sink, lineterminator="\n").writerows(rows)
    return sink.getvalue()


def _render_text(command: str, lines) -> str:
    return "\n".join([f"{command} (v{__version__})", *("  " + line for line in lines)]) + "\n"


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _cache_key(cfg: RunConfig) -> tuple[str, str]:
    material = json.dumps(
        {"command": cfg.normalized(), "version": __version__}, sort_keys=True
    )
    return hashlib.sha256(material.encode()).hexdigest(), material


def cache_get(cfg: RunConfig) -> tuple[str, int] | None:
    """Cached (payload, exit_code) for this config, or None."""
    if not cfg.cache:
        return None
    digest, material = _cache_key(cfg)
    path = os.path.join(cfg.cache, digest + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        if entry["key_material"] != material:
            return None  # stale or colliding entry: recompute
        return entry["payload"], int(entry["exit_code"])
    except (OSError, ValueError, KeyError) as exc:
        print(f"warning: discarding corrupt cache entry {path}: {exc}", file=sys.stderr)
        return None


def cache_put(cfg: RunConfig, payload: str, exit_code: int) -> None:
    if not cfg.cache:
        return
    digest, material = _cache_key(cfg)
    path = os.path.join(cfg.cache, digest + ".json")
    entry = {"key_material": material, "payload": payload, "exit_code": exit_code}
    tmp = path + ".tmp"
    try:
        os.makedirs(cfg.cache, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        os.replace(tmp, path)
    except OSError as exc:  # the result is still printed; only the replay is lost
        print(f"warning: cannot write cache entry {path}: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eml",
        description="Exact matching-invariant toolkit for small connected graphs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget-nodes", type=int, default=_env("EML_BUDGET_NODES", int))
    common.add_argument("--budget-seconds", type=float, default=_env("EML_BUDGET_SECONDS", float))
    common.add_argument("--workers", type=int, default=_env("EML_WORKERS", int))
    common.add_argument("--format", choices=FORMATS, default=_env("EML_FORMAT", str, "json"))
    common.add_argument("--cache", default=_env("EML_CACHE", str))
    common.add_argument("--witnesses", type=int, default=_env("EML_WITNESSES", int, 1),
                        help="how many witnesses to include (0-4)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", parents=[common],
                           help="invariant triple per graph6 line")
    p_inv.add_argument("input", help="graph6 string, file of graph6 lines, or - for stdin")

    p_con = sub.add_parser("construct", parents=[common], help="build a named family member")
    p_con.add_argument("family", choices=FAMILIES)
    p_con.add_argument("--n", type=int)
    p_con.add_argument("--m", type=int)
    p_con.add_argument("--p", type=int)
    p_con.add_argument("--q", type=int)
    p_con.add_argument("--r", type=int)
    p_con.add_argument("--base", help="graph6 of the base graph (whisker)")
    p_con.add_argument("--part", action="append", help="GRAPH6:ATTACH:TAG (starjoin)")

    p_com = sub.add_parser("compose", parents=[common],
                           help="join parts at a hub and check the composition hypotheses")
    p_com.add_argument("--part", action="append", required=True,
                       help="GRAPH6:ATTACH:TAG with tag a (attach vertex has a degree-1"
                            " neighbor) or b (part is complete bipartite)")

    p_sea = sub.add_parser("search", parents=[common],
                           help="certified least order / least edge count for a triple")
    p_sea.add_argument("objective", choices=("minv", "mine"))
    p_sea.add_argument("p", type=int)
    p_sea.add_argument("q", type=int)
    p_sea.add_argument("r", type=int)
    p_sea.add_argument("--n-budget", type=int, dest="n_budget")
    p_sea.add_argument("--edge-budget", type=int, dest="edge_budget")

    p_cen = sub.add_parser("census", parents=[common],
                           help="triple census over connected graphs of one order")
    p_cen.add_argument("n", type=int)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="machine-check claims (default: all closed-form claims)")
    p_ver.add_argument("claims", nargs="*",
                       help=f"claim ids from {', '.join(CLAIM_IDS)}; or bounds")
    p_ver.add_argument("--r-max", type=int, default=4)
    p_ver.add_argument("--order-cap", "--nmax", type=int, default=8, dest="order_cap")
    p_ver.add_argument("--gr-max", type=int, default=12)
    p_ver.add_argument("--p-max", type=int, default=4)
    p_ver.add_argument("--q-max", type=int, default=7)
    p_ver.add_argument("--bounds-r-max", type=int, default=8)
    p_ver.add_argument("--certify-cap", type=int, default=11)

    p_tre = sub.add_parser("trees", parents=[common],
                           help="prove induced == minimum on every tree; scan all trees up to an order")
    p_tre.add_argument("n_max", type=int, help=f"max order (<= {MAX_TREE_ORDER})")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.format not in FORMATS:
        raise InputError(f"format {args.format!r} not one of {FORMATS}")
    if not 0 <= args.witnesses <= 4:
        raise InputError("--witnesses must be 0..4")
    skip = {
        "command", "budget_nodes", "budget_seconds", "workers", "format",
        "cache", "witnesses",
    }
    params = {k: v for k, v in vars(args).items() if k not in skip}
    return RunConfig(
        command=args.command,
        params=params,
        budget_nodes=args.budget_nodes,
        budget_seconds=args.budget_seconds,
        workers=args.workers,
        fmt=args.format,
        cache=args.cache,
        witnesses=args.witnesses,
    )


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)  # env defaults resolve here too
        cfg = _config_from_args(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cached = cache_get(cfg)
    if cached is not None:
        payload, code = cached
        sys.stdout.write(payload)
        return code
    started = time.perf_counter()
    try:
        inputs, outputs, rows, lines, provenance, code = _HANDLERS[cfg.command](cfg)
    except (InputError, CapacityError, Graph6ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        inputs = {"params": cfg.params}
        outputs = {"inconclusive": True, "reason": str(exc)}
        rows, lines = _key_value(outputs)
        provenance, code = (), 0
    record = ResultRecord(
        schema_version=SCHEMA_VERSION,
        command=cfg.normalized(),
        inputs=inputs,
        outputs=outputs,
        provenance=tuple(provenance),
        timing=round(time.perf_counter() - started, 6),
    )
    if cfg.fmt == "csv":
        payload = _render_csv(rows)
    elif cfg.fmt == "text":
        payload = _render_text(cfg.command, lines)
    else:
        payload = _render_json(record)
    cache_put(cfg, payload, code)
    sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
