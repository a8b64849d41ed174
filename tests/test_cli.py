"""End-to-end checks of the command-line front end."""

import csv
import io
import json
import os
import signal
import subprocess
import sys

import pytest

import eml
from eml import __version__, extremal
from eml.cli import FORMATS, main
from eml.graphs import parse_graph6
from eml.solvers import invariant_triple


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def stripped(record: dict) -> dict:
    record = dict(record)
    record.pop("timing")
    return record


def test_invariants_literal_graph6(capsys):
    code, rec, _ = run_json(capsys, "invariants", "C~")
    assert code == 0
    assert rec["schema_version"] == 1
    (row,) = rec["outputs"]["results"]
    assert row["triple"] == [1, 2, 2]
    assert row["alpha"] == 1
    assert row["perfect_matching"] is True
    # witnesses are optimal: two disjoint edges of K_4
    assert len(row["optimal"]["maximum_matching"]) == 2


def test_invariants_file_with_bad_line(tmp_path, capsys):
    batch = tmp_path / "batch.g6"
    batch.write_text("C~\nnot_a_graph\n\nD~{\n")
    code, rec, _ = run_json(capsys, "invariants", str(batch), "--witnesses", "0")
    assert code == 0  # parse errors are reported per line, not fatal
    assert [r["n"] for r in rec["outputs"]["results"]] == [4, 5]
    (err,) = rec["outputs"]["errors"]
    assert err["line"] == 2
    assert "optimal" not in rec["outputs"]["results"][0]


def test_invariants_non_ascii_byte_is_a_line_error(tmp_path, capsys):
    batch = tmp_path / "batch.g6"
    batch.write_bytes(b"C~\n\xff\nD~{\n")
    code, rec, _ = run_json(capsys, "invariants", str(batch), "--witnesses", "0")
    assert code == 0
    assert [r["n"] for r in rec["outputs"]["results"]] == [4, 5]
    (err,) = rec["outputs"]["errors"]
    assert err["line"] == 2
    assert "outside graph6 alphabet" in err["error"]


def test_invariants_unreadable_input_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "invariants", str(tmp_path))  # a directory
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_invariants_missing_file_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "invariants", str(tmp_path / "nosuchfile.g6"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {tmp_path / 'nosuchfile.g6'}")


def test_invariants_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    code, rec, _ = run_json(capsys, "invariants", str(empty))
    assert code == 0
    assert rec["outputs"] == {"results": [], "errors": []}


def test_construct_g1_matches_stated_shape(capsys):
    code, rec, _ = run_json(capsys, "construct", "g1", "--q", "3")
    out = rec["outputs"]
    assert code == 0
    assert (out["n"], out["edges"]) == (8, 7)
    assert out["predicted_triple"] == [3, 3, 4] == out["solver_triple"]
    assert out["triple_ok"] and out["edges_ok"]
    # the emitted graph6 round-trips to the same invariants
    g = parse_graph6(out["graph6"])
    assert list(invariant_triple(g)) == [3, 3, 4]


def test_construct_hub_join_edge_count(capsys):
    code, rec, _ = run_json(capsys, "construct", "thm34-1", "--p", "2", "--q", "3")
    out = rec["outputs"]
    assert code == 0
    assert out["edges"] == 7 == out["formula_edges"]
    assert out["solver_triple"] == [2, 3, 3]


def test_construct_range_error_names_constraint(capsys):
    code, out, err = run(capsys, "construct", "g5", "--q", "3", "--r", "5")
    assert code == 2
    assert out == ""
    assert "q+2 <= r <= 2q-2" in err


def test_construct_missing_params(capsys):
    code, _, err = run(capsys, "construct", "g2", "--q", "3")
    assert code == 2
    assert "--r" in err


@pytest.mark.parametrize(
    "argv,triple",
    [
        (("construct", "kn", "--n", "5"), [1, 2, 2]),
        (("construct", "kmn", "--m", "2", "--n", "3"), [1, 2, 2]),
        (("construct", "cn", "--n", "7"), [2, 3, 3]),
        (("construct", "gr", "--r", "4"), [1, 2, 4]),
        (("construct", "g3", "--r", "3"), [3, 3, 3]),
        (("construct", "g4", "--q", "2"), [1, 2, 3]),
        (("construct", "g2", "--q", "2", "--r", "4"), [2, 2, 4]),
        (("construct", "g5", "--q", "4", "--r", "6"), [1, 4, 6]),
        (("construct", "thm34-2", "--p", "2", "--q", "3", "--r", "4"), [2, 3, 4]),
        (("construct", "thm34-3", "--p", "2", "--q", "3", "--r", "6"), [2, 3, 6]),
        (("construct", "starjoin", "--part", "A_:0:a", "--part", "A_:0:a"), [2, 2, 2]),
    ],
)
def test_construct_predictions_match_solver(capsys, argv, triple):
    code, rec, _ = run_json(capsys, *argv)
    out = rec["outputs"]
    assert code == 0
    assert out["predicted_triple"] == triple == out["solver_triple"]
    assert out["edges_ok"]


def test_construct_whisker_reports_solver_only(capsys):
    code, rec, _ = run_json(capsys, "construct", "whisker", "--base", "Bw")  # K_3
    out = rec["outputs"]
    assert code == 0
    assert out["predicted_triple"] is None
    assert out["n"] == 6 and out["edges"] == 6
    assert out["solver_triple"] == [1, 2, 3]  # pendant-per-vertex over K_3
    assert out["labels"][-1].startswith("w")


def test_compose_parts_agree_with_solver(capsys):
    code, rec, _ = run_json(
        capsys, "compose", "--part", "A_:0:a", "--part", "A_:0:a", "--part", "A_:1:b"
    )
    out = rec["outputs"]
    assert code == 0
    assert out["induced_hypotheses"]["ok"] and out["minimum_hypotheses"]["ok"]
    assert out["predicted_triple"] == out["solver_triple"] == [3, 3, 3]


def test_compose_reports_failed_hypothesis(capsys):
    # P_4 attached at an end vertex: its neighbor has degree 2, so tag "a"
    # fails the pendant-neighbor clause while the graph stays buildable.
    code, rec, _ = run_json(capsys, "compose", "--part", "Cr:1:a", "--part", "A_:0:a")
    out = rec["outputs"]
    assert code == 0
    assert not out["induced_hypotheses"]["ok"]
    assert out["predicted_triple"] is None
    assert out["solver_triple"] is not None


def test_compose_bad_part_syntax(capsys):
    code, _, err = run(capsys, "compose", "--part", "A_", "--part", "A_:0:a")
    assert code == 2
    assert "GRAPH6:ATTACH:TAG" in err


def test_search_minv_example(capsys):
    code, rec, _ = run_json(capsys, "search", "minv", "2", "2", "3")
    out = rec["outputs"]
    assert code == 0
    assert out["value"] == 6 and out["certified"]
    for w in out["witnesses"]:
        assert list(invariant_triple(parse_graph6(w))) == [2, 2, 3]


def test_search_mine_example(capsys):
    code, rec, _ = run_json(capsys, "search", "mine", "3", "3", "3")
    out = rec["outputs"]
    assert code == 0
    assert out["value"] == 6 and out["certified"]
    assert parse_graph6(out["witnesses"][0]).num_edges() == 6


def test_search_rejects_invalid_chain(capsys):
    code, _, err = run(capsys, "search", "minv", "2", "1", "1")
    assert code == 2
    assert "1 <= p <= q <= r <= 2q" in err


def test_search_budget_exhaustion_is_soft(capsys):
    code, rec, _ = run_json(capsys, "search", "mine", "1", "3", "3", "--budget-nodes", "1")
    assert code == 0  # inconclusive, not an error
    assert rec["outputs"]["inconclusive"] is True


def test_budget_exhaustion_in_worker_pool_returns():
    # an exception raised in a worker must reach the parent; it used to hang the pool
    env = {k: v for k, v in os.environ.items() if not k.startswith("EML_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(eml.__file__)), env.get("PYTHONPATH", "")]
    )
    argv = ["census", "6", "--workers", "2", "--budget-nodes", "3"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "eml.cli", *argv], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("eml census with two workers did not exit on an exhausted budget")
    assert proc.returncode == 0, err
    assert json.loads(out)["outputs"]["inconclusive"] is True


@pytest.mark.parametrize(
    "argv,line",
    [
        (["census", "6", "--format", "csv"], "inconclusive,True"),
        (["census", "6", "--format", "text"], "  inconclusive: True"),
        (["search", "mine", "1", "3", "4", "--format", "csv"], "inconclusive,True"),
    ],
)
def test_inconclusive_record_renders_as_key_value(capsys, monkeypatch, argv, line):
    monkeypatch.setattr(extremal, "_census_cache", {})  # force a fresh, budgeted scan
    code, out, _ = run(capsys, *argv, "--budget-nodes", "3")
    assert code == 0
    assert line in out.splitlines()
    assert "budget exhausted" in out


BOUNDS_ARGV = (
    "verify", "bounds", "--p-max", "2", "--q-max", "3", "--bounds-r-max", "4", "--certify-cap", "8",
)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "argv,header",
    [
        (("invariants", "C~"), "graph6,n,edges,p,q,r,alpha,perfect_matching"),
        (("construct", "kn", "--n", "4"), "key,value"),
        (("compose", "--part", "A_:0:a", "--part", "A_:0:a"), "key,value"),
        (("search", "minv", "1", "1", "1"),
         "objective,p,q,r,value,certified,lower_bound,upper_bound,scanned,searched_to,witnesses"),
        (("census", "4"), "n,p,q,r,count,min_edges"),
        (("trees", "6"), "order,trees"),
        (("verify", "notpm", "--nmax", "5"), "claim,instance,ok,expected,actual,witness"),
        (BOUNDS_ARGV, "claim,instance,ok,expected,actual,witness"),
    ],
)
def test_every_command_renders_in_every_format(capsys, argv, header, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0, err
    if fmt == "json":
        assert json.loads(out)["command"]["name"] == argv[0]
    elif fmt == "csv":
        assert out.splitlines()[0] == header
    else:
        assert out.splitlines()[0] == f"{argv[0]} (v{__version__})"


def test_verify_bounds_renders_one_row_per_entry(capsys):
    _, rec, _ = run_json(capsys, *BOUNDS_ARGV)
    families = [f"bounds/{e['family']}" for e in rec["outputs"]["bounds"]["entries"]]
    code, out, _ = run(capsys, *BOUNDS_ARGV, "--format", "csv")
    assert code == 0
    assert [row[0] for row in csv.reader(io.StringIO(out))][1:] == families
    code, out, _ = run(capsys, *BOUNDS_ARGV, "--format", "text")
    assert code == 0
    assert len(out.splitlines()) == 1 + len(families)


def test_verify_bounds_json_verdict_matches_csv(capsys):
    _, rec, _ = run_json(capsys, *BOUNDS_ARGV)
    verdicts = [str(e["ok"]) for e in rec["outputs"]["bounds"]["entries"]]
    _, out, _ = run(capsys, *BOUNDS_ARGV, "--format", "csv")
    assert [row[2] for row in csv.reader(io.StringIO(out))][1:] == verdicts


def test_search_witnesses_zero_strips_list(capsys):
    code, rec, _ = run_json(capsys, "search", "minv", "1", "1", "1", "--witnesses", "0")
    assert code == 0
    assert rec["outputs"]["value"] == 2
    assert rec["outputs"]["witnesses"] == []


def test_census_json_rows(capsys):
    code, rec, _ = run_json(capsys, "census", "4")
    assert code == 0
    rows = rec["outputs"]
    assert [r["triple"] for r in rows] == [[1, 1, 1], [1, 1, 2], [1, 2, 2]]
    assert sum(r["count"] for r in rows) == 6


def test_census_csv_layout(capsys):
    code, out, _ = run(capsys, "census", "4", "--format", "csv")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "n,p,q,r,count,min_edges"
    assert lines[1] == "4,1,1,1,1,3"
    assert len(lines) == 4


def test_trees_scan_passes(capsys):
    code, rec, _ = run_json(capsys, "trees", "8")
    out = rec["outputs"]
    assert code == 0
    assert out["total"] == 48 and out["ok"] and out["counterexample"] is None
    assert out["closure"]["ok"] and out["closure"]["states"] == 5
    assert [tree for _, tree in out["closure"]["types"]] == [[-1], [-1, 0], [-1, 0, 1]]
    assert rec["provenance"] == ["tree-conjecture"]


def test_verify_alias_and_order_cap_flag(capsys):
    code, rec, _ = run_json(capsys, "verify", "notpm", "--nmax", "6")
    assert code == 0
    assert rec["outputs"]["ok"]
    assert rec["provenance"] == ["no-perfect-matching"]


def test_verify_default_runs_all_claims(capsys):
    code, rec, _ = run_json(
        capsys, "verify", "--r-max", "2", "--order-cap", "5", "--gr-max", "4"
    )
    assert code == 0
    assert rec["outputs"]["ok"]
    assert len(rec["provenance"]) == 6


def test_verify_bounds_scope(capsys):
    code, rec, _ = run_json(
        capsys, "verify", "bounds",
        "--p-max", "2", "--q-max", "3", "--bounds-r-max", "4", "--certify-cap", "0",
    )
    assert code == 0
    assert rec["provenance"] == ["bounds"]
    assert rec["outputs"]["bounds"]["ok"]


def test_verify_conditional_is_gone(capsys):
    code, _, err = run(capsys, "verify", "conditional")
    assert code == 2
    assert "unknown claims: ['conditional']" in err


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown claims" in err


def test_determinism_across_worker_counts(capsys):
    _, rec1, _ = run_json(capsys, "search", "mine", "2", "3", "4")
    _, rec2, _ = run_json(capsys, "search", "mine", "2", "3", "4", "--workers", "2")
    # workers is an execution detail: identical record modulo timing
    assert stripped(rec1) == stripped(rec2)
    assert rec1["outputs"]["value"] == 8


def test_repeat_run_identical_modulo_timing(capsys):
    _, rec1, _ = run_json(capsys, "census", "5")
    _, rec2, _ = run_json(capsys, "census", "5")
    assert stripped(rec1) == stripped(rec2)


def test_cache_hit_replays_bytes(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "cache")
    _, out1, _ = run(capsys, "census", "5", "--cache", cache)
    # poison the census so a cache miss would crash: a hit must not recompute
    import eml.cli as cli_mod

    monkeypatch.setattr(cli_mod, "census", None)
    _, out2, _ = run(capsys, "census", "5", "--cache", cache)
    assert out1 == out2


def test_cache_key_separates_commands(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    _, out5, _ = run(capsys, "census", "5", "--cache", cache)
    _, out4, _ = run(capsys, "census", "4", "--cache", cache)
    assert out4 != out5
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_cache_corrupt_entry_discarded(tmp_path, capsys):
    cache = tmp_path / "cache"
    _, out1, _ = run(capsys, "census", "4", "--cache", str(cache))
    (entry,) = cache.glob("*.json")
    entry.write_text("garbage{")
    code, out2, err = run(capsys, "census", "4", "--cache", str(cache))
    assert code == 0
    assert "corrupt cache entry" in err
    assert json.loads(out2)["outputs"] == json.loads(out1)["outputs"]


def test_cache_unwritable_still_prints_result(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "census", "4", "--cache", str(blocker / "cache"))
    assert code == 0
    assert len(json.loads(out)["outputs"]) == 3
    assert "warning: cannot write cache entry" in err


def test_cache_version_bump_misses(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "cache")
    run(capsys, "census", "4", "--cache", cache)
    import eml.cli as cli_mod

    monkeypatch.setattr(cli_mod, "__version__", __version__ + ".post1")
    code, out, _ = run(capsys, "census", "4", "--cache", cache)
    assert code == 0  # recomputed under the new key rather than replaying stale bytes
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_env_overrides_format(capsys, monkeypatch):
    monkeypatch.setenv("EML_FORMAT", "csv")
    code, out, _ = run(capsys, "census", "3")
    assert code == 0
    assert out.splitlines()[0] == "n,p,q,r,count,min_edges"


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("EML_FORMAT", "csv")
    code, rec, _ = run_json(capsys, "census", "3", "--format", "json")
    assert code == 0
    assert rec["command"]["format"] == "json"


def test_env_invalid_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("EML_WORKERS", "many")
    code, _, err = run(capsys, "census", "3")
    assert code == 2
    assert "EML_WORKERS" in err


def test_witnesses_out_of_range(capsys):
    code, _, err = run(capsys, "census", "4", "--witnesses", "9")
    assert code == 2
    assert "0..4" in err


def test_text_format_smoke(capsys):
    code, out, _ = run(capsys, "search", "minv", "1", "2", "2", "--format", "text")
    assert code == 0
    assert "value=4" in out and "witness" in out
