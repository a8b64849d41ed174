#!/usr/bin/env python3
"""Benchmark of the eml command line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ./src.
With --trace 0 each timed repetition launches `python3 -m eml.cli` in a
fresh process, with every EML_* variable removed from its environment, and
checks its output off the clock.  A fresh process matters: extremal.census
memoises per process, and an inherited EML_CACHE would replay stored bytes.
With --trace 1 the per-layer suite in bench/trace_layers.py runs in this process.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
BENCH_DEADLINE_S = 170.0  # every launch is killed past this, so a run ends in 180 s


def child_env() -> dict[str, str]:
    """The caller's environment without EML_* defaults, importing eml from
    ./src, and caching bytecode as an installed package would."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EML_")}
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Launch:
    """One finished `eml` process: wall and CPU time, peak RSS, exit code.

    Standard output goes to out_path, to be checked off the clock.
    """

    def __init__(self, argv: list[str], out_path: Path, deadline: float):
        err_path = OUT / "stderr.txt"
        with open(out_path, "wb") as sink, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "eml.cli", *argv],
                cwd=ROOT, env=child_env(), stdout=sink, stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(
                max(deadline - time.monotonic(), 0.0), _kill_group, (proc.pid,)
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.stderr = err_path.read_text(errors="replace")
        self.cpu_s = usage.ru_utime + usage.ru_stime  # includes reaped pool workers
        self.peak_rss_mb = usage.ru_maxrss / 1024  # largest of it and its reaped children


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


SETUP_GRAPH = "C~"  # K4, triple (1, 2, 2)


def workload_commands(name: str, seed: int) -> tuple[list[str], list[str]]:
    """(timed argv, setup argv) of one workload.  The setup command is the
    same subcommand on a request it answers at once."""
    if name == "census":
        return ["census", "8", "--workers", "1", "--witnesses", "4"], ["census", "1"]
    if name == "least_edges":
        return ["search", "mine", "1", "3", "4", "--workers", "2"], ["search", "mine", "3", "3", "3"]
    if name == "trees":
        return ["trees", "16"], ["trees", "1"]
    path = OUT / f"invariants-{seed}.g6"
    path.write_text("\n".join(inputs.invariant_graphs(seed)) + "\n", encoding="ascii")
    one = OUT / "setup.g6"
    one.write_text(SETUP_GRAPH + "\n", encoding="ascii")
    return (
        ["invariants", str(path.relative_to(ROOT))],
        ["invariants", str(one.relative_to(ROOT))],
    )


WORKLOADS = ("census", "least_edges", "trees", "invariants")


def run_untraced(name: str, seed: int, seconds: float, deadline: float) -> dict:
    timed, setup_argv = workload_commands(name, seed)
    setup_path = OUT / f"{name}-setup.json"
    setup = Launch(setup_argv, setup_path, deadline)
    if setup.code != 0:
        raise SystemExit(f"setup command {setup_argv} failed:\n{setup.stderr}")
    attempted = 1
    reps: list[Launch] = []
    outputs: list[str] = []
    while not reps or sum(r.wall_s for r in reps) < seconds:
        path = OUT / f"{name}-rep{attempted}.json"
        rep = Launch(timed, path, deadline)
        attempted += 1
        if rep.code != 0:
            raise SystemExit(f"{timed} exited {rep.code}:\n{rep.stderr[-2000:]}")
        reps.append(rep)
        outputs.append(str(path))
    checker = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "checks.py"), name, str(seed),
         str(setup_path), *outputs],
        capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0),
    )
    if checker.returncode != 0:
        raise SystemExit(f"checks.py failed:\n{checker.stderr}")
    problems = json.loads(checker.stdout.splitlines()[-1])

    def med(attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in reps)

    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "problems": problems,
        "metrics": {
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
            "setup_s": {"value": setup.wall_s, "unit": "s"},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "eml" / "cli.py").is_file():
        print(f"error: no eml sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BENCH_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    if args.trace:
        sys.path.insert(0, str(SRC))
        import trace_layers

        result = trace_layers.run(args.workload, args.seed, deadline, OUT, child_env())
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, deadline)
    for line in result.pop("problems"):
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
